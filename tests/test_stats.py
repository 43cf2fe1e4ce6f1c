import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc
from scipy.stats import binom

from speechmotion.errors import (
    IncompleteSubjectWarning,
    InvalidDegreesOfFreedomError,
    TooFewSubjectsError,
    UnbalancedDesignError,
)
from speechmotion.motion import CATEGORY_NAMES, CONDITION_NAMES, SummaryCell, sem_of
from speechmotion.stats import (
    RmDesign,
    design_from_summaries,
    f_distribution_sf,
    rm_anova_two_way,
)

# Hand-worked 3-subject 2x2 dataset. Sums of squares were derived manually
# before implementation; with df (1, 2) the F tail has the closed form
# p = 1 - sqrt(F / (F + 2)).
HAND_CELLS = np.array(
    [
        [[2.0, 4.0], [6.0, 8.0]],
        [[3.0, 5.0], [7.0, 11.0]],
        [[1.0, 2.0], [5.0, 7.0]],
    ]
)
HAND_DESIGN = RmDesign(
    subjects=("s1", "s2", "s3"),
    a_levels=("a1", "a2"),
    b_levels=("b1", "b2"),
    cells=HAND_CELLS,
    factor_a="emotion",
    factor_b="condition",
)
# SS_A = 60.75, SS_AxS = 0.5; SS_B = 169/12, SS_BxS = 7/6; SS_AB = 0.75, SS_ABxS = 0.5
HAND_EXPECTED = {
    "emotion": (243.0, 1 - math.sqrt(243.0 / 245.0), 60.75 / 61.25),
    "condition": (169.0 / 7.0, 1 - math.sqrt(169.0 / 183.0), 169.0 / 183.0),
    "emotion_x_condition": (3.0, 1 - math.sqrt(3.0 / 5.0), 0.75 / 1.25),
}


class TestRmAnova:
    def test_hand_worked_dataset(self):
        result = rm_anova_two_way(HAND_DESIGN)
        for name, (f_exp, p_exp, eta_exp) in HAND_EXPECTED.items():
            e = result.effect(name)
            assert e.f_value == pytest.approx(f_exp, abs=1e-9)
            assert e.p_value == pytest.approx(p_exp, abs=1e-9)
            assert e.partial_eta_sq == pytest.approx(eta_exp, abs=1e-9)

    def test_hand_worked_dfs(self):
        result = rm_anova_two_way(HAND_DESIGN)
        assert (result.effect("emotion").df_effect, result.effect("emotion").df_error) == (1, 2)
        assert (result.effect("condition").df_effect, result.effect("condition").df_error) == (1, 2)
        e = result.effect("emotion_x_condition")
        assert (e.df_effect, e.df_error) == (1, 2)

    def test_all_equal_cells(self):
        design = RmDesign(("s1", "s2"), ("a1", "a2"), ("b1", "b2"), np.full((2, 2, 2), 3.3))
        result = rm_anova_two_way(design)
        for e in result.effects:
            assert e.f_value == 0.0
            assert e.p_value == 1.0
            assert e.partial_eta_sq == 0.0

    def test_location_invariance(self):
        base = rm_anova_two_way(HAND_DESIGN)
        shifted = rm_anova_two_way(
            RmDesign(("s1", "s2", "s3"), ("a1", "a2"), ("b1", "b2"), HAND_CELLS + 123.456)
        )
        for eb, es in zip(base.effects, shifted.effects):
            assert es.f_value == pytest.approx(eb.f_value, rel=1e-9)
            assert es.p_value == pytest.approx(eb.p_value, rel=1e-9)
            assert es.partial_eta_sq == pytest.approx(eb.partial_eta_sq, rel=1e-9)

    def test_subject_permutation_invariance(self):
        perm = RmDesign(
            ("s3", "s1", "s2"), ("a1", "a2"), ("b1", "b2"), HAND_CELLS[[2, 0, 1]]
        )
        base = rm_anova_two_way(HAND_DESIGN)
        after = rm_anova_two_way(perm)
        for eb, ea in zip(base.effects, after.effects):
            assert ea.f_value == pytest.approx(eb.f_value, abs=1e-9)

    def test_collapsed_factor_b_gives_zero_f(self):
        cells = HAND_CELLS.copy()
        cells[:, :, 1] = cells[:, :, 0]  # both B levels identical
        result = rm_anova_two_way(
            RmDesign(("s1", "s2", "s3"), ("a1", "a2"), ("b1", "b2"), cells)
        )
        assert result.effect("condition").f_value == 0.0

    def test_sums_of_squares_accounting(self):
        result = rm_anova_two_way(HAND_DESIGN)
        total = float(((HAND_CELLS - HAND_CELLS.mean()) ** 2).sum())
        parts = sum(e.ss_effect + e.ss_error for e in result.effects)
        ss_subj = 4.0 * (((HAND_CELLS.mean(axis=(1, 2)) - HAND_CELLS.mean()) ** 2).sum())
        assert parts + ss_subj == pytest.approx(total, rel=1e-8)

    def test_too_few_subjects(self):
        with pytest.raises(TooFewSubjectsError):
            rm_anova_two_way(
                RmDesign(("s1",), ("a1", "a2"), ("b1", "b2"), HAND_CELLS[:1])
            )

    def test_four_by_two_shape(self):
        rng = np.random.default_rng(0)
        design = RmDesign(
            tuple(f"s{i}" for i in range(6)),
            ("Neutral", "Happy", "Sad", "Angry"),
            ("overlap", "non_overlap"),
            rng.uniform(0, 2, (6, 4, 2)),
        )
        result = rm_anova_two_way(design)
        assert result.effect("emotion").df_effect == 3
        assert result.effect("emotion").df_error == 15
        assert result.effect("emotion_x_condition").df_effect == 3
        for e in result.effects:
            assert 0.0 <= e.p_value <= 1.0
            assert 0.0 <= e.partial_eta_sq <= 1.0


class TestSphericityCorrection:
    def test_two_level_factors_unchanged(self):
        plain = rm_anova_two_way(HAND_DESIGN)
        corrected = rm_anova_two_way(HAND_DESIGN, sphericity_correction=True)
        for pe, ce in zip(plain.effects, corrected.effects):
            assert ce.gg_epsilon == 1.0  # epsilon is identically 1 for 2 levels
            assert ce.p_value == pytest.approx(pe.p_value, abs=1e-12)

    def test_epsilon_bounds_four_levels(self):
        rng = np.random.default_rng(0)
        base = rng.standard_normal((8, 1, 1))
        cells = base + 0.3 * rng.standard_normal((8, 4, 2))
        cells[:, 1, :] += 2 * base[:, 0, :]  # break sphericity
        design = RmDesign(
            tuple(f"s{i}" for i in range(8)),
            ("a", "b", "c", "d"),
            ("x", "y"),
            cells,
        )
        result = rm_anova_two_way(design, sphericity_correction=True)
        emotion = result.effect("emotion")
        assert 1.0 / 3.0 <= emotion.gg_epsilon < 1.0
        plain = rm_anova_two_way(design).effect("emotion")
        assert emotion.f_value == pytest.approx(plain.f_value)  # F unchanged
        assert plain.f_value > 1.0
        assert emotion.p_value > plain.p_value  # conservative when F > 1

    def test_default_has_no_epsilon(self):
        result = rm_anova_two_way(HAND_DESIGN)
        assert all(e.gg_epsilon is None for e in result.effects)


def _svd_contrasts(k: int) -> np.ndarray:
    """An orthonormal basis of the mean-zero subspace of k levels, from the SVD
    of the centring matrix."""
    u, _, _ = np.linalg.svd(np.eye(k) - 1.0 / k)
    return u[:, : k - 1].T


def _reference_anova(y: np.ndarray, corrected: bool) -> list[tuple]:
    """(F, p, partial eta squared, epsilon, error SS, tiny) per effect from the
    classical sums-of-squares formulas, the three-way residual by subtraction,
    and epsilon from np.cov of the contrast scores of an SVD basis."""
    n, a, b = y.shape
    grand = y.mean()
    m_s, m_a, m_b = y.mean(axis=(1, 2)), y.mean(axis=(0, 2)), y.mean(axis=(0, 1))
    m_ab, m_sa, m_sb = y.mean(axis=0), y.mean(axis=2), y.mean(axis=1)
    ss_total = float(((y - grand) ** 2).sum())
    ss_a = float(n * b * ((m_a - grand) ** 2).sum())
    ss_b = float(n * a * ((m_b - grand) ** 2).sum())
    ss_ab = float(n * ((m_ab - m_a[:, None] - m_b[None, :] + grand) ** 2).sum())
    ss_subj = float(a * b * ((m_s - grand) ** 2).sum())
    ss_as = float(b * ((m_sa - m_a[None, :] - m_s[:, None] + grand) ** 2).sum())
    ss_bs = float(a * ((m_sb - m_b[None, :] - m_s[:, None] + grand) ** 2).sum())
    ss_abs = max(ss_total - (ss_a + ss_b + ss_ab + ss_subj + ss_as + ss_bs), 0.0)
    h_a, h_b = _svd_contrasts(a), _svd_contrasts(b)
    parts = [
        (ss_a, a - 1, ss_as, np.kron(h_a, np.ones((1, b)))),
        (ss_b, b - 1, ss_bs, np.kron(np.ones((1, a)), h_b)),
        (ss_ab, (a - 1) * (b - 1), ss_abs, np.kron(h_a, h_b)),
    ]
    tiny = 1e-12 * max(ss_total, 1.0)
    out = []
    for ss_eff, df_eff, ss_err, contrast in parts:
        df_err = df_eff * (n - 1)
        eps = None
        if corrected:
            s = np.atleast_2d(np.cov(y.reshape(n, -1) @ contrast.T, rowvar=False))
            denom = df_eff * float((s * s).sum())
            eps = 1.0 if denom <= 0 else min(max(np.trace(s) ** 2 / denom, 1 / df_eff), 1.0)
        if ss_eff <= tiny:
            f, p, eta = 0.0, 1.0, 0.0
        elif ss_err <= tiny:
            f, p, eta = math.inf, 0.0, 1.0
        else:
            f = (ss_eff / df_eff) / (ss_err / df_err)
            scale = 1.0 if eps is None else eps
            p = float(betainc(scale * df_err / 2, scale * df_eff / 2, df_err / (df_err + df_eff * f)))
            eta = ss_eff / (ss_eff + ss_err)
        out.append((f, p, eta, eps, ss_err, tiny))
    return out


@st.composite
def designs(draw):
    """Subject offsets, planted A, B and AxB offsets and noise; a factor may be
    collapsed, its levels made identical.

    Planted offsets stay within a few noise SDs: far above the noise, the
    reference's residual by subtraction loses digits (see
    test_interaction_error_when_effects_dwarf_the_noise)."""
    n, a, b = draw(st.integers(2, 40)), draw(st.integers(2, 5)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = draw(st.floats(0.1, 10.0))
    size = st.floats(0.0, 2.0 * noise)
    y = (
        draw(st.floats(0.0, 20.0 * noise)) * rng.standard_normal((n, 1, 1))
        + draw(size) * rng.standard_normal((1, a, 1))
        + draw(size) * rng.standard_normal((1, 1, b))
        + draw(size) * rng.standard_normal((1, a, b))
        + noise * rng.standard_normal((n, a, b))
        + draw(st.floats(-100.0, 100.0))
    )
    collapsed = draw(st.sampled_from([None, "a", "b"]))
    if collapsed == "a":
        y[:, 1:, :] = y[:, :1, :]
    elif collapsed == "b":
        y[:, :, 1:] = y[:, :, :1]
    levels = [f"l{i}" for i in range(max(a, b))]
    return RmDesign(tuple(f"s{i}" for i in range(n)), levels[:a], levels[:b], y)


class TestContrastDecomposition:
    """The contrast-score ANOVA against the classical sums-of-squares formulas."""

    @settings(max_examples=300, deadline=None)
    @given(design=designs(), corrected=st.booleans())
    def test_matches_the_sums_of_squares_formulas(self, design, corrected):
        result = rm_anova_two_way(design, sphericity_correction=corrected)
        for e, (f, p, eta, eps, ss_err, tiny) in zip(
            result.effects, _reference_anova(design.cells, corrected)
        ):
            for got, want in ((e.f_value, f), (e.p_value, p), (e.partial_eta_sq, eta)):
                assert got == pytest.approx(want, rel=1e-9, abs=0.0)
            if not corrected:
                assert e.gg_epsilon is None
            elif ss_err > tiny:  # no error variance leaves epsilon undefined
                assert e.gg_epsilon == pytest.approx(eps, rel=1e-12, abs=0.0)

    def test_interaction_error_when_effects_dwarf_the_noise(self):
        # exact rational arithmetic: the interaction-by-subject residual is the
        # cells centred along all three axes, the AxB effect the subject means
        # centred along both factors
        rng = np.random.default_rng(3)
        y = (
            30 * rng.standard_normal((2, 1, 1)) + 50 * rng.standard_normal((1, 5, 2))
            + 0.05 * rng.standard_normal((2, 5, 2))
        )
        q = np.vectorize(Fraction, otypes=[object])(y)
        for axis in (0, 1, 2):
            q = q - q.mean(axis=axis, keepdims=True)
        m = np.vectorize(Fraction, otypes=[object])(y).mean(axis=0)
        for axis in (0, 1):
            m = m - m.mean(axis=axis, keepdims=True)
        ss_err, f_value = (q * q).sum(), 2 * (m * m).sum() / (q * q).sum()
        design = RmDesign(("s0", "s1"), ("a", "b", "c", "d", "e"), ("x", "y"), y)
        e = rm_anova_two_way(design).effect("emotion_x_condition")
        assert e.ss_error == pytest.approx(float(ss_err), rel=1e-11)
        # the reference's F, from the residual by subtraction, is 5.6e-9 off here
        assert e.f_value == pytest.approx(float(f_value), rel=1e-11)


class TestNullCalibration:
    """Under a spherical null the test rejects at its nominal rate."""

    @pytest.mark.parametrize("corrected", [False, True])
    def test_rejection_rate_at_alpha(self, corrected):
        n_designs, alpha = 300, 0.05
        rng = np.random.default_rng(0)
        rejected = np.zeros(3, dtype=int)
        for _ in range(n_designs):
            # subject offsets plus independent equal-variance noise: no effect
            cells = rng.standard_normal((10, 1, 1)) + rng.standard_normal((10, 4, 2))
            design = RmDesign(
                tuple(f"s{i}" for i in range(10)), CATEGORY_NAMES, CONDITION_NAMES, cells
            )
            result = rm_anova_two_way(design, sphericity_correction=corrected)
            rejected += [e.p_value < alpha for e in result.effects]
        lo, hi = binom.interval(0.99, n_designs, alpha)
        for name, count in zip(("emotion", "condition", "emotion_x_condition"), rejected):
            assert lo <= count <= hi, f"{name}: {count} of {n_designs} rejected"


class TestFromRows:
    def rows(self):
        out = []
        for s in ("s1", "s2", "s3"):
            for a in ("Neutral", "Happy", "Sad", "Angry"):
                for b in ("overlap", "non_overlap"):
                    out.append((s, a, b, 1.0))
        return out

    def test_balanced_build(self):
        design = RmDesign.from_rows(self.rows())
        assert design.cells.shape == (3, 4, 2)

    def test_duplicate_cell_rejected(self):
        rows = self.rows() + [("s1", "Neutral", "overlap", 2.0)]
        with pytest.raises(UnbalancedDesignError):
            RmDesign.from_rows(rows)

    def test_missing_cell_rejected(self):
        with pytest.raises(UnbalancedDesignError):
            RmDesign.from_rows(self.rows()[:-1])

    def test_listwise_deletion_with_warning(self):
        with pytest.warns(IncompleteSubjectWarning):
            design = RmDesign.from_rows(self.rows()[:-1], drop_incomplete=True)
        assert design.subjects == ("s1", "s2")


class TestFSurvival:
    def test_f_zero_gives_one(self):
        assert f_distribution_sf(0.0, 3, 12) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("df", [1, 2, 4, 10, 132])
    def test_equal_df_median_at_one(self, df):
        assert f_distribution_sf(1.0, df, df) == pytest.approx(0.5, abs=1e-9)

    def test_against_quadrature_oracle(self):
        # density of F(2, 10), integrated numerically over the tail
        df1, df2 = 2, 10
        c = (
            math.gamma((df1 + df2) / 2)
            / (math.gamma(df1 / 2) * math.gamma(df2 / 2))
            * (df1 / df2) ** (df1 / 2)
        )

        def pdf(x):
            return c * x ** (df1 / 2 - 1) * (1 + df1 * x / df2) ** (-(df1 + df2) / 2)

        tail, _ = quad(pdf, 4.0, np.inf)
        assert f_distribution_sf(4.0, df1, df2) == pytest.approx(tail, abs=1e-10)
        # closed form for df1=2: (1 + 2 f / df2)^(-df2/2) = (5/9)^5
        assert f_distribution_sf(4.0, 2, 10) == pytest.approx((5.0 / 9.0) ** 5, abs=1e-12)

    def test_invalid_dfs(self):
        with pytest.raises(InvalidDegreesOfFreedomError):
            f_distribution_sf(1.0, 0, 5)
        with pytest.raises(InvalidDegreesOfFreedomError):
            f_distribution_sf(1.0, 2, -1)


class TestSem:
    def test_constant(self):
        assert sem_of(np.array([2.0, 2.0, 2.0])) == 0.0

    def test_two_values(self):
        # sd of (1, 3) is sqrt(2); sem = sqrt(2)/sqrt(2) = 1
        assert sem_of(np.array([1.0, 3.0])) == pytest.approx(1.0, abs=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        vals = rng.standard_normal(25)
        assert sem_of(vals * -3.5) == pytest.approx(3.5 * sem_of(vals), rel=1e-12)

    def test_too_few(self):
        # one value has no spread to estimate: the SEM is undefined, not an error
        assert math.isnan(sem_of(np.array([1.0])))


class TestDesignFromSummaries:
    def make_cells(self, value):
        cells = []
        for emotion in ("Neutral", "Happy", "Sad", "Angry"):
            for condition in ("overlap", "non_overlap"):
                cells.append(
                    SummaryCell("mouth", emotion, condition, value, 0.1, 40, False)
                )
        return cells

    def test_two_sessions(self):
        design = design_from_summaries(
            {"s1": self.make_cells(1.0), "s2": self.make_cells(2.0)}, "mouth"
        )
        assert design.subjects == ("s1", "s2")
        assert design.cells.shape == (2, 4, 2)

    def test_missing_cell_drops_subject(self):
        partial = self.make_cells(1.0)[:-1]
        with pytest.warns(IncompleteSubjectWarning):
            design = design_from_summaries(
                {"s1": partial, "s2": self.make_cells(2.0)},
                "mouth",
                drop_incomplete=True,
            )
        assert design.subjects == ("s2",)
