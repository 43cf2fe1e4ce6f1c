import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _f_tail,
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


# P(F > f) as (df1, df2, f, p), from mpmath 1.3.0 at 40 digits, over df1 1-12,
# df2 1-1e4 and F 1e-8-1e8, then F chosen for p from 1e-300 down into the
# subnormals. Generated by:
#   import random, mpmath
#   mpmath.mp.dps = 40
#   def tail(df1, df2, f):  # P(F > f) = I_x(df2/2, df1/2) at x = df2 / (df2 + df1 f)
#       a, b = mpmath.mpf(df2) / 2, mpmath.mpf(df1) / 2
#       return float(mpmath.betainc(a, b, 0, a / (a + b * mpmath.mpf(f)), regularized=True))
#   rng, rows = random.Random(20), []
#   while len(rows) < 48:  # integer or real dfs
#       df1 = rng.choice([rng.randint(1, 12), round(rng.uniform(1, 12), 3)])
#       df2 = rng.choice([rng.randint(1, 10**4), round(10 ** rng.uniform(0, 4), 3)])
#       f = float(f"{10 ** rng.uniform(-8, 8):.6g}")
#       if tail(df1, df2, f) > 1e-300:
#           rows.append((df1, df2, f))
#   # F found by bisection on log10 F for p from 1e-300 down into the subnormals
#   rows += [(3, 40, 1.44706e16), (12, 100.5, 1.38969e7), (1, 30, 9.28479e21),
#            (2.5, 600, 2344.54), (7, 9000, 227.62), (4, 13.25, 4.50116e48),
#            (2, 70, 5.19394e10), (10.5, 3000, 190.471)]
#   for df1, df2, f in rows:
#       print(f"    {(df1, df2, f, tail(df1, df2, f))!r},")
F_TAIL_REFERENCE = (
    (10, 6743, 4.48709e-07, 1.0),
    (6.218, 6.833, 101.386, 2.402251172552712e-06),
    (4.691, 324.142, 0.0301251, 0.9993178804102866),
    (4, 3307, 0.00011344, 0.999999974251067),
    (4.356, 2677, 0.000190921, 0.9999999817501264),
    (10, 1907, 2.05028, 0.025387661316057894),
    (7, 2.88, 1.07646e-08, 1.0),
    (2.293, 9131, 15.1774, 4.6967842159696326e-08),
    (2.026, 6680.013, 415.246, 9.417443826177715e-173),
    (3, 6358, 1.44731e-05, 0.9999999238993094),
    (4, 9094, 233.082, 7.828512590834976e-191),
    (8, 1802.245, 0.0302755, 0.9999918133035495),
    (10.997, 28.706, 2.00195e-06, 1.0),
    (5.355, 1.847, 2.40368e-05, 0.9999999999935358),
    (1, 308.974, 2737.06, 1.4077826668993709e-155),
    (3, 40, 2.40449e-05, 0.9999998340279891),
    (7.801, 2.055, 42993.9, 1.7685691598556152e-05),
    (8, 3958.789, 0.0201789, 0.9999983370747269),
    (9.807, 212.726, 0.00127743, 0.9999999999998321),
    (4.222, 6229, 0.00372461, 0.9999838253190113),
    (9.235, 1102.035, 6.80758e-05, 1.0),
    (3, 531.387, 3.05926, 0.027889312663826448),
    (10.996, 413.93, 0.00436774, 0.9999999999954835),
    (3, 3.299, 70953200.0, 2.2990386563179604e-13),
    (11, 36.554, 100757.0, 2.075524719343329e-78),
    (11, 2111, 11.7129, 1.5305990035573965e-21),
    (2, 12.545, 2.29303e-07, 0.9999997706970305),
    (5, 9909.796, 4.27779e-08, 1.0),
    (10.032, 8231, 0.194755, 0.9967693885290186),
    (10.89, 2512, 0.00043043, 1.0),
    (5.906, 2545.479, 152.188, 3.116490523817579e-163),
    (2, 5005, 1.27622, 0.27918107634613976),
    (7, 5965, 9.29761, 1.6820867918039352e-11),
    (6, 21.925, 2.25566e-06, 0.9999999999999999),
    (9, 8362, 7.28261e-07, 1.0),
    (5, 5.862, 0.1292, 0.9797739568075052),
    (12, 2843, 0.876664, 0.5705257500692239),
    (7.202, 9.381, 30981500.0, 8.651210407409964e-34),
    (2.034, 7073, 4.68725, 0.008874300280449292),
    (6.613, 106.756, 3.11167e-08, 1.0),
    (9.446, 7652.083, 137.918, 6.085481874505874e-253),
    (1.694, 227, 3.32611e-06, 0.999978940221035),
    (1.786, 6894, 42.4488, 2.6693249416658055e-17),
    (5.281, 13.997, 2133370.0, 1.0201267126847143e-40),
    (9.553, 5383, 2.40639e-06, 1.0),
    (11, 5768, 7.71553e-06, 1.0),
    (10, 5219, 1.49396e-08, 1.0),
    (6.598, 2904, 5.8689, 1.6486658707965429e-06),
    (3, 40, 1.44706e+16, 1.0000548502987305e-300),
    (12, 100.5, 13896900.0, 9.999931067661785e-307),
    (1, 30, 9.28479e+21, 6.309551964244517e-309),
    (2.5, 600, 2344.54, 1.00008259205085e-309),
    (7, 9000, 227.62, 9.9912524613e-313),
    (4, 13.25, 4.50116e+48, 9.99994e-319),
    (2, 70, 51939400000.0, 1e-321),
    (10.5, 3000, 190.471, 3e-323),
)

# The bound was fixed from the error budget before the table was checked. The
# prefactor's lgamma terms reach ~4e4 at df2 = 1e4, where half an ulp is
# 3.6e-12; three of them, lgamma's own error and the fraction's rounding stay
# below 5e-11 relative. Below the smallest normal double a result holds fewer
# digits, so there the bound is absolute: the relative bound at that double.
F_TAIL_REL = 5e-11


def assert_tail(got: float, want: float) -> None:
    assert abs(got - want) <= F_TAIL_REL * max(want, sys.float_info.min), (got, want)


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
    classical sums-of-squares formulas in exact rational arithmetic, the
    three-way residual as the cells centred along all three axes, and epsilon
    from np.cov of the contrast scores of an SVD basis."""
    n, a, b = y.shape
    q = np.vectorize(Fraction, otypes=[object])(y)
    grand = q.mean()
    m_s, m_a, m_b = q.mean(axis=(1, 2)), q.mean(axis=(0, 2)), q.mean(axis=(0, 1))
    m_ab, m_sa, m_sb = q.mean(axis=0), q.mean(axis=2), q.mean(axis=1)
    ss_total = ((q - grand) ** 2).sum()
    ss_a = n * b * ((m_a - grand) ** 2).sum()
    ss_b = n * a * ((m_b - grand) ** 2).sum()
    ss_ab = n * ((m_ab - m_a[:, None] - m_b[None, :] + grand) ** 2).sum()
    ss_as = b * ((m_sa - m_a[None, :] - m_s[:, None] + grand) ** 2).sum()
    ss_bs = a * ((m_sb - m_b[None, :] - m_s[:, None] + grand) ** 2).sum()
    residual = q
    for axis in (0, 1, 2):
        residual = residual - residual.mean(axis=axis, keepdims=True)
    ss_abs = (residual * residual).sum()
    h_a, h_b = _svd_contrasts(a), _svd_contrasts(b)
    parts = [
        (ss_a, a - 1, ss_as, np.kron(h_a, np.ones((1, b)))),
        (ss_b, b - 1, ss_bs, np.kron(np.ones((1, a)), h_b)),
        (ss_ab, (a - 1) * (b - 1), ss_abs, np.kron(h_a, h_b)),
    ]
    tiny = 1e-12 * max(float(ss_total), 1.0)
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
            x = float(df_err / (df_err + df_eff * f))
            f, p = float(f), float(betainc(scale * df_err / 2, scale * df_eff / 2, x))
            eta = float(ss_eff / (ss_eff + ss_err))
        out.append((f, p, eta, eps, float(ss_err), tiny))
    return out


@st.composite
def designs(draw):
    """Subject offsets, planted A, B and AxB offsets and noise; a factor may be
    collapsed, its levels made identical.

    Planted offsets stay within a few noise SDs;
    test_interaction_error_when_effects_dwarf_the_noise covers effects far
    above the noise."""
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
    # a residual found by subtraction put the AxB F 3.6e-9 off the exact one here
    @example(
        design=RmDesign(("s0", "s1"), ("l0", "l1"), ("l0", "l1"), np.array([
            [[7.188279334951523, 6.242618945625917], [9.240435722266785, 7.24503852793965]],
            [[8.054338990599348, 8.222658300128362], [8.94035679916388, 8.05404066685948]],
        ])),
        corrected=False,
    )
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
        # an F from the residual by subtraction is 5.6e-9 off here
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

    def test_against_mpmath_reference(self):
        for df1, df2, f, want in F_TAIL_REFERENCE:
            assert_tail(_f_tail(f, df1, df2), want)

    @pytest.mark.parametrize("df2", [1, 2.5, 10, 137.25, 5000])
    def test_closed_form_for_df1_two(self, df2):
        # P(F > f) = (1 + 2f/df2)^(-df2/2) (A&S 26.6), its log taken by log1p
        for f in np.geomspace(1e-8, 1e8, 33):
            assert_tail(_f_tail(f, 2, df2), math.exp(-df2 / 2 * math.log1p(2 * f / df2)))

    def test_closed_form_for_one_and_one_df(self):
        # 1 - (2/pi) atan(sqrt f) (A&S 26.6), as (2/pi) atan(1/sqrt f) without cancellation
        for f in np.geomspace(1e-8, 1e8, 33):
            assert_tail(_f_tail(f, 1, 1), 2 / math.pi * math.atan(1 / math.sqrt(f)))

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
