import math

import numpy as np
import pytest
from scipy.integrate import quad

from speechmotion.errors import (
    IncompleteSubjectWarning,
    InvalidDegreesOfFreedomError,
    TooFewSubjectsError,
    UnbalancedDesignError,
)
from speechmotion.motion import SummaryCell, sem_of
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
