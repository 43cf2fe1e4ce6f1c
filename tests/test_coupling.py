import math
import tracemalloc
import weakref
from dataclasses import astuple
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import motion, synth, timeline
from speechmotion.frames import merge_moments, moments
from speechmotion.coupling import (
    AFFECT_BINS,
    CONDITIONS,
    FEATURE_SETS,
    PROTOCOLS,
    AffineMap,
    _selection_mask,
    _solve,
    bin_affect,
    coupling_report,
    evaluate_mapping,
    evaluate_session,
    feature_set_track,
    fit_ammse,
    pearson_r,
    predict,
    read_coupling_csv,
    write_coupling_csv,
)
from speechmotion.errors import (
    DegenerateSplitWarning,
    DegenerateInputError,
    FeatureNameMismatchError,
    GridMismatchError,
    InsufficientFramesError,
    TooFewPairsError,
    ValidationError,
)
from speechmotion.frames import FeatureTrack, FrameGrid
from speechmotion.ingest import Interval, SpeechIntervals
from speechmotion.speech_features import PC_COLUMNS, PROSODY_COLUMNS, temporal_derivatives
from speechmotion.timeline import SessionTable, rasterize_intervals


def track(values, columns=None, rate=60.24, start=0.0):
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    columns = columns or tuple(f"c{i}" for i in range(values.shape[1]))
    return FeatureTrack(FrameGrid(rate, start, values.shape[0]), tuple(columns), values)


class TestFitAmmse:
    def test_exact_scalar_affine(self):
        x = track(np.linspace(-1, 1, 60))
        y = track(2.0 * np.linspace(-1, 1, 60) + 1.0)
        m = fit_ammse(x, y, ridge_eps=0.0)
        assert m.a[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert m.b[0] == pytest.approx(1.0, abs=1e-9)

    def test_generator_oracle_recovery(self):
        rng = np.random.default_rng(0)
        a0 = rng.standard_normal((2, 3))
        b0 = rng.standard_normal(2)
        x = rng.standard_normal((1000, 3))
        y = x @ a0.T + b0
        m = fit_ammse(track(x), track(y, columns=("y0", "y1")), ridge_eps=0.0)
        assert np.abs(m.a - a0).max() < 1e-6
        assert np.abs(m.b - b0).max() < 1e-6

    def test_null_coupling_shrinks(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10000, 3))
        y = rng.standard_normal((10000, 2))
        m = fit_ammse(track(x), track(y, columns=("y0", "y1")), ridge_eps=0.0)
        assert np.abs(m.a).max() < 0.05

    def test_training_residuals_zero_mean(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((400, 4))
        y = x @ rng.standard_normal((4, 2)) + 3.0 + 0.5 * rng.standard_normal((400, 2))
        xt, yt = track(x), track(y, columns=("u", "v"))
        m = fit_ammse(xt, yt)
        resid = yt.values - predict(m, xt).values
        assert np.abs(resid.mean(axis=0)).max() < 1e-8 * np.abs(y).mean()

    def test_pairwise_dropout_exclusion(self):
        x = np.linspace(-1, 1, 50)
        y = 3.0 * x - 0.5
        x[4] = np.nan
        y[9] = np.nan
        m = fit_ammse(track(x), track(y, columns=("y",)), ridge_eps=0.0)
        assert m.n_frames == 48
        assert m.a[0, 0] == pytest.approx(3.0, abs=1e-9)

    def test_insufficient_frames(self):
        with pytest.raises(InsufficientFramesError):
            fit_ammse(track(np.zeros((3, 2))), track(np.zeros(3), columns=("y",)))

    def test_degenerate_without_ridge(self):
        x = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        with pytest.raises(DegenerateInputError):
            fit_ammse(track(x), track(np.zeros(50), columns=("y",)), ridge_eps=0.0)

    def test_ridge_rescues_degenerate(self):
        x = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        m = fit_ammse(track(x), track(np.zeros(50), columns=("y",)), ridge_eps=1e-8)
        assert np.isfinite(m.a).all()

    def test_ridge_converges_to_ols(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((500, 4))
        y = x @ rng.standard_normal((4, 1)) + 0.1 * rng.standard_normal((500, 1))
        xt, yt = track(x), track(y, columns=("y",))
        ols = fit_ammse(xt, yt, ridge_eps=0.0)
        ridged = fit_ammse(xt, yt, ridge_eps=1e-12)
        assert np.abs(ols.a - ridged.a).max() < 1e-6

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            fit_ammse(track(np.zeros(30)), track(np.zeros(30), rate=10.0, columns=("y",)))

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        m = fit_ammse(
            track(rng.standard_normal((60, 2))),
            track(rng.standard_normal(60), columns=("y",)),
        )
        m.to_json(tmp_path / "m.json")
        back = AffineMap.from_json(tmp_path / "m.json")
        assert np.array_equal(back.a, m.a)
        assert np.array_equal(back.b, m.b)
        assert back.feature_names == m.feature_names


class TestPredict:
    def test_identity_map(self):
        x = track(np.arange(12.0).reshape(6, 2))
        m = AffineMap(np.eye(2), np.zeros(2), x.columns, ("o0", "o1"), 6, 0.0)
        assert np.array_equal(predict(m, x).values, x.values)

    def test_offset_only(self):
        x = track(np.zeros((5, 2)))
        m = AffineMap(np.zeros((2, 2)), np.array([1.5, -2.0]), x.columns, ("o0", "o1"), 5, 0.0)
        out = predict(m, x).values
        assert np.allclose(out, [1.5, -2.0])

    def test_matches_hand_matmul(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal(2)
        x = track(rng.standard_normal((3, 3)))
        m = AffineMap(a, b, x.columns, ("o0", "o1"), 3, 0.0)
        assert np.allclose(predict(m, x).values, x.values @ a.T + b, atol=1e-12)

    def test_name_mismatch(self):
        x = track(np.zeros((5, 2)), columns=("p", "q"))
        m = AffineMap(np.eye(2), np.zeros(2), ("a", "b"), ("o0", "o1"), 5, 0.0)
        with pytest.raises(FeatureNameMismatchError):
            predict(m, x)

    def test_dropout_propagates(self):
        vals = np.ones((4, 2))
        vals[2, 0] = np.nan
        x = track(vals)
        m = AffineMap(np.eye(2), np.zeros(2), x.columns, ("o0", "o1"), 4, 0.0)
        out = predict(m, x).values
        assert np.isnan(out[2]).all() and np.isfinite(out[[0, 1, 3]]).all()


class TestPearson:
    def test_perfect(self):
        assert pearson_r([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_anti(self):
        assert pearson_r([1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        assert pearson_r([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6, abs=1e-12)

    def test_zero_variance_marker(self):
        assert math.isnan(pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairsError):
            pearson_r([1.0, 2.0], [1.0, 2.0])

    def test_pairwise_dropout(self):
        r = pearson_r([1, 2, np.nan, 4, 5], [1, 2, 3, np.nan, 5])
        assert r == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(20)
        z = rng.standard_normal(20)
        assert pearson_r(y, z) == pytest.approx(pearson_r(z, y), abs=1e-12)


def build_table(seed=0, n=2000, noise=0.0, a0=None, rate=60.24):
    """Session table whose activeness is affine in the 18 speech columns."""
    from speechmotion.speech_features import SPEECH_FEATURE_COLUMNS

    rng = np.random.default_rng(seed)
    g = FrameGrid(rate, 0.0, n)
    x = rng.standard_normal((n, 18))
    speech = FeatureTrack(g, SPEECH_FEATURE_COLUMNS, x)
    if a0 is None:
        a0 = rng.standard_normal((2, 18)) * 0.3
    y = x @ a0.T + 5.0 + noise * rng.standard_normal((n, a0.shape[0]))
    activeness = FeatureTrack(g, tuple(f"r{i}" for i in range(a0.shape[0])), y)
    emotion = FeatureTrack(
        g,
        ("arousal", "valence", "category"),
        np.column_stack(
            [
                np.tanh(rng.standard_normal(n)),
                np.tanh(rng.standard_normal(n)),
                rng.integers(0, 4, n).astype(float),
            ]
        ),
    )
    end = g.end_s
    intervals = SpeechIntervals(
        (Interval(0.0, end * 0.55, "F"), Interval(end * 0.4, end, "M"))
    )
    labels = rasterize_intervals(intervals, "F", g)
    return SessionTable(
        g, {"speech": speech, "emotion": emotion, "activeness": activeness, "labels": labels}
    ), a0


class TestEvaluateMapping:
    def test_noiseless_recoverability_both_protocols(self):
        table, _ = build_table()
        for protocol in ("in_sample", "k_fold"):
            ev = evaluate_mapping(table, "all", protocol=protocol)
            assert min(ev.per_target.values()) >= 0.9999

    def test_region_selection(self):
        table, _ = build_table()
        ev = evaluate_mapping(table, "all", region="r1", protocol="in_sample")
        assert set(ev.per_target) == {"r1"}

    def test_joint_equals_independent_fits(self):
        table, _ = build_table(noise=0.5)
        joint = evaluate_mapping(table, "all", protocol="in_sample")
        for region in ("r0", "r1"):
            solo = evaluate_mapping(table, "all", region=region, protocol="in_sample")
            assert solo.per_target[region] == pytest.approx(
                joint.per_target[region], abs=1e-9
            )

    def test_affine_invariance_of_r(self):
        table, _ = build_table(noise=0.5)
        base = evaluate_mapping(table, "all", protocol="in_sample")
        speech = table.block("speech")
        rng = np.random.default_rng(9)
        scale = rng.uniform(0.5, 2.0, speech.values.shape[1])
        shift = rng.uniform(-3, 3, speech.values.shape[1])
        transformed = FeatureTrack(
            speech.grid, speech.columns, speech.values * scale + shift
        )
        table2 = SessionTable(
            table.grid, {**table.blocks, "speech": transformed}
        )
        after = evaluate_mapping(table2, "all", protocol="in_sample")
        for region in base.per_target:
            assert after.per_target[region] == pytest.approx(
                base.per_target[region], abs=1e-9
            )

    def test_condition_filter_changes_frames(self):
        table, _ = build_table()
        ev_all = evaluate_mapping(table, "all", protocol="in_sample", condition="all")
        ev_ov = evaluate_mapping(table, "all", protocol="in_sample", condition="overlap")
        ev_non = evaluate_mapping(
            table, "all", protocol="in_sample", condition="non_overlap"
        )
        assert ev_ov.n_frames + ev_non.n_frames == ev_all.n_frames
        assert ev_ov.n_frames > 0

    def test_affect_bins_partition(self):
        table, _ = build_table()
        hi = evaluate_mapping(
            table, "arousal", protocol="in_sample", affect_bin="high"
        )
        lo = evaluate_mapping(table, "arousal", protocol="in_sample", affect_bin="low")
        all_ = evaluate_mapping(table, "arousal", protocol="in_sample")
        assert hi.n_frames + lo.n_frames == all_.n_frames

    def test_insufficient_frames_per_fold(self):
        # ~22 speaking frames cannot train an 18-input fit in any fold
        table, _ = build_table(n=40)
        with pytest.raises(InsufficientFramesError):
            evaluate_mapping(table, "all", protocol="k_fold", n_folds=5)

    @pytest.mark.parametrize("n_folds", [1, 0, -3])
    def test_k_fold_needs_two_folds(self, n_folds):
        # one fold trains on nothing; coupling_report must not skip that as a short session
        table, _ = build_table()
        with pytest.raises(ValidationError, match=rf"n_folds >= 2, got {n_folds}"):
            evaluate_mapping(table, "all", protocol="k_fold", n_folds=n_folds)
        with pytest.raises(ValidationError):
            coupling_report([table], feature_sets=("all",), n_folds=n_folds)
        assert evaluate_mapping(table, "all", protocol="in_sample", n_folds=n_folds).n_frames > 0

    def test_feature_sets_resolve(self):
        table, _ = build_table()
        assert feature_set_track(table, "prosody").values.shape[1] == 6
        assert feature_set_track(table, "mfcc").values.shape[1] == 12
        assert feature_set_track(table, "all").values.shape[1] == 18
        assert feature_set_track(table, "arousal").values.shape[1] == 3
        assert feature_set_track(table, "valence", affect_derivatives=False).values.shape[1] == 1

    def test_named_sets_need_standard_columns(self):
        table, _ = build_table()
        speech = table.block("speech")
        renamed = FeatureTrack(
            speech.grid,
            tuple(f"x{i}" for i in range(len(speech.columns))),
            speech.values,
        )
        custom = SessionTable(table.grid, {**table.blocks, "speech": renamed})
        with pytest.raises(FeatureNameMismatchError):
            feature_set_track(custom, "prosody")
        assert feature_set_track(custom, "all").values.shape[1] == 18


class TestBinAffect:
    def emotion_track(self, arousal):
        arousal = np.asarray(arousal, dtype=float)
        g = FrameGrid(10.0, 0.0, len(arousal))
        return FeatureTrack(
            g,
            ("arousal", "valence", "category"),
            np.column_stack([arousal, np.zeros_like(arousal), np.zeros_like(arousal)]),
        )

    def test_median_split_example(self):
        # median of (-0.5, 0.1, 0.3, 0.8) is 0.2: first two low, last two high
        high, low = bin_affect(self.emotion_track([-0.5, 0.1, 0.3, 0.8]), "arousal")
        assert low.tolist() == [True, True, False, False]
        assert high.tolist() == [False, False, True, True]

    def test_all_equal_goes_low_with_warning(self):
        with pytest.warns(DegenerateSplitWarning):
            high, low = bin_affect(self.emotion_track([0.4, 0.4, 0.4]), "arousal")
        assert not high.any()
        assert low.all()

    def test_zero_threshold(self):
        high, low = bin_affect(
            self.emotion_track([-0.2, 0.4]), "arousal", policy="zero_threshold"
        )
        assert high.tolist() == [False, True]
        assert low.tolist() == [True, False]

    def test_respects_speaking_mask(self):
        speaking = np.array([True, True, False, True])
        high, low = bin_affect(
            self.emotion_track([-0.5, 0.1, 0.3, 0.8]), "arousal", speaking=speaking
        )
        assert not high[2] and not low[2]
        assert (high | low).sum() == 3


class TestCouplingReport:
    def test_two_sessions_report(self, tmp_path):
        t1, a0 = build_table(seed=1, noise=0.3)
        t2, _ = build_table(seed=2, noise=0.3, a0=a0)
        cells = coupling_report(
            [t1, t2], feature_sets=("prosody", "mfcc"), n_folds=3
        )
        assert cells
        for c in cells:
            assert -1.0 <= c.mean_r <= 1.0
            assert c.n_dyads == 2
            assert c.sem_r >= 0.0
        conditions = {c.condition for c in cells}
        assert conditions == {"all", "overlap", "non_overlap"}
        write_coupling_csv(cells, tmp_path / "r.csv")
        back = read_coupling_csv(tmp_path / "r.csv")
        assert len(back) == len(cells)
        assert back[0].mean_r == pytest.approx(cells[0].mean_r)

    def test_affect_bins_only_for_affect_sets(self):
        t1, _ = build_table(seed=3, noise=0.3)
        cells = coupling_report(
            [t1], feature_sets=("prosody", "arousal"), n_folds=3
        )
        prosody_bins = {c.affect_bin for c in cells if c.feature_set == "prosody"}
        arousal_bins = {c.affect_bin for c in cells if c.feature_set == "arousal"}
        assert prosody_bins == {"all"}
        assert arousal_bins == {"all", "high", "low"}

    def test_a_generator_of_tables_is_held_one_at_a_time(self):
        made = []

        def tables():
            for seed in range(4):
                assert all(ref() is None for ref in made), "an earlier table is still held"
                table = build_table(seed=seed, n=600, noise=0.3)[0]
                made.append(weakref.ref(table))
                yield table
                del table

        cells = coupling_report(tables(), feature_sets=("prosody", "arousal"), n_folds=3)
        assert len(made) == 4 and all(ref() is None for ref in made)
        again = [build_table(seed=seed, n=600, noise=0.3)[0] for seed in range(4)]
        expected = coupling_report(again, feature_sets=("prosody", "arousal"), n_folds=3)
        assert [astuple(c) for c in cells] == [astuple(c) for c in expected]
        assert {c.n_dyads for c in cells} == {4}


def _reference_fit(x, y, ridge_eps):
    """The fit as it was before folds came from merged moments, step for step."""
    valid = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    xv = x[valid]
    yv = y[valid]
    n, d_x = xv.shape
    if n <= d_x + 1:
        raise InsufficientFramesError(f"{n} complete frames")
    mu_x = xv.mean(axis=0)
    mu_y = yv.mean(axis=0)
    xc = xv - mu_x
    yc = yv - mu_y
    c_xx = xc.T @ xc / n
    c_yx = yc.T @ xc / n
    trace = float(np.trace(c_xx))
    if ridge_eps > 0.0:
        c_reg = c_xx + (ridge_eps * trace / d_x) * np.eye(d_x)
    else:
        eigvals = np.linalg.eigvalsh(c_xx)
        if trace <= 0.0 or eigvals[0] <= eigvals[-1] * 1e-12:
            raise DegenerateInputError("singular")
        c_reg = c_xx
    a = np.linalg.solve(c_reg, c_yx.T).T
    return a, mu_y - a @ mu_x


def _reference_r(table, feature_set, protocol, n_folds, condition, affect_bin, ridge_eps):
    """Per-target r from a refit on copied training rows for every fold."""
    dimension = None
    if affect_bin != "all":
        dimension = feature_set if feature_set in ("arousal", "valence") else "arousal"
    idx = np.flatnonzero(
        _selection_mask(table, condition, affect_bin, dimension, "median_split")
    )
    x = feature_set_track(table, feature_set).values[idx]
    y = table.block("activeness").values[idx]
    if protocol == "in_sample":
        a, b = _reference_fit(x, y, ridge_eps)
        y_hat = x @ a.T + b
    else:
        if len(idx) < n_folds:
            raise InsufficientFramesError("fewer frames than folds")
        y_hat = np.full_like(y, np.nan)
        for fold in np.array_split(np.arange(len(idx)), n_folds):
            train = np.setdiff1d(np.arange(len(idx)), fold, assume_unique=True)
            a, b = _reference_fit(x[train], y[train], ridge_eps)
            y_hat[fold] = x[fold] @ a.T + b
        y_hat[np.isnan(x).any(axis=1)] = np.nan
    out = {}
    for j, name in enumerate(table.block("activeness").columns):
        try:
            out[name] = pearson_r(y[:, j], y_hat[:, j])
        except TooFewPairsError:
            out[name] = math.nan
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientFramesError, DegenerateInputError) as exc:
        return type(exc)


def _with_dropouts(table, rng, x_share, y_share, constant_column, blank_fold):
    """`table` with NaN frames in speech, arousal and activeness, optionally a
    constant speech column, and optionally no complete frame in one fold."""
    blocks = dict(table.blocks)
    for name, column, share in (("speech", None, x_share), ("emotion", 0, x_share),
                                ("activeness", None, y_share)):
        values = blocks[name].values.copy()
        rows = rng.random(len(values)) < share
        if column is None:
            values[rows, rng.integers(0, values.shape[1], rows.sum())] = np.nan
        else:
            values[rows, column] = np.nan
        if name == "speech" and constant_column:
            values[:, 0] = 5.0
        if name == "activeness" and blank_fold is not None:
            idx = np.flatnonzero(table.column("labels", "speaking") == 1.0)
            fold, n_folds = blank_fold
            values[np.array_split(idx, n_folds)[fold % n_folds]] = np.nan
        blocks[name] = FeatureTrack(table.grid, blocks[name].columns, values)
    return SessionTable(table.grid, blocks)


class TestFoldsFromMoments:
    """The fold engine against a refit on copied rows, kept here as the reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(60, 900),
        n_folds=st.integers(2, 12),
        ridge_eps=st.sampled_from([0.0, 1e-8]),
        feature_set=st.sampled_from(FEATURE_SETS),
        condition=st.sampled_from(CONDITIONS),
        affect_bin=st.sampled_from(AFFECT_BINS),
        x_share=st.sampled_from([0.0, 0.05, 0.3]),
        y_share=st.sampled_from([0.0, 0.05, 0.3]),
        constant_column=st.booleans(),
        blank_fold=st.none() | st.integers(0, 11),
    )
    def test_k_fold_r_matches_refit_on_copied_rows(
        self, seed, n, n_folds, ridge_eps, feature_set, condition, affect_bin,
        x_share, y_share, constant_column, blank_fold,
    ):
        base, _ = build_table(seed=seed, n=n, noise=0.5)
        table = _with_dropouts(
            base, np.random.default_rng(seed), x_share, y_share, constant_column,
            None if blank_fold is None else (blank_fold, n_folds),
        )
        for protocol in ("k_fold", "in_sample"):
            expected = _outcome(
                _reference_r, table, feature_set, protocol, n_folds, condition,
                affect_bin, ridge_eps,
            )
            got = _outcome(
                lambda: evaluate_mapping(
                    table, feature_set, protocol=protocol, n_folds=n_folds,
                    condition=condition, affect_bin=affect_bin, ridge_eps=ridge_eps,
                ).per_target
            )
            if isinstance(expected, type):
                assert got is expected
                continue
            assert isinstance(got, dict) and got.keys() == expected.keys()
            for name, r in expected.items():
                if protocol == "in_sample" or math.isnan(r):
                    assert got[name] == r or math.isnan(got[name]) and math.isnan(r)
                else:
                    assert abs(got[name] - r) <= 1e-12

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16), ridge_eps=st.sampled_from([0.0, 1e-8]))
    def test_fit_ammse_is_the_reference_fit_bit_for_bit(self, seed, ridge_eps):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((300, 6))
        y = x @ rng.standard_normal((6, 3)) + rng.standard_normal((300, 3))
        x[rng.random(300) < 0.1, 2] = np.nan
        y[rng.random(300) < 0.1, 1] = np.nan
        fitted = fit_ammse(track(x), track(y, columns=("y0", "y1", "y2")), ridge_eps=ridge_eps)
        a, b = _reference_fit(x, y, ridge_eps)
        assert np.array_equal(fitted.a, a) and np.array_equal(fitted.b, b)


def _copied_feature_set(table, feature_set, affect_derivatives):
    """Feature set columns as copies, as `map` selected them before it gathered cells."""
    speech = table.block("speech")
    if feature_set in ("prosody", "mfcc"):
        names = PROSODY_COLUMNS if feature_set == "prosody" else PC_COLUMNS
        try:
            return speech.select(names)
        except KeyError:
            raise FeatureNameMismatchError("needs the standard speech columns") from None
    if feature_set == "all":
        return speech
    base = table.block("emotion").select([feature_set])
    return temporal_derivatives(base) if affect_derivatives else base


def _copy_based_evaluation(table, feature_set, region, protocol, n_folds, condition,
                           affect_bin, ridge_eps, affect_derivatives):
    """`evaluate_mapping` as it was before it gathered one [x | y] matrix per
    cell: whole-session column copies, copied rows, and a stacked copy of both."""
    dimension = None
    if affect_bin != "all":
        dimension = feature_set if feature_set in ("arousal", "valence") else "arousal"
    x_track = _copied_feature_set(table, feature_set, affect_derivatives)
    activeness = table.block("activeness")
    targets = activeness.columns if region is None else (region,)
    y_all = activeness.select(list(targets))
    idx = np.flatnonzero(_selection_mask(table, condition, affect_bin, dimension, "median_split"))
    x = x_track.values[idx]
    y = y_all.values[idx]
    d_x = x.shape[1]
    if protocol == "in_sample":
        totals = moments(np.hstack([x, y]), d_x)
        a, b = _solve(totals, d_x, ridge_eps)
        y_hat = x @ a.T + b
    else:
        if len(idx) < n_folds:
            raise InsufficientFramesError("fewer frames than folds")
        z = np.hstack([x, y])
        per_fold = [moments(block) for block in np.array_split(z, n_folds)]
        before = list(accumulate(per_fold, merge_moments, initial=moments(z[:0])))
        after = list(accumulate(per_fold[::-1], lambda acc, m: merge_moments(m, acc),
                                initial=before[0]))
        after.reverse()
        y_hat = []
        for k, x_held in enumerate(np.array_split(x, n_folds)):
            a, b = _solve(merge_moments(before[k], after[k + 1]), d_x, ridge_eps)
            y_hat.append(x_held @ a.T + b)
        y_hat = np.concatenate(y_hat)
        y_hat[np.isnan(x).any(axis=1)] = np.nan
        totals = before[-1]
        a, b = _solve(totals, d_x, ridge_eps)
    per_target = {}
    for j, name in enumerate(targets):
        try:
            per_target[name] = pearson_r(y[:, j], y_hat[:, j])
        except TooFewPairsError:
            per_target[name] = math.nan
    return per_target, len(idx), a, b, totals[0], x_track.columns, targets


def _one_matrix(table, speech_order):
    """`table` as read from aligned.csv: every block a column slice of one
    matrix, the speech columns in `speech_order` (a permutation, so the named
    sets may not be adjacent)."""
    speech = table.block("speech").select([table.block("speech").columns[i] for i in speech_order])
    blocks = {**table.blocks, "speech": speech}
    data = np.hstack([table.grid.timestamps()[:, None]] + [t.values for t in blocks.values()])
    views, col = {}, 1
    for name, block in blocks.items():
        views[name] = FeatureTrack(table.grid, block.columns, data[:, col:col + len(block.columns)])
        col += len(block.columns)
    return SessionTable(table.grid, views)


def _same(a, b):
    return np.array_equal(a, b, equal_nan=True)


class TestGatheredCells:
    """`evaluate_mapping` against the copy-based cell it replaced, kept here."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(60, 700),
        n_folds=st.integers(2, 10),
        feature_set=st.sampled_from(FEATURE_SETS),
        condition=st.sampled_from(CONDITIONS),
        affect_bin=st.sampled_from(AFFECT_BINS),
        region=st.sampled_from([None, "r1"]),
        x_share=st.sampled_from([0.0, 0.05, 0.3]),
        y_share=st.sampled_from([0.0, 0.05, 0.3]),
        layout=st.sampled_from(["blocks", "one_matrix", "shuffled", "custom"]),
        ridge_eps=st.sampled_from([0.0, 1e-8]),
        affect_derivatives=st.booleans(),
    )
    def test_bit_for_bit_against_copied_columns(
        self, seed, n, n_folds, feature_set, condition, affect_bin, region, x_share, y_share,
        layout, ridge_eps, affect_derivatives,
    ):
        rng = np.random.default_rng(seed)
        table = _with_dropouts(
            build_table(seed=seed, n=n, noise=0.5, a0=rng.standard_normal((3, 18)) * 0.3)[0],
            rng, x_share, y_share, constant_column=False, blank_fold=None,
        )
        if layout == "one_matrix":
            table = _one_matrix(table, range(18))
        elif layout == "shuffled":
            table = _one_matrix(table, rng.permutation(18))
        elif layout == "custom":  # 7 speech columns of other names: only `all` resolves
            speech = table.block("speech")
            custom = FeatureTrack(table.grid, tuple(f"u{i}" for i in range(7)), speech.values[:, 4:11])
            table = _one_matrix(SessionTable(table.grid, {**table.blocks, "speech": custom}), range(7))
        for protocol in PROTOCOLS:
            args = (feature_set, region, protocol, n_folds, condition, affect_bin, ridge_eps,
                    affect_derivatives)
            try:
                expected = _copy_based_evaluation(table, *args)
            except (InsufficientFramesError, DegenerateInputError, FeatureNameMismatchError) as exc:
                with pytest.raises(type(exc)):
                    evaluate_mapping(
                        table, feature_set, region=region, protocol=protocol, n_folds=n_folds,
                        condition=condition, affect_bin=affect_bin, ridge_eps=ridge_eps,
                        affect_derivatives=affect_derivatives,
                    )
                continue
            ev = evaluate_mapping(
                table, feature_set, region=region, protocol=protocol, n_folds=n_folds,
                condition=condition, affect_bin=affect_bin, ridge_eps=ridge_eps,
                affect_derivatives=affect_derivatives,
            )
            per_target, n_frames, a, b, n_fit, features, targets = expected
            assert ev.per_target.keys() == per_target.keys()
            assert _same(list(ev.per_target.values()), list(per_target.values()))
            assert (ev.n_frames, ev.fit.n_frames) == (n_frames, n_fit)
            assert (ev.fit.feature_names, ev.fit.target_names) == (features, targets)
            assert _same(ev.fit.a, a) and _same(ev.fit.b, b)


def _aligned_session(tmp_path, duration_s):
    """A synthetic session as `map` reads it: through aligned.csv, every block a
    column slice of one parsed matrix."""
    spec = synth.default_spec(
        seed=3, duration_s=duration_s, target_r=0.5, markers_per_region=3, signal_scale=0.25
    )
    s = synth.generate_coupled_session(spec)
    activeness = motion.region_activeness(motion.displacement_magnitudes(s.markers), s.region_map)
    table = timeline.align_session(s.speech, s.emotion, activeness, s.intervals, "F")
    csv_path, meta_path = tmp_path / f"{duration_s}.csv", tmp_path / f"{duration_s}.meta.json"
    timeline.write_session_csv(table, csv_path, meta_path)
    return timeline.read_session_csv(csv_path, meta_path)


def test_a_session_peaks_under_twice_its_largest_cell_matrix(tmp_path):
    """Bound: tracemalloc's peak over `evaluate_session` on a 300 s session,
    above what was held before the call, is under twice the largest cell's
    [x | y] matrix, n_selected * (d_x + d_y) * 8 bytes. A cell holds that
    matrix, its held-out predictions (n_selected * d_y, 8/20 of the matrix
    for mfcc) and one fold's complete and centred rows (2/5 of it under the
    default 5 folds); nothing it holds has the whole session's row count but
    the selection masks and an affect set's three derivative columns. The
    cells that copied the feature set's and the targets' whole-session
    columns, then their selected rows, then stacked both, peaked at 4.6 times
    the matrix."""
    evaluate_session(_aligned_session(tmp_path, 20.0))  # numpy's lazy imports, once
    table = _aligned_session(tmp_path, 300.0)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        cells = evaluate_session(table)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    largest = max(
        ev.n_frames * (len(ev.fit.feature_names) + len(ev.fit.target_names)) * 8
        for ev in cells.values()
    )
    assert largest > 2**20  # about 10,700 speaking frames of 12 + 8 columns
    assert peak < 2 * largest, f"peak {peak / 2**20:.2f} MiB, matrix {largest / 2**20:.2f} MiB"


def test_an_in_sample_session_peaks_under_two_and_a_half_cell_matrices(tmp_path):
    """Bound: under `protocol="in_sample"`, tracemalloc's peak over
    `evaluate_session` on the 300 s session above is under 2.5 times its
    largest cell's [x | y] matrix. A cell holds that matrix, its centred x and
    y blocks (about one more matrix) and its predictions (n_selected * d_y, at
    most 8/20 of the matrix for mfcc); the complete rows are not copied when
    every row is complete. Copying them first peaked at 3.14 times the
    matrix."""
    evaluate_session(_aligned_session(tmp_path, 20.0), protocol="in_sample")
    table = _aligned_session(tmp_path, 300.0)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        cells = evaluate_session(table, protocol="in_sample")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    largest = max(
        ev.n_frames * (len(ev.fit.feature_names) + len(ev.fit.target_names)) * 8
        for ev in cells.values()
    )
    assert largest > 2**20
    assert peak < 2.5 * largest, f"peak {peak / 2**20:.2f} MiB, matrix {largest / 2**20:.2f} MiB"
