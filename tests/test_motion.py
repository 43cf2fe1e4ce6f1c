import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion.errors import (
    InconsistentMarkerSetError, TooFewFramesError, UnknownMarkerInMapError, ValidationError,
)
from speechmotion.frames import FeatureTrack, FrameGrid
from speechmotion.ingest import Interval, SpeechIntervals
from speechmotion.motion import (
    CATEGORY_NAMES,
    RegionMap,
    condition_summaries,
    default_region_map,
    displacement_magnitudes,
    marker_names,
    read_summary_csv,
    region_activeness,
    sem_of,
    write_summary_csv,
)
from speechmotion.timeline import SessionTable, rasterize_intervals


def marker_track(positions, markers=None, rate=120.0):
    positions = np.asarray(positions, dtype=float)
    n, m, _ = positions.shape
    markers = markers or tuple(f"M{i}" for i in range(m))
    columns = tuple(f"{name}_{axis}" for name in markers for axis in "xyz")
    return FeatureTrack(FrameGrid(rate, 0.0, n), columns, positions.reshape(n, 3 * m))


class TestDisplacement:
    def test_static_marker_zero(self):
        track = marker_track(np.tile([[1.0, 2.0, 3.0]], (10, 1, 1)))
        out = displacement_magnitudes(track)
        assert np.all(out.values == 0.0)

    def test_norm_oracle(self):
        # marker moving (1,2,2) mm per frame -> magnitude exactly 3
        steps = np.tile([[1.0, 2.0, 2.0]], (8, 1))
        pos = np.cumsum(np.vstack([[0.0, 0.0, 0.0], steps]), axis=0)[:, None, :]
        out = displacement_magnitudes(marker_track(pos))
        assert out.values[0, 0] == 0.0
        assert np.allclose(out.values[1:, 0], 3.0, atol=1e-12)

    def test_dropout_propagates_to_two_frames(self):
        pos = np.zeros((6, 1, 3))
        pos[3, 0, 1] = np.nan
        out = displacement_magnitudes(marker_track(pos)).column("M0")
        assert np.isnan(out[3]) and np.isnan(out[4])
        assert np.isfinite(out[[0, 1, 2, 5]]).all()

    def test_too_few_frames(self):
        with pytest.raises(TooFewFramesError):
            displacement_magnitudes(marker_track(np.zeros((1, 1, 3))))

    def test_constant_offset_invariance(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(-50, 50, (20, 2, 3))
        a = displacement_magnitudes(marker_track(pos)).values
        b = displacement_magnitudes(marker_track(pos + 17.0)).values
        assert np.allclose(a, b, atol=1e-9)

    def test_drift_adds_norm_to_static_marker(self):
        drift = np.array([0.6, 0.0, 0.8])  # |d| = 1
        pos = np.cumsum(np.tile(drift, (12, 1)), axis=0)[:, None, :]
        out = displacement_magnitudes(marker_track(pos))
        assert np.allclose(out.values[1:], 1.0, atol=1e-12)

    def test_spatial_scaling_linear(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(-10, 10, (15, 2, 3))
        a = displacement_magnitudes(marker_track(pos)).values
        b = displacement_magnitudes(marker_track(2.5 * pos)).values
        assert np.allclose(b, 2.5 * a, atol=1e-9)


    @pytest.mark.parametrize("columns", [
        ("M0_x", "M0_y"),
        ("M0_x", "M0_z", "M0_y"),
        ("M0_x", "M1_y", "M1_z"),
        ("M0_x", "M0_y", "M0_z", "a", "b", "c"),
    ], ids=["not_triples", "axes_out_of_order", "mixed_markers", "not_coordinates"])
    def test_columns_that_are_not_coordinate_triples_are_rejected(self, columns):
        with pytest.raises(InconsistentMarkerSetError, match="triples|expected <marker>_x"):
            marker_names(columns)
        track = FeatureTrack(FrameGrid(120.0, 0.0, 3), columns, np.zeros((3, len(columns))))
        with pytest.raises(InconsistentMarkerSetError):
            displacement_magnitudes(track)

    def test_repeated_marker_names_are_rejected(self):
        # a track cannot repeat a column, but a marker file's header can
        with pytest.raises(InconsistentMarkerSetError, match="duplicate marker names"):
            marker_names(("M0_x", "M0_y", "M0_z") * 2)

    def test_marker_names_are_the_triples_bases(self):
        columns = ("LBM0_x", "LBM0_y", "LBM0_z", "RH_1_x", "RH_1_y", "RH_1_z")
        assert marker_names(columns) == ("LBM0", "RH_1")
        track = marker_track(np.zeros((3, 2, 3)), markers=("LBM0", "RH_1"))
        assert displacement_magnitudes(track).columns == ("LBM0", "RH_1")


class TestRegionActiveness:
    def displacement_fixture(self):
        g = FrameGrid(120.0, 0.0, 4)
        vals = np.array(
            [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0], [np.nan, 4.0, 6.0], [np.nan, np.nan, np.nan]]
        )
        return FeatureTrack(g, ("A", "B", "C"), vals)

    def test_region_mean(self):
        out = region_activeness(self.displacement_fixture(), {"pair": ("A", "B")})
        assert out.column("pair")[0] == 2.0

    def test_dropout_aware_mean(self):
        out = region_activeness(self.displacement_fixture(), {"pair": ("A", "B")})
        assert out.column("pair")[2] == 4.0  # only B contributes
        assert math.isnan(out.column("pair")[3])

    def test_singleton_equals_marker(self):
        disp = self.displacement_fixture()
        out = region_activeness(disp, {"only_b": ("B",)})
        b = disp.column("B")
        finite = np.isfinite(b)
        assert np.array_equal(out.column("only_b")[finite], b[finite])

    def test_total_face_weighted_mean_oracle(self):
        # reconstruct the pooled mean from subregion means and counts
        rng = np.random.default_rng(2)
        g = FrameGrid(120.0, 0.0, 30)
        markers = tuple(f"m{i}" for i in range(9))
        disp = FeatureTrack(g, markers, rng.uniform(0, 2, (30, 9)))
        regions = {
            "upper": markers[:2],
            "middle": markers[2:5],
            "lower": markers[5:],
            "total": markers,
        }
        out = region_activeness(disp, regions)
        pooled = (
            2 * out.column("upper") + 3 * out.column("middle") + 4 * out.column("lower")
        ) / 9.0
        assert np.allclose(out.column("total"), pooled, atol=1e-12)

    def test_unknown_marker(self):
        with pytest.raises(UnknownMarkerInMapError):
            region_activeness(self.displacement_fixture(), {"bad": ("A", "ZZ")})

    def test_a_marker_listed_twice_is_rejected(self):
        # counted twice, A (1.0 mm) and B (3.0 mm) would read 1.667 mm, not 2.0
        with pytest.raises(ValidationError, match="region 'pair' lists marker 'A' more than once"):
            region_activeness(self.displacement_fixture(), {"pair": ("A", "B", "A")})


class TestDefaultRegionMap:
    def test_required_regions_and_sizes(self):
        rmap = default_region_map()
        assert len(rmap["upper_face"]) == 21
        assert len(rmap["middle_face"]) == 18
        assert len(rmap["lower_face"]) == 13
        assert len(rmap["total_face"]) == 52
        assert len(rmap["eyebrows"]) == 16
        assert len(rmap["mouth"]) == 8
        assert rmap["head"] == ("LHD", "RHD")
        assert len(rmap["hands"]) == 6

    def test_every_region_lists_its_markers_in_order(self):
        # the order is the summation order of each region's mean displacement
        upper = (
            "FH1", "FH2", "FH3",
            "LBM0", "LBM1", "LBM2", "LBM3", "RBM0", "RBM1", "RBM2", "RBM3",
            "LBRO1", "LBRO2", "LBRO3", "LBRO4", "RBRO1", "RBRO2", "RBRO3", "RBRO4",
            "LLID", "RRID",
        )
        middle = (
            "LC2", "LC3", "LC4", "LC5", "LC6", "LC7", "LC8",
            "RC2", "RC3", "RC4", "RC5", "RC6", "RC7", "RC8",
            "MNOSE", "TNOSE", "LNSTRL", "RNSTRL",
        )
        lower = (
            "MOU1", "MOU2", "MOU3", "MOU4", "MOU5", "MOU6", "MOU7", "MOU8",
            "CH1", "CH2", "CH3", "LC1", "RC1",
        )
        assert list(default_region_map().regions.items()) == [
            ("head", ("LHD", "RHD")),
            ("eyebrows", upper[3:19]),
            ("mouth", lower[:8]),
            ("upper_face", upper),
            ("middle_face", middle),
            ("lower_face", lower),
            ("total_face", upper + middle + lower),
            ("hands", ("RH1", "RH2", "RH3", "LH1", "LH2", "LH3")),
        ]

    def test_structural_invariants_enforced(self):
        rmap = default_region_map()
        broken = dict(rmap.regions)
        broken["total_face"] = broken["total_face"][:-1]
        with pytest.raises(ValueError):
            RegionMap(broken)
        broken = dict(rmap.regions)
        broken["eyebrows"] = broken["eyebrows"] + ("MOU1",)
        with pytest.raises(ValueError):
            RegionMap(broken)
        broken = dict(rmap.regions)
        broken["head"] = ()
        with pytest.raises(ValueError, match=r"region\(s\) \['head'\] have no markers"):
            RegionMap(broken)
        broken = dict(rmap.regions)
        broken["mouth"] = broken["mouth"] + broken["mouth"][:1]
        with pytest.raises(ValueError, match="region 'mouth' lists marker 'MOU1' more than once"):
            RegionMap(broken)

    def test_json_round_trip(self, tmp_path):
        rmap = default_region_map()
        rmap.to_json(tmp_path / "map.json")
        back = RegionMap.from_json(tmp_path / "map.json")
        assert back.regions == rmap.regions


def make_table(activeness_value=None, n=100, rate=10.0):
    """Session table with known labels/categories for summary tests."""
    g = FrameGrid(rate, 0.0, n)
    rng = np.random.default_rng(3)
    act = activeness_value if activeness_value is not None else rng.uniform(0, 2, n)
    activeness = FeatureTrack(g, ("regionA",), np.asarray(act, dtype=float))
    # speaking on [0, 6), overlap on [2, 4)
    intervals = SpeechIntervals(
        (Interval(0.0, 6.0, "F"), Interval(2.0, 4.0, "M"))
    )
    labels = rasterize_intervals(intervals, "F", g)
    category = np.zeros(n)  # all Neutral
    emotion = FeatureTrack(
        g,
        ("arousal", "valence", "category"),
        np.column_stack([np.zeros(n), np.zeros(n), category]),
    )
    table = SessionTable(g, {"emotion": emotion, "activeness": activeness, "labels": labels})
    return table, activeness


class TestConditionSummaries:
    def test_constant_mean_sem(self):
        table, act = make_table(activeness_value=np.full(100, 1.5))
        [cells] = condition_summaries(table, min_frames=5)
        filled = [c for c in cells if c.n_frames > 0]
        assert filled
        for c in filled:
            assert c.mean == pytest.approx(1.5)
            assert c.sem == pytest.approx(0.0)

    def test_hand_computed_sem(self):
        # cell of two frames with values 1 and 3: mean 2, SEM sd/sqrt(2) = 1
        vals = np.zeros(100)
        vals[0], vals[1] = 1.0, 3.0
        table, act = make_table(activeness_value=vals)
        # restrict to the two-frame non-overlap window [0, 0.2)
        g = table.grid
        intervals = SpeechIntervals((Interval(0.0, 0.2, "F"),))
        labels = rasterize_intervals(intervals, "F", g)
        table2 = SessionTable(
            g, {"emotion": table.block("emotion"), "activeness": act, "labels": labels}
        )
        [cells] = condition_summaries(table2)
        cell = next(
            c for c in cells if c.emotion == "Neutral" and c.condition == "non_overlap"
        )
        assert cell.n_frames == 2
        assert cell.mean == pytest.approx(2.0)
        assert cell.sem == pytest.approx(1.0)
        assert cell.low_support  # 2 < 30

    def test_non_speaking_frames_excluded(self):
        table, act = make_table()
        [cells] = condition_summaries(table)
        # speaking covers [0,6) at 10 Hz = 60 frames; lose none to dropout
        assert sum(c.n_frames for c in cells) == 60

    def test_overlap_vs_non_overlap_split(self):
        table, act = make_table()
        cells = {
            (c.condition): c
            for c in condition_summaries(table)[0]
            if c.emotion == "Neutral"
        }
        assert cells["overlap"].n_frames == 20  # [2,4) at 10 Hz
        assert cells["non_overlap"].n_frames == 40

    def test_empty_cells_reported(self):
        table, act = make_table()
        [cells] = condition_summaries(table)
        angry = [c for c in cells if c.emotion == "Angry"]
        assert angry and all(c.n_frames == 0 and math.isnan(c.mean) for c in angry)

    def test_csv_round_trip(self, tmp_path):
        table, act = make_table()
        [cells] = condition_summaries(table)
        write_summary_csv(cells, tmp_path / "s.csv")
        back = read_summary_csv(tmp_path / "s.csv")
        assert len(back) == len(cells)
        for a, b in zip(cells, back):
            assert (a.region, a.emotion, a.condition, a.n_frames) == (
                b.region,
                b.emotion,
                b.condition,
                b.n_frames,
            )
            if not math.isnan(a.mean):
                assert a.mean == b.mean


def one_stratum_table(n: int) -> SessionTable:
    """Every frame speaking, Neutral and without overlap; activeness 0, 1, 2, ..."""
    g = FrameGrid(10.0, 1.0, n)
    return SessionTable(g, {
        "emotion": FeatureTrack(g, ("arousal", "valence", "category"), np.zeros((n, 3))),
        "activeness": FeatureTrack(g, ("regionA",), np.arange(float(n))),
        "labels": FeatureTrack(g, ("speaking", "overlap"),
                               np.column_stack([np.ones(n), np.zeros(n)])),
    })


class TestRuns:
    @pytest.mark.parametrize("n, segment_s, lengths", [
        (30, 0.9, [9, 9, 9, 3]), (30, 0.85, [9, 8, 9, 4]), (30, 0.75, [8, 7, 8, 7]),
        (5, 9.0, [5]), (30, None, [30]),
    ])
    def test_runs_of_segment_s_cover_the_table_in_order(self, n, segment_s, lengths):
        runs = condition_summaries(one_stratum_table(n), segment_s=segment_s)
        assert [[c.n_frames for c in cells] for cells in runs] == [
            [0, k] + [0] * 6 for k in lengths
        ]
        starts = np.cumsum([0] + lengths[:-1])
        assert [cells[1].mean for cells in runs] == [
            float(np.mean(np.arange(lo, lo + k, dtype=float))) for lo, k in zip(starts, lengths)
        ]

    @pytest.mark.parametrize("segment_s", [0.099, 1e-300, 0.7])
    def test_a_run_too_short_for_every_cell_is_rejected(self, segment_s):
        # 0.7 s is 7 frames at 10 Hz, one fewer than the 8 emotion x condition cells
        with pytest.raises(ValidationError, match="params.segment_s"):
            condition_summaries(one_stratum_table(10), segment_s=segment_s)


def masked_summaries(table: SessionTable, segment_s: float) -> list[list[tuple]]:
    """Each run's cells from one boolean mask per run and stratum, as
    (region, emotion, condition, mean, sem, n_frames) tuples, the floats
    as bytes so that NaN equals NaN."""
    run = (np.arange(table.grid.n_frames) / (segment_s * table.grid.rate_hz)).astype(int)
    speaking = table.column("labels", "speaking") == 1.0
    overlap = table.column("labels", "overlap") == 1.0
    category = table.column("emotion", "category")
    activeness = table.block("activeness")
    runs = []
    for k in range(run[-1] + 1):
        cells = []
        for region in activeness.columns:
            series = activeness.column(region)
            for code, emotion in enumerate(CATEGORY_NAMES):
                for condition, mask in (("overlap", overlap), ("non_overlap", ~overlap)):
                    vals = series[(run == k) & speaking & mask & (category == float(code))]
                    vals = vals[np.isfinite(vals)]
                    mean = float(np.mean(vals)) if len(vals) else math.nan
                    cells.append((region, emotion, condition, np.float64(mean).tobytes(),
                                  np.float64(sem_of(vals)).tobytes(), len(vals)))
        runs.append(cells)
    return runs


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), frames=st.floats(7.01, 500.0), seed=st.integers(0, 2**32 - 1))
def test_one_sorted_pass_matches_a_mask_per_cell_bit_for_bit(n, frames, seed):
    # NaN activeness, NaN and out-of-range categories and silent frames are
    # all excluded, exactly as a mask per run and stratum excludes them
    rng = np.random.default_rng(seed)
    g = FrameGrid(10.0, 0.0, n)
    act = rng.lognormal(size=(n, 3))
    act[rng.random((n, 3)) < 0.1] = np.nan
    category = rng.choice([0.0, 1.0, 2.0, 3.0, 4.0, -1.0, 1.5, np.nan], size=n,
                          p=[0.22, 0.22, 0.22, 0.22, 0.03, 0.03, 0.03, 0.03])
    table = SessionTable(g, {
        "emotion": FeatureTrack(g, ("arousal", "valence", "category"),
                                np.column_stack([np.zeros(n), np.zeros(n), category])),
        "activeness": FeatureTrack(g, ("a", "b", "c"), act),
        "labels": FeatureTrack(g, ("speaking", "overlap"),
                               (rng.random((n, 2)) < [0.7, 0.3]).astype(float)),
    })
    got = condition_summaries(table, segment_s=frames / 10.0)
    assert [
        [(c.region, c.emotion, c.condition, np.float64(c.mean).tobytes(),
          np.float64(c.sem).tobytes(), c.n_frames) for c in cells]
        for cells in got
    ] == masked_summaries(table, frames / 10.0)


