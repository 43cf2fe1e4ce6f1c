import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion.errors import (
    EmptyTrackError,
    NoTemporalOverlapError,
    RateMismatchError,
    UnknownSpeakerWarning,
)
from speechmotion.frames import FeatureTrack, FrameGrid, grid_over_span
from speechmotion.ingest import Interval, SpeechIntervals
from speechmotion.timeline import (
    SessionTable,
    align_session,
    decimate_alternate,
    rasterize_intervals,
    read_session_csv,
    resample_linear,
    resample_nearest,
    write_session_csv,
)
from test_frames import _negative_nan


def track(values, rate=120.0, start=0.0, columns=("x",)):
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return FeatureTrack(FrameGrid(rate, start, n), columns, values)


class TestResampleLinear:
    def test_constant(self):
        out = resample_linear(track(np.full(100, 2.5)), FrameGrid(60.24, 0.1, 40))
        assert np.allclose(out.values, 2.5, atol=0)

    def test_ramp_exact(self):
        src = track(np.arange(120.0) / 120.0)  # value equals its timestamp
        tgt = FrameGrid(60.24, 0.0, 50)
        out = resample_linear(src, tgt)
        assert np.allclose(out.column("x"), tgt.timestamps(), atol=1e-12)

    def test_sine_error_at_linear_optimum(self):
        # closed-form oracle; the bound is the worst-case midpoint error of
        # linear interpolation for a 5 Hz unit sine sampled at 120 Hz
        g = FrameGrid(120.0, 0.0, 1200)
        src = track(np.sin(2 * np.pi * 5.0 * g.timestamps()))
        tgt = grid_over_span(60.24, 0.0, g.end_s)
        out = resample_linear(src, tgt)
        err = np.abs(out.column("x") - np.sin(2 * np.pi * 5.0 * tgt.timestamps()))
        bound = (2 * np.pi * 5.0 / 120.0) ** 2 / 8.0
        assert err.max() < bound

    def test_idempotent_on_own_grid(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(50)
        vals[7] = np.nan
        src = track(vals, rate=60.24, start=1.25)
        out = resample_linear(src, src.grid)
        assert np.array_equal(np.isnan(out.values), np.isnan(src.values))
        finite = np.isfinite(vals)
        assert np.array_equal(out.values[finite], src.values[finite])

    def test_clamps_outside_span(self):
        src = track([1.0, 2.0], rate=1.0)
        out = resample_linear(src, FrameGrid(1.0, -2.0, 6))
        assert np.allclose(out.column("x"), [1, 1, 1, 2, 2, 2])

    def test_dropout_propagates_with_weight(self):
        src = track([0.0, np.nan, 2.0, 3.0], rate=1.0)
        tgt = FrameGrid(2.0, 0.0, 7)
        out = resample_linear(src, tgt).column("x")
        # targets at 0, .5, 1, 1.5, 2, 2.5, 3: anything touching frame 1 is NaN
        assert out[0] == 0.0
        assert np.isnan(out[1]) and np.isnan(out[2]) and np.isnan(out[3])
        assert out[4] == 2.0 and out[5] == 2.5 and out[6] == 3.0

    def test_needs_two_frames(self):
        with pytest.raises(EmptyTrackError):
            resample_linear(track([1.0]), FrameGrid(1.0, 0.0, 1))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_monotone_preserved(self, seed):
        rng = np.random.default_rng(seed)
        vals = np.cumsum(rng.uniform(0, 1, 40))
        src = track(vals, rate=120.0)
        tgt = grid_over_span(60.24, 0.0, src.grid.end_s)
        out = resample_linear(src, tgt).column("x")
        assert np.all(np.diff(out) >= -1e-12)


class TestDecimateAlternate:
    def test_keeps_even_indices(self):
        out = decimate_alternate(track(np.arange(10.0)))
        assert np.array_equal(out.column("x"), [0, 2, 4, 6, 8])
        assert out.grid.rate_hz == 60.0

    def test_aliasing_documented(self):
        out = decimate_alternate(track(np.tile([0.0, 1.0], 5)))
        assert np.all(out.column("x") == 0.0)

    def test_timestamps_exact(self):
        src = track(np.arange(11.0), start=2.0)
        out = decimate_alternate(src)
        assert np.array_equal(out.grid.timestamps(), src.grid.timestamps()[::2])

    def test_rate_mismatch(self):
        with pytest.raises(RateMismatchError):
            decimate_alternate(track(np.zeros(10), rate=100.0))


class TestRasterize:
    def test_spec_example(self):
        # brute-force oracle worked by hand: F [0,2), M [1,3), 10 Hz grid
        iv = SpeechIntervals((Interval(0.0, 2.0, "F"), Interval(1.0, 3.0, "M")))
        grid = FrameGrid(10.0, 0.0, 30)
        labels = rasterize_intervals(iv, "F", grid)
        t = grid.timestamps()
        assert np.array_equal(labels.column("speaking"), (t < 2.0).astype(float))
        assert np.array_equal(
            labels.column("overlap"), ((t >= 1.0) & (t < 2.0)).astype(float)
        )

    def test_no_intervals_warns_all_zero(self):
        iv = SpeechIntervals((Interval(0.0, 1.0, "M"),))
        with pytest.warns(UnknownSpeakerWarning):
            labels = rasterize_intervals(iv, "F", FrameGrid(10.0, 0.0, 20))
        assert np.all(labels.values == 0.0)

    def test_half_open_end(self):
        iv = SpeechIntervals((Interval(0.0, 1.0, "F"),))
        labels = rasterize_intervals(iv, "F", FrameGrid(1.0, 0.0, 3))
        assert np.array_equal(labels.column("speaking"), [1.0, 0.0, 0.0])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        speakers = ["F", "M", "X"]
        entries = []
        t0 = 0.0
        for _ in range(300):
            start = t0 + rng.uniform(0.0, 0.05)
            end = start + rng.uniform(0.01, 0.4)
            entries.append(Interval(start, end, speakers[rng.integers(0, 3)]))
            t0 = start
        iv_entries = []
        last_end = {}
        for e in sorted(entries, key=lambda e: e.start_s):
            if e.speaker in last_end and e.start_s < last_end[e.speaker]:
                continue
            last_end[e.speaker] = e.end_s
            iv_entries.append(e)
        iv = SpeechIntervals(tuple(iv_entries))
        grid = FrameGrid(60.24, 0.0, 800)
        labels = rasterize_intervals(iv, "F", grid)
        t = grid.timestamps()
        own = [e for e in iv.entries if e.speaker == "F"]
        other = [e for e in iv.entries if e.speaker != "F"]
        speak = np.array(
            [any(e.start_s <= ti < e.end_s for e in own) for ti in t], dtype=float
        )
        over = speak * np.array(
            [any(e.start_s <= ti < e.end_s for e in other) for ti in t], dtype=float
        )
        assert np.array_equal(labels.column("speaking"), speak)
        assert np.array_equal(labels.column("overlap"), over)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_overlap_implies_speaking(self, seed):
        rng = np.random.default_rng(seed)
        entries = []
        t0 = 0.0
        for spk in ("F", "M") * 5:
            start = t0 + rng.uniform(0, 0.2)
            end = start + rng.uniform(0.05, 0.5)
            entries.append(Interval(start, end, spk))
            t0 = end
        iv = SpeechIntervals(tuple(sorted(entries, key=lambda e: e.start_s)))
        labels = rasterize_intervals(iv, "F", FrameGrid(60.24, 0.0, 400))
        assert np.all(labels.column("speaking")[labels.column("overlap") == 1.0] == 1.0)


def make_session_inputs(duration=5.0):
    rng = np.random.default_rng(9)
    n120 = int(duration * 120)
    g120 = FrameGrid(120.0, 0.0, n120)
    speech = FeatureTrack(g120, ("a", "b"), rng.standard_normal((n120, 2)))
    n10 = int(duration * 10)
    g10 = FrameGrid(10.0, 0.0, n10)
    emotion = FeatureTrack(
        g10,
        ("arousal", "valence", "category"),
        np.column_stack(
            [
                np.tanh(rng.standard_normal(n10)),
                np.tanh(rng.standard_normal(n10)),
                rng.integers(0, 4, n10).astype(float),
            ]
        ),
    )
    activeness = FeatureTrack(g120, ("regionA",), np.abs(rng.standard_normal(n120)))
    intervals = SpeechIntervals(
        (Interval(0.0, 2.0, "F"), Interval(1.5, 3.5, "M"), Interval(3.0, duration, "F"))
    )
    return speech, emotion, activeness, intervals


class TestAlignSession:
    def test_grid_arithmetic_example(self):
        # spans [4, 64] -> 60.24 Hz grid with floor(60 * 60.24) + 1 frames
        g = FrameGrid(120.0, 4.0, 60 * 120 + 1)  # covers [4, 64]
        rng = np.random.default_rng(1)
        speech = FeatureTrack(g, ("s",), rng.standard_normal(g.n_frames))
        emotion = FeatureTrack(
            FrameGrid(10.0, 4.0, 601),
            ("arousal", "valence", "category"),
            np.zeros((601, 3)),
        )
        act = FeatureTrack(g, ("r",), np.zeros(g.n_frames))
        iv = SpeechIntervals((Interval(4.0, 64.0, "F"),))
        table = align_session(speech, emotion, act, iv, "F")
        assert table.grid.start_s == 4.0
        assert table.grid.n_frames == int(np.floor(60 * 60.24)) + 1 == 3615

    def test_identical_grid_passthrough(self):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(
            speech, emotion, activeness, intervals, "F", target_rate_hz=120.0
        )
        n = table.grid.n_frames
        assert np.allclose(table.block("speech").values, speech.values[:n], atol=1e-9)
        assert np.allclose(
            table.block("activeness").values, activeness.values[:n], atol=1e-9
        )

    def test_disjoint_spans(self):
        speech, emotion, activeness, intervals = make_session_inputs()
        late = FeatureTrack(
            FrameGrid(10.0, 100.0, 50), emotion.columns, emotion.values[:50]
        )
        with pytest.raises(NoTemporalOverlapError):
            align_session(speech, late, activeness, intervals, "F")

    def test_session_rate_and_blocks(self):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(speech, emotion, activeness, intervals, "F")
        assert table.grid.rate_hz == 60.24
        assert set(table.blocks) == {"speech", "emotion", "activeness", "labels"}
        assert set(np.unique(table.block("labels").values)) <= {0.0, 1.0}

    def test_never_extrapolates(self):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(speech, emotion, activeness, intervals, "F")
        t = table.grid.timestamps()
        for src in (speech, emotion, activeness):
            assert t[0] >= src.grid.start_s - 1e-12
            assert t[-1] <= src.grid.end_s + 1e-12

    def test_category_nearest_neighbor(self):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(speech, emotion, activeness, intervals, "F")
        cats = table.column("emotion", "category")
        assert np.isin(cats, [0.0, 1.0, 2.0, 3.0]).all()
        # every aligned category matches the nearest source frame's value
        rel = (table.grid.timestamps() - emotion.grid.start_s) * emotion.grid.rate_hz
        idx = np.clip(np.round(rel).astype(int), 0, emotion.n_frames - 1)
        assert np.array_equal(cats, emotion.column("category")[idx])


class TestResampleNearest:
    def test_picks_nearest(self):
        src = track([0.0, 1.0, 2.0, 3.0], rate=1.0)
        out = resample_nearest(src, FrameGrid(2.0, 0.0, 7))
        assert np.array_equal(out.column("x"), [0, 0, 1, 2, 2, 2, 3])


class TestSessionCsv:
    def test_round_trip(self, tmp_path):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(speech, emotion, activeness, intervals, "F")
        write_session_csv(table, tmp_path / "s.csv", tmp_path / "s.meta.json")
        back = read_session_csv(tmp_path / "s.csv", tmp_path / "s.meta.json")
        assert back.grid == table.grid
        assert set(back.blocks) == set(table.blocks)
        for name in table.blocks:
            a, b = table.block(name).values, back.block(name).values
            assert np.array_equal(np.isnan(a), np.isnan(b))
            assert np.array_equal(a[np.isfinite(a)], b[np.isfinite(b)])


    def test_memo_hit_returns_the_bits_a_parse_returns(self, tmp_path, parses):
        speech, emotion, activeness, intervals = make_session_inputs()
        table = align_session(speech, emotion, activeness, intervals, "F")
        block = table.block("speech")
        values = block.values.copy()
        values[3, 0], values[::7, 1], values[4, 1] = _negative_nan(), np.nan, -0.0
        table = SessionTable(
            table.grid, {**table.blocks, "speech": FeatureTrack(table.grid, block.columns, values)}
        )
        csv_path, meta_path = tmp_path / "aligned.csv", tmp_path / "aligned.meta.json"
        write_session_csv(table, csv_path, meta_path)
        hit = read_session_csv(csv_path, meta_path)
        assert parses == []
        (tmp_path / "aligned.csv.memo").unlink()
        parsed = read_session_csv(csv_path, meta_path)
        assert parses == ["aligned.csv"]
        assert hit.grid == parsed.grid and list(hit.blocks) == list(parsed.blocks)
        for name, track in hit.blocks.items():
            assert track.columns == parsed.block(name).columns
            assert track.values.tobytes() == parsed.block(name).values.tobytes()
        assert np.signbit(hit.block("speech").values[4, 1])


def test_session_table_rejects_mixed_grids():
    g1 = FrameGrid(10.0, 0.0, 5)
    g2 = FrameGrid(10.0, 0.0, 6)
    with pytest.raises(ValueError):
        SessionTable(
            g1,
            {
                "a": FeatureTrack(g1, ("x",), np.zeros(5)),
                "b": FeatureTrack(g2, ("x",), np.zeros(6)),
            },
        )


def test_session_table_rejects_non_binary_labels():
    g = FrameGrid(10.0, 0.0, 3)
    with pytest.raises(ValueError):
        SessionTable(g, {"labels": FeatureTrack(g, ("speaking", "overlap"), np.full((3, 2), 0.5))})
