"""The front ends, the resampler and the table writer work in fixed blocks.

The speech extractors take analysis frames, the marker kinematics frames of
markers, resample_linear frames of its target grid, write_table rows and
load_wav frames a block at a time, and `align` streams a marker CSV into
its activeness. Blocking must change neither the values (every row keeps
its arithmetic) nor let memory grow with the clip beyond the per-frame
outputs and the clip at its stored width.
"""

import tracemalloc

import numpy as np
import pytest

from speechmotion import cli, frames, ingest, motion, timeline
from speechmotion import speech_features as sf
from speechmotion.frames import FeatureTrack, FrameGrid
from speechmotion.ingest import AudioClip


def fm_clip(duration_s: float, sr: int, seed: int = 0) -> AudioClip:
    """150 +/- 30 Hz FM tone in noise after half a second of silence."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration_s * sr)) / sr
    phase = 2 * np.pi * (150 * t + 30 / (2 * np.pi * 0.5) * np.sin(2 * np.pi * 0.5 * t))
    x = 0.5 * np.sin(phase) + 0.05 * rng.standard_normal(t.size)
    x[: sr // 2] = 0.0
    return AudioClip(np.clip(x, -1.0, 1.0), sr)


EXTRACTORS = {"f0": sf.f0_contour, "rms": sf.rms_energy, "mfcc": sf.mfcc}


@pytest.mark.parametrize(
    "chunk, names",
    [
        (255, ("f0", "rms", "mfcc")),
        # f0 and RMS hold no matrix product, so even tiny blocks keep their
        # bits. MFCC blocks must stay large: for small products BLAS takes
        # another kernel that rounds differently (OpenBLAS 0.3.31 on an
        # AVX-512 Xeon does so below 47 rows; the size depends on the build
        # and CPU), which is why every block _frame_blocks yields has
        # CHUNK_FRAMES rows.
        (7, ("f0", "rms")),
        (384, ("f0", "rms", "mfcc")),
    ],
)
def test_small_chunks_give_bitwise_equal_tracks(monkeypatch, chunk, names):
    # 2060 frames: 12 past a multiple of the default chunk (256), 20 past
    # one of 255 and 140 past one of 384, so a short tail block would show
    clip = fm_clip(17.1875, 8000)
    n = sf.feature_grid(clip).n_frames
    assert n > sf.CHUNK_FRAMES and n % sf.CHUNK_FRAMES and n % chunk
    default = {k: EXTRACTORS[k](clip).values for k in names}
    monkeypatch.setattr(sf, "CHUNK_FRAMES", chunk)
    small = {k: EXTRACTORS[k](clip).values for k in names}
    monkeypatch.setattr(sf, "CHUNK_FRAMES", n)  # one block: the unblocked computation
    whole = {k: EXTRACTORS[k](clip).values for k in names}
    for k in names:
        assert np.array_equal(default[k], whole[k]), k
        assert np.array_equal(small[k], whole[k]), k


def traced_peak_bytes(fn, clip) -> int:
    tracemalloc.start()
    try:
        fn(clip)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_front_end_peak_memory_does_not_grow_with_clip_length():
    short, long = fm_clip(30.0, 16000), fm_clip(120.0, 16000)

    def peak(clip):
        return traced_peak_bytes(sf.f0_contour, clip) + traced_peak_bytes(sf.mfcc, clip)

    extra_rows = sf.feature_grid(long).n_frames - sf.feature_grid(short).n_frames
    # per extra frame: the 1 + 12 output columns, held once (FeatureTrack
    # adopts the array), and up to four int64/float64 frame-start arrays in
    # each of the two calls
    per_frame = (1 + 12) * 8 + 2 * 4 * 8
    allowance = 1 << 20
    growth = peak(long) - peak(short)
    assert growth <= extra_rows * per_frame + allowance, (growth, extra_rows)


def marker_track(duration_s: float, n_markers: int = 24, seed: int = 0) -> FeatureTrack:
    """Random-walk markers at 120 Hz with 1 % dropouts."""
    rng = np.random.default_rng(seed)
    n = int(duration_s * 120)
    pos = np.cumsum(rng.standard_normal((n, n_markers, 3)), axis=0)
    pos[rng.random((n, n_markers)) < 0.01] = np.nan
    columns = tuple(f"M{i}_{axis}" for i in range(n_markers) for axis in "xyz")
    return FeatureTrack(FrameGrid(120.0, 0.0, n), columns, pos.reshape(n, 3 * n_markers))


def test_marker_kinematics_peak_memory_does_not_grow_with_track_length():
    short, long = marker_track(30.0), marker_track(120.0)
    names = motion.marker_names(short.columns)
    regions = {"a": names[:8], "b": names[8:], "c": names}

    def peak(markers):
        return traced_peak_bytes(
            lambda m: motion.region_activeness(motion.displacement_magnitudes(m), regions),
            markers,
        )

    extra_rows = long.n_frames - short.n_frames
    # per extra frame: the displacement and activeness columns, held once
    # (FeatureTrack adopts each array)
    per_frame = (len(names) + len(regions)) * 8
    # the longer track's blocks may hold more rows than the shorter's one
    # block: at most one block of differences and their per-marker sums
    allowance = motion.ROW_BLOCK * len(names) * (3 + 1) * 8
    growth = peak(long) - peak(short)
    assert growth <= extra_rows * per_frame + allowance, (growth, extra_rows)


def test_align_marker_path_peak_memory_does_not_grow_with_track_length(tmp_path):
    # `align`'s marker step on a CSV of 24 markers: its positions may not be
    # held, only the time column and the activeness
    names = [f"M{i}" for i in range(24)]
    regions = motion.RegionMap({
        "head": names[0:2], "eyebrows": names[2:4], "upper_face": names[2:6],
        "mouth": names[6:8], "lower_face": names[6:10], "middle_face": names[10:14],
        "total_face": names[2:14], "hands": names[14:20],
    })
    regions.to_json(tmp_path / "regions.json")
    config = cli.Config({}, tmp_path)

    def peak(duration_s):
        path = tmp_path / f"markers{duration_s:g}.csv"
        frames.write_feature_csv(marker_track(duration_s), path)
        session = {"id": "s", "markers": path.name, "region_map": "regions.json"}
        return traced_peak_bytes(lambda s: cli._native_activeness(config, s), session)

    extra_rows = int(120.0 * 120) - int(30.0 * 120)
    # per extra frame: the time column and the 8 activeness columns
    per_frame = (1 + len(regions.names())) * 8
    # the longer track's batches may hold more rows than the shorter's one:
    # at most one block of marker positions
    allowance = motion.ROW_BLOCK * 3 * len(names) * 8
    growth = peak(120.0) - peak(30.0)
    assert growth <= extra_rows * per_frame + allowance, (growth, extra_rows)


def test_load_wav_keeps_one_channel_at_its_stored_width(tmp_path):
    n = 16000 * 20
    frames = np.random.default_rng(2).integers(-32768, 32768, (n, 2)).astype("<i2")
    p = tmp_path / "long.wav"
    ingest.write_wav(p, AudioClip(frames / 32768.0, 16000))
    del frames
    file_bytes = p.stat().st_size
    tracemalloc.start()
    try:
        clip = ingest.load_wav(p, channel="right")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert clip.n_samples == n
    # the kept channel, one block of the file, and 16 KiB for the open file's
    # own buffer and the header's small objects
    assert peak <= 2 * n + ingest.WAV_BLOCK_BYTES + (16 << 10), (peak, file_bytes)


def dropout_track(n_frames: int, n_columns: int = 5, seed: int = 0) -> FeatureTrack:
    """Random columns at 120 Hz with 5 % NaN dropouts, some of them runs."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((n_frames, n_columns))
    values[rng.random(values.shape) < 0.05] = np.nan
    values[n_frames // 3 : n_frames // 3 + 7, 0] = np.nan
    names = tuple(f"c{j}" for j in range(n_columns))
    return FeatureTrack(FrameGrid(120.0, 0.25, n_frames), names, values)


def whole_grid_resample(track: FeatureTrack, target: FrameGrid) -> np.ndarray:
    """resample_linear's formula over the whole target grid at once."""
    src_t, tgt_t = track.grid.timestamps(), target.timestamps()
    idx = np.clip(np.searchsorted(src_t, tgt_t, side="right") - 1, 0, track.n_frames - 2)
    w = np.clip((tgt_t - src_t[idx]) / (src_t[idx + 1] - src_t[idx]), 0.0, 1.0)[:, None]
    left, right = track.values[idx], track.values[idx + 1]
    nan_left, nan_right = np.isnan(left), np.isnan(right)
    out = (1.0 - w) * np.where(nan_left, 0.0, left) + w * np.where(nan_right, 0.0, right)
    out[(w < 1.0) & nan_left] = np.nan
    out[(w > 0.0) & nan_right] = np.nan
    return out


BLOCK = timeline.ROW_BLOCK


@pytest.mark.parametrize("n_target", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
def test_blocked_resample_equals_the_whole_grid_bit_for_bit(n_target):
    # the 120 Hz source starts 0.15 s after the 60.24 Hz target and spans
    # about half of it, so both edges clamp and the rest interpolates
    track = dropout_track(n_target + 2)
    target = FrameGrid(60.24, 0.1, n_target)
    got = timeline.resample_linear(track, target).values
    assert got.tobytes() == whole_grid_resample(track, target).tobytes()


def test_resample_peak_memory_does_not_grow_with_grid_length():
    short, long = dropout_track(30 * 120), dropout_track(120 * 120)

    def peak(track):
        return traced_peak_bytes(
            lambda t: timeline.resample_linear(t, FrameGrid(60.24, 0.0, t.n_frames // 2)), track
        )

    extra_rows = long.n_frames // 2 - short.n_frames // 2
    columns = long.values.shape[1]
    # per extra target frame: the output columns, held once, and the target's
    # timestamps and the source's, at twice the rate
    per_frame = columns * 8 + 8 + 2 * 8
    # the longer grid's blocks may hold more rows than the shorter's one
    # block: at most one block of index, weight and value temporaries
    allowance = timeline.ROW_BLOCK * (4 * 8 + 10 * columns * 8)
    growth = peak(long) - peak(short)
    assert growth <= extra_rows * per_frame + allowance, (growth, extra_rows)


def test_write_table_peak_memory_does_not_grow_with_rows(tmp_path):
    def peak(n_rows):
        track = dropout_track(n_rows, n_columns=18)
        return traced_peak_bytes(
            lambda t: frames.write_feature_csv(t, tmp_path / "t.csv"), track
        )

    # the table's timestamps are made once for the whole table; the text of
    # one block is all the writer holds beyond them
    extra_rows = 120 * 120 - 30 * 120
    growth = peak(120 * 120) - peak(30 * 120)
    assert growth <= extra_rows * 8 + (64 << 10), growth
