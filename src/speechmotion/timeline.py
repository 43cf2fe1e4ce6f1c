"""Resampling onto the common session grid and binary speaking/overlap labels.

The session rate defaults to 60.24 Hz. A speech stream at the 120 Hz native
rate is first halved by keeping every other frame, then linearly resampled
the rest of the way; emotion and activeness are interpolated from their own
rates, so every block shares one exact grid. Interval labels use
the half-open convention [start, end): a frame exactly at an interval's end
is outside it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyTrackError,
    MalformedRowError,
    NoTemporalOverlapError,
    OffGridTimeError,
    RateMismatchError,
    UnknownSpeakerWarning,
    ValidationError,
)
from .frames import (
    FeatureTrack,
    FrameGrid,
    check_fields,
    concat_columns,
    grid_over_span,
    read_feature_csv,
    read_json_object,
    read_rated_table,
    row_blocks,
    write_json,
    write_table,
)
from .ingest import EMOTION_COLUMNS, SpeechIntervals

SESSION_RATE_HZ = 60.24
NATIVE_RATE_HZ = 120.0
MIN_OVERLAP_S = 1.0  # least common time span that align_session accepts
ROW_BLOCK = 1024  # target frames that resample_linear interpolates at a time

LABEL_COLUMNS = ("speaking", "overlap")
BLOCK_NAMES = ("speech", "emotion", "activeness", "labels")  # the blocks of an aligned session


def resample_linear(track: FeatureTrack, target: FrameGrid) -> FeatureTrack:
    """Linear interpolation onto `target`; out-of-span frames clamp to the edge.

    A dropout in a bracketing source frame propagates whenever that frame has
    nonzero interpolation weight, so resampling a track onto its own grid is
    the identity even around dropouts. The output is filled ROW_BLOCK target
    frames at a time (see frames.row_blocks); every step is elementwise, so
    each value is computed as a whole-grid pass computes it.
    """
    if track.n_frames < 2:
        raise EmptyTrackError(
            f"need >= 2 source frames to interpolate, got {track.n_frames}"
        )
    src_t = track.grid.timestamps()
    tgt_t = target.timestamps()
    out = np.empty((target.n_frames, len(track.columns)))
    for lo, hi in row_blocks(0, target.n_frames, ROW_BLOCK):
        t = tgt_t[lo:hi]
        idx = np.clip(np.searchsorted(src_t, t, side="right") - 1, 0, track.n_frames - 2)
        t0, t1 = src_t[idx], src_t[idx + 1]
        w = np.clip((t - t0) / (t1 - t0), 0.0, 1.0)[:, None]
        left, right = track.values[idx], track.values[idx + 1]
        nan_left, nan_right = np.isnan(left), np.isnan(right)
        block = (1.0 - w) * np.where(nan_left, 0.0, left) + w * np.where(nan_right, 0.0, right)
        block[(w < 1.0) & nan_left] = np.nan
        block[(w > 0.0) & nan_right] = np.nan
        out[lo:hi] = block
    return FeatureTrack(target, track.columns, out)


def resample_nearest(track: FeatureTrack, target: FrameGrid) -> FeatureTrack:
    """Nearest-frame resampling, used for categorical columns."""
    if track.n_frames < 1:
        raise EmptyTrackError("cannot resample an empty track")
    rel = (target.timestamps() - track.grid.start_s) * track.grid.rate_hz
    idx = np.clip(np.round(rel).astype(np.int64), 0, track.n_frames - 1)
    return FeatureTrack(target, track.columns, track.values[idx])


def _near_native(rate_hz: float) -> bool:
    """Whether a rate is the ~120 Hz native rate, within 0.1%."""
    return abs(rate_hz - NATIVE_RATE_HZ) <= 0.001 * NATIVE_RATE_HZ


def decimate_alternate(track: FeatureTrack) -> FeatureTrack:
    """Keep even-indexed frames of a 120 Hz track, halving the rate to 60 Hz.

    Kept frames retain their timestamps exactly. Note the result is 60.0 Hz,
    not the 60.24 Hz session rate; a follow-up :func:`resample_linear` closes
    that gap.
    """
    rate = track.grid.rate_hz
    if not _near_native(rate):
        raise RateMismatchError(
            f"decimation expects a ~{NATIVE_RATE_HZ} Hz track, got {rate} Hz"
        )
    values = track.values[::2]
    grid = FrameGrid(
        rate_hz=rate / 2.0, start_s=track.grid.start_s, n_frames=values.shape[0]
    )
    return FeatureTrack(grid, track.columns, values)


def decimates(rate_hz: float, target_rate_hz: float) -> bool:
    """Whether a stream at `rate_hz` is first halved by :func:`decimate_alternate`.

    The every-other-frame rule applies when halving a ~120 Hz stream toward
    the session rate; a stream already at the target rate passes through.
    """
    return _near_native(rate_hz) and rate_hz / target_rate_hz >= 1.8


def _interval_mask(timestamps: np.ndarray, intervals) -> np.ndarray:
    mask = np.zeros(len(timestamps), dtype=bool)
    for e in intervals:
        i0 = np.searchsorted(timestamps, e.start_s, side="left")
        i1 = np.searchsorted(timestamps, e.end_s, side="left")
        mask[i0:i1] = True
    return mask


def rasterize_intervals(
    intervals: SpeechIntervals, target_speaker: str, grid: FrameGrid
) -> FeatureTrack:
    """Binary speaking/overlap labels for the target speaker on `grid`.

    speaking(i) = 1 iff frame i lies inside one of the target's intervals;
    overlap(i) = 1 iff additionally some other speaker is talking at frame i.
    """
    timestamps = grid.timestamps()
    own = intervals.for_speaker(target_speaker)
    if not own:
        warnings.warn(
            f"speaker {target_speaker!r} has no intervals; labels are all zero",
            UnknownSpeakerWarning,
            stacklevel=2,
        )
    speaking = _interval_mask(timestamps, own)
    others = [e for e in intervals.entries if e.speaker != target_speaker]
    overlap = speaking & _interval_mask(timestamps, others)
    values = np.column_stack([speaking, overlap]).astype(np.float64)
    return FeatureTrack(grid, LABEL_COLUMNS, values)


def _not_binary(labels: np.ndarray) -> np.ndarray:
    """Per row of label columns, whether a cell is other than 0 or 1."""
    return ~np.isin(labels, (0.0, 1.0)).all(axis=1)


@dataclass(frozen=True)
class SessionTable:
    """Named feature blocks sharing one frame grid; the merged session view.

    `provenance` records how :func:`align_session` made the blocks: each
    input's rate, each block's resampling rule and the target speaker.
    """

    grid: FrameGrid
    blocks: dict[str, FeatureTrack]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        blocks = dict(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for name, track in blocks.items():
            if track.grid != self.grid:
                raise ValueError(f"block {name!r} is not on the session grid")
        if "labels" in blocks and _not_binary(blocks["labels"].values).any():
            raise ValueError("label columns must be binary")

    def block(self, name: str) -> FeatureTrack:
        try:
            return self.blocks[name]
        except KeyError:
            raise KeyError(f"no block {name!r}; have {tuple(self.blocks)}") from None

    def column(self, block: str, name: str) -> np.ndarray:
        return self.block(block).column(name)


def align_session(
    speech: FeatureTrack,
    emotion: FeatureTrack,
    activeness: FeatureTrack,
    intervals: SpeechIntervals,
    target_speaker: str,
    target_rate_hz: float = SESSION_RATE_HZ,
) -> SessionTable:
    """Merge all modalities onto one grid covering their common time span.

    Resampling rules: speech decimates 120 -> 60 Hz then interpolates to the
    session rate; emotion interpolates arousal/valence and takes the nearest
    frame for the category; activeness interpolates from its native rate;
    labels are rasterized directly on the session grid; the table's
    provenance names the rule each block took. The output grid never
    extends past any input's span, and that common span must be at least
    MIN_OVERLAP_S long. A target rate above the fastest input rate raises
    :class:`ValidationError` before any session-grid array is made: such a
    grid only interpolates, and its size has no bound.
    """
    rates = {
        name: track.grid.rate_hz
        for name, track in (("speech", speech), ("emotion", emotion), ("activeness", activeness))
    }
    if target_rate_hz > max(rates.values()):
        raise ValidationError(
            f"params.target_rate_hz {target_rate_hz!r} Hz is above the fastest input rate: "
            + ", ".join(f"{name} {rate!r} Hz" for name, rate in rates.items())
        )
    spans = [
        (t.grid.start_s, t.grid.end_s) for t in (speech, emotion, activeness)
    ]
    start = max(s for s, _ in spans)
    end = min(e for _, e in spans)
    if end - start < MIN_OVERLAP_S:
        raise NoTemporalOverlapError(
            f"inputs share only [{start:.3f}, {end:.3f}] s "
            f"(< {MIN_OVERLAP_S} s of common coverage)"
        )
    grid = grid_over_span(target_rate_hz, start, end)
    decimated = decimates(speech.grid.rate_hz, target_rate_hz)
    provenance = {
        **{f"{name}_rate_hz": rate for name, rate in rates.items()},
        "speech_rule": "decimate_alternate+linear" if decimated else "linear",
        "emotion_rule": "linear+nearest_category",
        "activeness_rule": "linear",
        "target_speaker": target_speaker,
    }

    speech_block = resample_linear(decimate_alternate(speech) if decimated else speech, grid)
    continuous = [c for c in emotion.columns if c != "category"]
    parts = [resample_linear(emotion.select(continuous), grid)]
    if "category" in emotion.columns:
        parts.append(resample_nearest(emotion.select(["category"]), grid))
    blocks = {
        "speech": speech_block,
        "emotion": concat_columns(*parts),
        "activeness": resample_linear(activeness, grid),
        "labels": rasterize_intervals(intervals, target_speaker, grid),
    }
    return SessionTable(grid, blocks, provenance)


def write_session_csv(table: SessionTable, csv_path, meta_path) -> None:
    """Persist a session as one CSV with its parse memo, plus a JSON sidecar
    with grid metadata and the table's provenance."""
    header = ["time_s"]
    for name, track in table.blocks.items():
        header.extend(f"{name}.{col}" for col in track.columns)
    write_table(
        csv_path, header, table.grid.timestamps(), *(t.values for t in table.blocks.values()),
        memo=True,
    )
    # insertion order keeps blocks aligned with the CSV
    write_json(meta_path, {
        "rate_hz": table.grid.rate_hz,
        "start_s": table.grid.start_s,
        "n_frames": table.grid.n_frames,
        "blocks": {name: {"columns": list(t.columns)} for name, t in table.blocks.items()},
        "provenance": table.provenance,
    })


_SIDECAR_KEYS = {
    "rate_hz": (lambda v: type(v) in (int, float) and 0 < v < math.inf, "a positive number"),
    "start_s": (lambda v: type(v) in (int, float) and math.isfinite(v), "a finite number"),
    "n_frames": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "blocks": (
        lambda v: type(v) is dict and all(name in v for name in BLOCK_NAMES)
        and all(
            type(b) is dict and type(b.get("columns")) is list
            and all(type(c) is str for c in b["columns"])
            and len(set(b["columns"])) == len(b["columns"])
            for b in v.values()
        )
        and v["labels"]["columns"] == list(LABEL_COLUMNS)
        and set(EMOTION_COLUMNS) <= set(v["emotion"]["columns"]),
        f'an object of {{"columns": [...]}} per block for {", ".join(BLOCK_NAMES)}, '
        f"with distinct column names, the labels' being {list(LABEL_COLUMNS)} and the "
        f"emotion block's including {list(EMOTION_COLUMNS)}",
    ),
    "provenance": (lambda v: type(v) is dict, "an object"),
}


def read_session_csv(csv_path, meta_path) -> SessionTable:
    """Load a session written by :func:`write_session_csv`.

    The sidecar gives the grid and the columns of the four blocks of
    BLOCK_NAMES; a sidecar that is not JSON, lacks one of them, repeats a
    column name within a block, has an emotion block without EMOTION_COLUMNS
    or has an unknown key raises :class:`ValidationError`. A CSV whose header
    or row count does not match it, whose `time_s` column is not the sidecar's
    grid (read by :func:`read_rated_table` at the sidecar's rate, then held
    to its `start_s`), or with a label cell other than 0 or 1 raises a
    :class:`ValidationError` naming ``path:line`` where it has one.
    """
    meta = read_json_object(meta_path)
    try:
        check_fields(meta, _SIDECAR_KEYS, "", required=_SIDECAR_KEYS)
    except ValidationError as exc:
        raise ValidationError(f"{meta_path}: {exc}") from None
    columns = {name: tuple(info["columns"]) for name, info in meta["blocks"].items()}
    expected = ["time_s"] + [f"{name}.{c}" for name, cols in columns.items() for c in cols]
    path = str(csv_path)
    grid, header, data, line_of = read_rated_table(path, meta["rate_hz"])
    if header != expected:
        raise MalformedRowError(f"{path}: header does not match the block columns in {meta_path}")
    if grid.n_frames != meta["n_frames"]:
        raise MalformedRowError(
            f"{path}: {grid.n_frames} data rows, but {meta_path} gives "
            f"n_frames={meta['n_frames']}"
        )
    if grid.start_s != meta["start_s"]:
        raise OffGridTimeError(
            f"{path}:{line_of(0)}: time_s {grid.start_s!r} is not the start_s "
            f"{meta['start_s']!r} that {meta_path} gives"
        )
    not_binary = _not_binary(data[:, [header.index(f"labels.{c}") - 1 for c in LABEL_COLUMNS]])
    if not_binary.any():
        raise MalformedRowError(
            f"{path}:{line_of(int(np.argmax(not_binary)))}: label cells must be 0 or 1"
        )
    blocks: dict[str, FeatureTrack] = {}
    col = 0
    for name, cols in columns.items():
        blocks[name] = FeatureTrack(grid, cols, data[:, col:col + len(cols)])
        col += len(cols)
    return SessionTable(grid, blocks)
