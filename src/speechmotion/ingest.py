"""Loaders for raw session inputs: audio, markers, transcripts, emotion tracks.

All loaders are pure functions of their file contents and return immutable
values, so sessions can be ingested concurrently. Dropouts are preserved as
NaN and never interpolated here.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ChannelOutOfRangeError,
    CorruptHeaderError,
    EmptyAudioError,
    InconsistentMarkerSetError,
    InvertedIntervalError,
    MalformedRowError,
    SameSpeakerOverlapError,
    TrimExceedsDurationError,
    UnknownCategoryError,
    UnsupportedFormatError,
    ValueOutOfRangeError,
)
from .frames import (
    FeatureTrack,
    GrowingRows,
    adopt,
    format_value,
    grid_of,
    iter_records,
    line_map,
    number,
    read_header,
    read_rate_comment,
    read_rated_table,
    row_chunks,
    rows_estimate,
    write_records,
)
from .motion import (
    CATEGORY_NAMES, DEFAULT_MAX_ABS_MM, ActivenessStream, marker_names, max_abs_mm,
)

CHANNEL_LEFT = "left"
CHANNEL_RIGHT = "right"

EMOTION_COLUMNS = ("arousal", "valence", "category")
EMOTION_HEADER = ("time_s",) + EMOTION_COLUMNS + ("confidence",)


@dataclass(frozen=True, init=False)
class AudioClip:
    """Waveform, 1-D mono or (n, channels), held at the width it is stored at.

    A clip made from samples adopts them as float64 in [-1, 1] (see
    :func:`frames.adopt`). A clip loaded
    by :func:`load_wav` holds the file's PCM samples (`stored`: u1, <i2, <i4
    or <f4; 24-bit samples sit in the top three bytes of an <i4), 1 to 4
    bytes per sample instead of 8. `samples` is the whole clip in float64,
    converted by :func:`unit_samples`, the one conversion; the speech front
    end converts one block of windows at a time instead.
    """

    stored: np.ndarray
    sample_rate_hz: int
    start_s: float = 0.0

    def __init__(self, samples, sample_rate_hz: int, start_s: float = 0.0) -> None:
        samples = adopt(samples)
        if samples.size:
            # min and max are NaN if any sample is, and reach any infinity,
            # so both checks need no full-size temporary
            lo, hi = samples.min(), samples.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("samples must be finite")
            if lo < -1.0 or hi > 1.0:
                raise ValueError("samples must lie in [-1, 1] after normalization")
        self._hold(samples, sample_rate_hz, start_s)

    @classmethod
    def _of_stored(cls, stored: np.ndarray, sample_rate_hz: int, start_s: float = 0.0):
        """A clip of samples at a width :func:`unit_samples` converts, taken
        as valid. A strided view is copied to C order at the same width: a
        slice of a larger buffer would keep the whole buffer alive."""
        stored = np.ascontiguousarray(stored)
        stored.setflags(write=False)
        clip = cls.__new__(cls)
        clip._hold(stored, sample_rate_hz, start_s)
        return clip

    def _hold(self, stored: np.ndarray, sample_rate_hz: int, start_s: float) -> None:
        if sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if stored.ndim not in (1, 2):
            raise ValueError("samples must be 1-D mono or 2-D (n, channels)")
        object.__setattr__(self, "stored", stored)
        object.__setattr__(self, "sample_rate_hz", sample_rate_hz)
        object.__setattr__(self, "start_s", start_s)

    @property
    def samples(self) -> np.ndarray:
        """The whole clip as read-only float64 in [-1, 1]."""
        return adopt(unit_samples(self.stored))

    @property
    def n_samples(self) -> int:
        return self.stored.shape[0]

    @property
    def n_channels(self) -> int:
        return 1 if self.stored.ndim == 1 else self.stored.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


# full scale of each stored integer width; u1 is offset by 128 first
_FULL_SCALE = {np.dtype("u1"): 128.0, np.dtype("<i2"): 32768.0, np.dtype("<i4"): float(1 << 31)}


def unit_samples(stored: np.ndarray) -> np.ndarray:
    """Float64 samples in [-1, 1] of samples at their stored width.

    Integer PCM is divided by its full scale (2^(bits-1); 8-bit is offset by
    128 first), 32-bit float is clipped to [-1, 1], and float64 is returned
    as it is. Every other width gets a fresh array. Each value depends on
    its own sample only, so converting a block gives the same bits as
    converting the whole clip.
    """
    if stored.dtype == np.float64:
        return stored
    x = stored.astype(np.float64)
    if stored.dtype.kind == "f":
        np.clip(x, -1.0, 1.0, out=x)
        return x
    if stored.dtype == np.uint8:
        x -= 128.0
    x /= _FULL_SCALE[stored.dtype]
    return x


def _read_chunks(fh, path: str) -> dict[bytes, tuple[int, int]]:
    """The (body offset, size) of the first chunk of each id in an open
    RIFF/WAVE file, found from the chunk headers alone."""
    file_size = os.fstat(fh.fileno()).st_size
    head = fh.read(12)
    if len(head) < 12:
        raise CorruptHeaderError(f"{path}: file too short for a RIFF header")
    if head[0:4] != b"RIFF" or head[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")
    chunks: dict[bytes, tuple[int, int]] = {}
    offset = 12
    while offset + 8 <= file_size:
        fh.seek(offset)
        cid, size = struct.unpack("<4sI", fh.read(8))
        if offset + 8 + size > file_size:
            raise CorruptHeaderError(f"{path}: truncated {cid!r} chunk")
        chunks.setdefault(cid, (offset + 8, size))
        offset += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


# sample dtype per (format code, bits): integer PCM, or 32-bit float
_PCM_DTYPES = {(1, 8): "u1", (1, 16): "<i2", (1, 24): "3u1", (1, 32): "<i4", (3, 32): "<f4"}
WAV_BLOCK_BYTES = 1 << 20  # bytes of the data chunk read at a time


def _stored_pcm(
    fh, data: tuple[int, int], fmt_code: int, bits: int, n_channels: int, index: int | None,
    path: str,
) -> np.ndarray:
    """Samples of channel `index`, or of every channel if it is None, at
    their stored width; a mono file gives a 1-D array.

    `data` is the data chunk's (body offset, size) in the open file `fh`. It
    is read WAV_BLOCK_BYTES at a time (in whole frames) into one reused
    buffer and copied into the output, so only the kept channel is held,
    plus one block of the file.
    24-bit samples are placed in the top three bytes of an <i4, which is
    exact.
    """
    if (fmt_code, bits) not in _PCM_DTYPES:
        kind = "float WAV must be 32-bit" if fmt_code == 3 else f"unsupported bit depth {bits}"
        raise UnsupportedFormatError(f"{path}: {kind}")
    dtype = np.dtype(_PCM_DTYPES[fmt_code, bits])
    frame_bytes = bits // 8 * n_channels
    n_frames = data[1] // frame_bytes
    if n_frames == 0:
        raise EmptyAudioError(f"{path}: no audio frames")
    one_channel = index is not None or n_channels == 1
    out = np.empty(
        (n_frames,) if one_channel else (n_frames, n_channels),
        "<i4" if bits == 24 else dtype.base,
    )
    block = max(1, WAV_BLOCK_BYTES // frame_bytes)
    buffer = np.empty(min(block, n_frames) * frame_bytes, np.uint8)  # reused by every block
    fh.seek(data[0])
    for lo in range(0, n_frames, block):
        hi = min(lo + block, n_frames)
        fh.readinto(buffer[:(hi - lo) * frame_bytes])
        raw = np.frombuffer(buffer[:(hi - lo) * frame_bytes], dtype=dtype)
        raw = raw.reshape((hi - lo, n_channels) + raw.shape[1:])
        if one_channel:
            raw = raw[:, index or 0]
        if bits == 24:
            wide = out[lo:hi, ..., None].view(np.uint8)
            wide[..., 0] = 0
            wide[..., 1:] = raw
        else:
            out[lo:hi] = raw
    # min and max are NaN if any sample is, and reach any infinity
    if fmt_code == 3 and not (math.isfinite(out.min()) and math.isfinite(out.max())):
        raise ValueOutOfRangeError(f"{path}: float samples must be finite")
    return out


def _channel_index(channel: str, n_channels: int) -> int:
    """Index of the `left` or `right` channel in a clip with `n_channels` channels."""
    channel = channel.lower()
    if channel not in (CHANNEL_LEFT, CHANNEL_RIGHT):
        raise ChannelOutOfRangeError(f"channel must be left or right, got {channel!r}")
    index = 0 if channel == CHANNEL_LEFT else 1
    if index >= n_channels:
        raise ChannelOutOfRangeError(
            f"clip has {n_channels} channel(s), cannot take the {channel} channel"
        )
    return index


def load_wav(path, channel: str | None = None) -> AudioClip:
    """Load a little-endian RIFF/WAVE file with integer or 32-bit-float PCM.

    The clip keeps the samples at their stored width (see
    :class:`AudioClip`); :func:`unit_samples` scales integer samples by
    2^(bits-1), so 16-bit 32767 maps to 32767/32768. With `channel` (`left`
    or `right`) only that channel is kept, in a mono clip equal to
    :func:`select_channel` of the whole file; without it, multichannel files
    keep their channels.
    """
    path = str(path)
    with open(path, "rb") as fh:
        chunks = _read_chunks(fh, path)
        if b"fmt " not in chunks:
            raise CorruptHeaderError(f"{path}: missing fmt chunk")
        fmt_offset, fmt_size = chunks[b"fmt "]
        if fmt_size < 16:
            raise CorruptHeaderError(f"{path}: fmt chunk too short")
        fh.seek(fmt_offset)
        fmt_code, n_channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fh.read(16))
        if sample_rate == 0:
            raise CorruptHeaderError(f"{path}: sample rate is 0")
        if fmt_code not in (1, 3):
            raise UnsupportedFormatError(
                f"{path}: unsupported WAV format code {fmt_code} (PCM required)"
            )
        if n_channels not in (1, 2):
            raise UnsupportedFormatError(f"{path}: expected 1-2 channels, got {n_channels}")
        if b"data" not in chunks:
            raise CorruptHeaderError(f"{path}: missing data chunk")
        try:
            index = None if channel is None else _channel_index(channel, n_channels)
        except ChannelOutOfRangeError as exc:
            raise ChannelOutOfRangeError(f"{path}: {exc}") from None
        stored = _stored_pcm(fh, chunks[b"data"], fmt_code, bits, n_channels, index, path)
    return AudioClip._of_stored(stored, int(sample_rate))


def write_wav(path, clip: AudioClip) -> None:
    """Write a clip as 16-bit little-endian integer PCM."""
    samples = clip.samples
    if samples.ndim == 1:
        samples = samples[:, None]
    ints = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    body = ints.reshape(-1).tobytes()
    n_channels = samples.shape[1]
    byte_rate = clip.sample_rate_hz * n_channels * 2
    header = b"RIFF" + struct.pack("<I", 36 + len(body)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, 1, n_channels, clip.sample_rate_hz, byte_rate, n_channels * 2, 16
    )
    header += b"data" + struct.pack("<I", len(body))
    with open(path, "wb") as fh:
        fh.write(header + body)


def select_channel(clip: AudioClip, channel: str) -> AudioClip:
    """Return the requested channel as a mono clip, sample values untouched."""
    index = _channel_index(channel, clip.n_channels)
    if clip.stored.ndim == 1:
        return clip
    return AudioClip._of_stored(clip.stored[:, index], clip.sample_rate_hz, clip.start_s)


def trim_head(clip: AudioClip, seconds: float = 4.0) -> AudioClip:
    """Drop the first `seconds` of audio and advance the start timestamp."""
    if seconds < 0:
        raise ValueError("trim seconds must be >= 0")
    if seconds == 0:
        return clip
    if seconds >= clip.duration_s:
        raise TrimExceedsDurationError(
            f"cannot trim {seconds} s from a {clip.duration_s:.3f} s clip"
        )
    n = int(round(seconds * clip.sample_rate_hz))
    return AudioClip._of_stored(clip.stored[n:], clip.sample_rate_hz, clip.start_s + seconds)


@dataclass(frozen=True)
class Interval:
    start_s: float
    end_s: float
    speaker: str


def _check_intervals(entries, where=lambda i: "") -> None:
    """Reject an inverted interval, or one that starts before an earlier
    interval of its speaker ends; `entries` are sorted by start, and `where(i)`
    prefixes the message about entry i."""
    last_end: dict[str, float] = {}
    for i, e in enumerate(entries):
        if not e.start_s < e.end_s:
            raise InvertedIntervalError(
                f"{where(i)}interval [{e.start_s}, {e.end_s}) for {e.speaker!r} is inverted"
            )
        if e.start_s < last_end.get(e.speaker, -math.inf):
            raise SameSpeakerOverlapError(
                f"{where(i)}speaker {e.speaker!r} overlaps itself at {e.start_s} s"
            )
        last_end[e.speaker] = max(last_end.get(e.speaker, -math.inf), e.end_s)


@dataclass(frozen=True)
class SpeechIntervals:
    """Sorted speaking intervals; same-speaker overlap is rejected as corrupt."""

    entries: tuple[Interval, ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        starts = [e.start_s for e in entries]
        if starts != sorted(starts):
            raise ValueError("entries must be sorted by start time")
        _check_intervals(entries)

    def speakers(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for e in self.entries:
            seen.setdefault(e.speaker)
        return tuple(seen)

    def for_speaker(self, speaker: str) -> tuple[Interval, ...]:
        return tuple(e for e in self.entries if e.speaker == speaker)


SPEAKER_WORDING = "a non-empty string with no whitespace and no '#'"


def is_speaker(value) -> bool:
    """Whether a transcript line can hold `value` as its speaker: the format
    splits on whitespace and drops what follows `#` (see SPEAKER_WORDING)."""
    return type(value) is str and value.split() == [value] and "#" not in value


def load_transcript_intervals(path) -> SpeechIntervals:
    """Parse whitespace-separated `start_s end_s speaker_id` lines.

    An inverted interval, or one that overlaps an earlier interval of its
    speaker, raises naming ``path:line`` (for an overlap, the later line).
    """
    path = str(path)
    rows = []  # (interval, line number)
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            parts = text.split()
            if len(parts) != 3:
                raise MalformedRowError(
                    f"{path}:{line_no}: expected 'start end speaker', got {text!r}"
                )
            try:
                start, end = float(parts[0]), float(parts[1])
            except ValueError:
                raise MalformedRowError(
                    f"{path}:{line_no}: cannot parse interval bounds"
                ) from None
            rows.append((Interval(start, end, parts[2]), line_no))
    rows.sort(key=lambda row: (row[0].start_s, row[0].end_s, row[0].speaker))
    entries = tuple(e for e, _ in rows)
    _check_intervals(entries, lambda i: f"{path}:{rows[i][1]}: ")
    return SpeechIntervals(entries)


def write_transcript_intervals(intervals: SpeechIntervals, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for e in intervals.entries:
            fh.write(f"{format_value(e.start_s)} {format_value(e.end_s)} {e.speaker}\n")


def _bounded(name: str, lo: float, hi: float):
    """Converter for a float column that must lie in [lo, hi]."""

    def convert(cell: str) -> float:
        value = float(cell)
        if not lo <= value <= hi:
            raise ValueOutOfRangeError(f"{name} {value} outside [{lo:g}, {hi:g}]")
        return value

    return convert


def _category_code(cell: str) -> float:
    if cell not in CATEGORY_NAMES:
        raise UnknownCategoryError(
            f"unknown category {cell!r}; expected one of {CATEGORY_NAMES}"
        )
    return float(CATEGORY_NAMES.index(cell))


_EMOTION_CONVERTERS = (
    number,
    _bounded("arousal", -1.0, 1.0),
    _bounded("valence", -1.0, 1.0),
    _category_code,
    _bounded("confidence", 0.0, 1.0),
)


def load_emotion_frames(path) -> FeatureTrack:
    """Load an externally computed frame-level emotion CSV.

    Expected layout: `# rate_hz=<float>` comment, then
    `time_s,arousal,valence,category,confidence`. Arousal and valence must lie
    in [-1, 1]; category must be one of the four classes. Timestamps must lie
    on the grid of the declared rate (see :func:`frames.grid_of`) and are
    stored as declared by the file (whether they mark window starts or centers
    is up to the producer). Confidence is validated but not carried forward.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        rate = read_rate_comment(fh, path)
        records = list(iter_records(fh, path, 2, EMOTION_HEADER, _EMOTION_CONVERTERS))
    if not records:
        raise MalformedRowError(f"{path}: no data rows")
    line_nos = [line_no for line_no, _ in records]
    values = np.array([row for _, row in records])
    grid = grid_of(values[:, 0], rate, path, line_nos.__getitem__)
    return FeatureTrack(grid, EMOTION_COLUMNS, values[:, 1:4])


def write_emotion_csv(track: FeatureTrack, path) -> None:
    """Write an emotion track back to the adapter CSV format, with confidence 1."""
    if track.columns != EMOTION_COLUMNS:
        raise ValueError(f"expected columns {EMOTION_COLUMNS}, got {track.columns}")
    rows = (
        (t, arousal, valence, CATEGORY_NAMES[int(code)], 1.0)
        for t, (arousal, valence, code) in zip(
            track.grid.timestamps().tolist(), track.values.tolist()
        )
    )
    write_records(path, EMOTION_HEADER, rows, rate_hz=track.grid.rate_hz)


def load_markers(path) -> FeatureTrack:
    """Load a marker-trajectory CSV: a `# rate_hz=` comment, then `time_s` and
    one ``<marker>_x,<marker>_y,<marker>_z`` column triple per marker (see
    :func:`motion.marker_names`), positions in mm. The track's columns are the
    header's; empty cells become NaN dropouts.

    A coordinate beyond DEFAULT_MAX_ABS_MM raises :class:`ValueOutOfRangeError`
    naming ``path:line``.
    """
    path = str(path)
    grid, header, values, line_of = read_rated_table(path)
    try:
        marker_names(header[1:])
    except InconsistentMarkerSetError as exc:
        raise InconsistentMarkerSetError(f"{path}: {exc}") from None
    if beyond := _beyond_bound(path, header, values, line_of):
        raise beyond
    return FeatureTrack(grid, tuple(header[1:]), values)


def _beyond_bound(path: str, header, values: np.ndarray, line_of) -> ValueOutOfRangeError | None:
    """The error for the first coordinate in `values` (rows of a marker
    table's coordinate columns, `line_of` naming their lines) beyond
    DEFAULT_MAX_ABS_MM, or None."""
    if max_abs_mm(values) <= DEFAULT_MAX_ABS_MM:
        return None
    row, col = np.argwhere(np.abs(values) > DEFAULT_MAX_ABS_MM)[0]
    return ValueOutOfRangeError(
        f"{path}:{line_of(int(row))}: {header[col + 1]} {float(values[row, col])!r} "
        f"mm exceeds the plausibility bound {DEFAULT_MAX_ABS_MM} mm"
    )


def load_marker_activeness(path, region_map) -> FeatureTrack:
    """``region_activeness(displacement_magnitudes(load_markers(path)), region_map)``
    bit for bit, from one pass over the marker CSV that never holds its
    positions: each chunk of rows :func:`frames.row_chunks` parses goes
    straight into a :class:`motion.ActivenessStream`, and only the time
    column and the activeness are kept.

    The header's marker set and the region map are checked before any row.
    The rows are then checked as :func:`load_markers` checks them: a
    malformed or infinite cell, then the times (:func:`frames.grid_of`),
    then the first coordinate beyond DEFAULT_MAX_ABS_MM, each raising with
    the same message; a track too short to difference raises last.
    """
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        rate = read_rate_comment(fh, path)
        header = read_header(fh, path)
        try:
            stream = ActivenessStream(header[1:], region_map)
        except InconsistentMarkerSetError as exc:
            raise InconsistentMarkerSetError(f"{path}: {exc}") from None
        blank_lines: list[int] = []
        line_of = line_map(3, blank_lines)  # names every row parsed so far
        times, beyond = GrowingRows(), None  # beyond: raised once the times are checked
        for rows in row_chunks(fh, path, 3, len(header), blank_lines):
            if not times.n:
                times.reserve(n_rows := rows_estimate(fh, rows))
                stream.out.reserve(n_rows)
            first = times.n
            beyond = beyond or _beyond_bound(
                path, header, rows[:, 1:], lambda row: line_of(first + row)
            )
            times.append(rows[:, 0])
            stream.feed(rows[:, 1:])
    grid = grid_of(times.take(), rate, path, line_of)
    if beyond:
        raise beyond
    return stream.finish(grid)
