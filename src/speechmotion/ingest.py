"""Loaders for raw session inputs: audio, markers, transcripts, emotion tracks.

All loaders are pure functions of their file contents and return immutable
values, so sessions can be ingested concurrently. Dropouts are preserved as
NaN and never interpolated here.
"""

from __future__ import annotations

import math
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
    format_value,
    grid_of,
    iter_records,
    number,
    read_rate_comment,
    read_rated_table,
    write_records,
    write_table,
)
from .motion import CATEGORY_NAMES, DEFAULT_MAX_ABS_MM, MarkerTrack, max_abs_mm

CHANNEL_LEFT = "left"
CHANNEL_RIGHT = "right"

EMOTION_COLUMNS = ("arousal", "valence", "category")
EMOTION_HEADER = ("time_s",) + EMOTION_COLUMNS + ("confidence",)


@dataclass(frozen=True)
class AudioClip:
    """Normalized waveform in [-1, 1]; 1-D mono or (n, channels) multichannel."""

    samples: np.ndarray
    sample_rate_hz: int
    start_s: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        # a read-only float64 C-ordered array is adopted as it is; any other is copied
        adopt = isinstance(self.samples, np.ndarray) and not self.samples.flags.writeable
        samples = (np.asarray if adopt else np.array)(self.samples, dtype=np.float64, order="C")
        if samples.ndim not in (1, 2):
            raise ValueError("samples must be 1-D mono or 2-D (n, channels)")
        if samples.size:
            # min and max are NaN if any sample is, and reach any infinity,
            # so both checks need no full-size temporary
            lo, hi = samples.min(), samples.max()
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError("samples must be finite")
            if lo < -1.0 or hi > 1.0:
                raise ValueError("samples must lie in [-1, 1] after normalization")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def n_channels(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


def _read_chunks(data: bytes, path: str) -> dict[bytes, memoryview]:
    if len(data) < 12:
        raise CorruptHeaderError(f"{path}: file too short for a RIFF header")
    if data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")
    chunks: dict[bytes, memoryview] = {}
    view = memoryview(data)  # chunk bodies are views, not copies, of the file bytes
    offset = 12
    while offset + 8 <= len(data):
        cid = data[offset:offset + 4]
        (size,) = struct.unpack_from("<I", data, offset + 4)
        body = view[offset + 8:offset + 8 + size]
        if len(body) < size:
            raise CorruptHeaderError(f"{path}: truncated {cid!r} chunk")
        chunks.setdefault(cid, body)
        offset += 8 + size + (size & 1)  # chunks are word-aligned
    return chunks


# sample dtype per (format code, bits): integer PCM, or 32-bit float
_PCM_DTYPES = {(1, 8): "u1", (1, 16): "<i2", (1, 24): "3u1", (1, 32): "<i4", (3, 32): "<f4"}


def _decode_pcm(
    body, fmt_code: int, bits: int, n_channels: int, index: int | None, path: str
) -> np.ndarray:
    """Float64 samples of channel `index`, or of every channel if it is None;
    a mono file gives a 1-D array.

    Only the kept samples are converted: one float64 copy, scaled in place.
    """
    if (fmt_code, bits) not in _PCM_DTYPES:
        kind = "float WAV must be 32-bit" if fmt_code == 3 else f"unsupported bit depth {bits}"
        raise UnsupportedFormatError(f"{path}: {kind}")
    n_frames = len(body) // (bits // 8 * n_channels)
    if n_frames == 0:
        raise EmptyAudioError(f"{path}: no audio frames")
    raw = np.frombuffer(body, dtype=_PCM_DTYPES[fmt_code, bits], count=n_frames * n_channels)
    raw = raw.reshape((n_frames, n_channels) + raw.shape[1:])
    if index is not None or n_channels == 1:
        raw = raw[:, index or 0]
    if bits == 24:  # Horner over the little-endian bytes, the top one signed; exact
        x = raw[..., 2].view(np.int8).astype(np.float64)
        for byte in (1, 0):
            x *= 256.0
            x += raw[..., byte]
    else:
        x = raw.astype(np.float64)
    if fmt_code == 3:
        # min and max are NaN if any sample is, and reach any infinity
        if not (math.isfinite(x.min()) and math.isfinite(x.max())):
            raise ValueOutOfRangeError(f"{path}: float samples must be finite")
        np.clip(x, -1.0, 1.0, out=x)
    elif bits == 8:
        x -= 128.0
        x /= 128.0
    else:
        x /= float(1 << (bits - 1))
    return x


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

    Integer samples are scaled by 2^(bits-1) (so 16-bit 32767 maps to
    32767/32768). With `channel` (`left` or `right`) only that channel is
    decoded, into a mono clip equal to :func:`select_channel` of the whole
    file; without it, multichannel files keep their channels.
    """
    path = str(path)
    with open(path, "rb") as fh:
        data = fh.read()
    chunks = _read_chunks(data, path)
    if b"fmt " not in chunks:
        raise CorruptHeaderError(f"{path}: missing fmt chunk")
    fmt = chunks[b"fmt "]
    if len(fmt) < 16:
        raise CorruptHeaderError(f"{path}: fmt chunk too short")
    fmt_code, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
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
    samples = _decode_pcm(chunks[b"data"], fmt_code, bits, n_channels, index, path)
    samples.setflags(write=False)  # so the clip adopts it without a copy
    return AudioClip(samples=samples, sample_rate_hz=int(sample_rate))


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
    if clip.samples.ndim == 1:
        return clip
    return AudioClip(
        samples=clip.samples[:, index],
        sample_rate_hz=clip.sample_rate_hz,
        start_s=clip.start_s,
    )


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
    return AudioClip(
        samples=clip.samples[n:],
        sample_rate_hz=clip.sample_rate_hz,
        start_s=clip.start_s + seconds,
    )


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


def _marker_names_from_header(header: list[str], path: str) -> list[str]:
    coords = header[1:]
    if len(coords) % 3 != 0:
        raise InconsistentMarkerSetError(
            f"{path}: coordinate columns must come in _x,_y,_z triples"
        )
    names = []
    for k in range(0, len(coords), 3):
        triple = coords[k:k + 3]
        suffixes = [c.rsplit("_", 1)[-1] for c in triple]
        bases = {c.rsplit("_", 1)[0] for c in triple}
        if suffixes != ["x", "y", "z"] or len(bases) != 1:
            raise InconsistentMarkerSetError(
                f"{path}: expected <marker>_x,<marker>_y,<marker>_z, got {triple}"
            )
        names.append(triple[0].rsplit("_", 1)[0])
    if len(set(names)) != len(names):
        raise InconsistentMarkerSetError(f"{path}: duplicate marker names")
    return names


def load_markers(path) -> MarkerTrack:
    """Load a marker-trajectory CSV; empty cells become NaN dropouts.

    A coordinate beyond DEFAULT_MAX_ABS_MM raises :class:`ValueOutOfRangeError`
    naming ``path:line``.
    """
    path = str(path)
    grid, header, values, line_of = read_rated_table(path)
    names = _marker_names_from_header(header, path)
    if max_abs_mm(values) > DEFAULT_MAX_ABS_MM:
        row, col = np.argwhere(np.abs(values) > DEFAULT_MAX_ABS_MM)[0]
        raise ValueOutOfRangeError(
            f"{path}:{line_of(int(row))}: {header[col + 1]} {float(values[row, col])!r} "
            f"mm exceeds the plausibility bound {DEFAULT_MAX_ABS_MM} mm"
        )
    positions = values.reshape(grid.n_frames, len(names), 3)
    positions.setflags(write=False)  # so MarkerTrack need not copy it
    return MarkerTrack(grid, tuple(names), positions)


def write_marker_csv(markers: MarkerTrack, path) -> None:
    """Write a marker track in the CSV format accepted by :func:`load_markers`."""
    header = ["time_s"]
    for m in markers.markers:
        header.extend((f"{m}_x", f"{m}_y", f"{m}_z"))
    write_table(
        path, header, markers.grid.timestamps(),
        markers.positions.reshape(markers.n_frames, -1), rate_hz=markers.grid.rate_hz,
    )
