"""Uniform frame grids and named feature tracks, and the file codecs.

Every per-frame quantity in the pipeline (prosody, spectral coefficients,
emotion descriptors, marker displacements, region activeness, binary labels)
travels as a :class:`FeatureTrack`: a read-only ``n_frames x n_columns``
float matrix bound to a :class:`FrameGrid`. Missing values (marker dropouts,
propagated gaps) are NaN. Every table and JSON document the pipeline reads or
writes goes through one of the three codecs below.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedRowError, NonMonotoneTimeError, OffGridTimeError, ValidationError


@dataclass(frozen=True)
class FrameGrid:
    """Uniform timestamp lattice: timestamp(i) = start_s + i / rate_hz."""

    rate_hz: float
    start_s: float
    n_frames: int

    def __post_init__(self) -> None:
        if not self.rate_hz > 0:
            raise ValueError(f"rate_hz must be positive, got {self.rate_hz}")
        if self.n_frames < 0:
            raise ValueError(f"n_frames must be >= 0, got {self.n_frames}")

    def timestamp(self, i: int) -> float:
        return self.start_s + i / self.rate_hz

    def timestamps(self) -> np.ndarray:
        return self.start_s + np.arange(self.n_frames) / self.rate_hz

    @property
    def end_s(self) -> float:
        """Timestamp of the last frame (== start_s for a single frame)."""
        if self.n_frames == 0:
            return self.start_s
        return self.timestamp(self.n_frames - 1)

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.rate_hz


def grid_over_span(rate_hz: float, start_s: float, end_s: float) -> FrameGrid:
    """Largest grid at `rate_hz` starting at `start_s` with no frame past `end_s`."""
    if end_s < start_s:
        return FrameGrid(rate_hz, start_s, 0)
    n = int(math.floor((end_s - start_s) * rate_hz)) + 1
    return FrameGrid(rate_hz, start_s, n)


@dataclass(frozen=True)
class FeatureTrack:
    """Named columns of per-frame values on a shared grid. NaN marks dropout."""

    grid: FrameGrid
    columns: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        object.__setattr__(self, "columns", cols)
        if len(set(cols)) != len(cols):
            raise ValueError(f"duplicate column names: {cols}")
        vals = np.array(self.values, dtype=np.float64, order="C")
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.n_frames, len(cols)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{self.grid.n_frames} frames x {len(cols)} columns"
            )
        if np.isinf(vals).any():
            raise ValueError("feature values must be finite or NaN")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n_frames(self) -> int:
        return self.grid.n_frames

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r}; have {self.columns}") from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_index(name)]

    def select(self, names: list[str] | tuple[str, ...]) -> "FeatureTrack":
        idx = [self.column_index(n) for n in names]
        return FeatureTrack(self.grid, tuple(names), self.values[:, idx])


def concat_columns(*tracks: FeatureTrack) -> FeatureTrack:
    """Stack tracks column-wise; all tracks must share one grid exactly."""
    first = tracks[0]
    for t in tracks[1:]:
        if t.grid != first.grid:
            raise ValueError(f"grids differ: {t.grid} vs {first.grid}")
    names = tuple(n for t in tracks for n in t.columns)
    values = np.hstack([t.values for t in tracks])
    return FeatureTrack(first.grid, names, values)


def format_value(x: float) -> str:
    """Shortest round-trip decimal for CSV cells; NaN becomes an empty cell."""
    if math.isnan(x):
        return ""
    return repr(float(x))


# --- numeric table codec -------------------------------------------------------
#
# Dense tables (feature tracks, marker trajectories, aligned sessions) are CSV
# text: an optional `# rate_hz=<float>` comment, a header that starts with
# `time_s`, then one row of numbers per frame. A cell holds the shortest
# round-trip decimal of a float64 (its repr) and an empty cell is a NaN
# dropout. Rows are parsed by numpy's C parser and formatted a block at a time;
# nothing here loops over cells in Python except to name a rejected row.

WRITE_BLOCK_ROWS = 4096  # rows formatted per write; bounds the text held at once


def _write_head(fh, header, rate_hz: float | None) -> None:
    if rate_hz is not None:
        fh.write(f"# rate_hz={rate_hz!r}\n")
    fh.write(",".join(header) + "\n")


def write_table(
    path, header, times: np.ndarray, values: np.ndarray, rate_hz: float | None = None
) -> None:
    """Write an optional rate comment, the header and one `time,v1,...` row per frame.

    Each row's bytes equal ``",".join(map(format_value, row))``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_head(fh, header, rate_hz)
        for lo in range(0, len(times), WRITE_BLOCK_ROWS):
            hi = lo + WRITE_BLOCK_ROWS
            block = np.column_stack((times[lo:hi], values[lo:hi]))
            text = "\n".join([",".join(map(repr, row)) for row in block.tolist()]) + "\n"
            if np.isnan(block).any():
                # repr spells NaN "nan", and no other float's repr contains it
                text = text.replace("nan", "")
            fh.write(text)


def read_rate_comment(fh, path: str) -> float:
    """Parse the leading `# rate_hz=<float>` line of an open table."""
    line = fh.readline()
    prefix = "# rate_hz="
    if not line.startswith(prefix):
        raise MalformedRowError(f"{path}: expected leading '{prefix}<float>' comment")
    try:
        rate = float(line[len(prefix):].strip())
    except ValueError:
        raise MalformedRowError(f"{path}: bad rate in {line.rstrip()!r}") from None
    if not rate > 0:
        raise MalformedRowError(f"{path}: rate_hz must be positive, got {rate}")
    return rate


def read_header(fh, path: str) -> list[str]:
    """Split the next line of an open table into column names; the first is `time_s`."""
    header = fh.readline().rstrip("\n").split(",")
    if header[0] != "time_s":
        raise MalformedRowError(f"{path}: header must start with time_s")
    return header


def _filled_lines(fh, first_line: int, blank_lines: list[int]):
    """Data lines of `fh` with each empty cell spelled ``nan``; blank lines are
    skipped and their numbers appended to `blank_lines`."""
    for line_no, line in enumerate(fh, start=first_line):
        if line == "\n":
            blank_lines.append(line_no)
            continue
        if ",," in line or line[0] == "," or line[-1] == "," or line.endswith(",\n"):
            line = ",".join([cell or "nan" for cell in line.rstrip("\n").split(",")])
        yield line


def _bad_row(fh, start, path: str, first_line: int, n_cells: int) -> MalformedRowError | None:
    """The error for the first row from `start` on that has the wrong cell
    count or a cell that is not a number, or None if there is no such row."""
    fh.seek(start)
    for line_no, line in enumerate(fh, start=first_line):
        if line == "\n":
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != n_cells:
            return MalformedRowError(
                f"{path}:{line_no}: expected {n_cells} cells, got {len(cells)}"
            )
        for cell in cells:
            try:
                if cell:
                    float(cell)
            except ValueError:
                return MalformedRowError(
                    f"{path}:{line_no}: cannot parse {cell!r} as a number"
                )
    return None


def read_rows(fh, path: str, first_line: int, n_cells: int):
    """Parse the rest of an open table into an ``(n_rows, n_cells)`` float64 array.

    `first_line` is the file line number of the next line. Empty cells become
    NaN and blank lines are skipped. Returns the array and a function mapping
    a row index to its file line number. A row with the wrong cell count, a
    non-numeric cell or an infinite cell raises :class:`MalformedRowError`
    naming ``path:line``.
    """
    start = fh.tell()
    blank_lines: list[int] = []
    lines = _filled_lines(fh, first_line, blank_lines)
    first = next(lines, None)
    if first is None:
        raise MalformedRowError(f"{path}: no data rows")
    try:
        data = np.loadtxt(
            itertools.chain((first,), lines),
            delimiter=",", comments=None, dtype=np.float64, ndmin=2,
        )
    except ValueError as exc:
        # numpy's message counts rows from 0 and skips blank lines; rescan
        # to name the file line of the first rejected row
        raise _bad_row(fh, start, path, first_line, n_cells) or MalformedRowError(
            f"{path}: {exc}"
        ) from None
    if data.shape[1] != n_cells:
        # every row has the same wrong cell count, so the first one is named
        raise _bad_row(fh, start, path, first_line, n_cells)

    def line_of(row: int) -> int:
        line = first_line + row
        for blank in blank_lines:
            if blank > line:
                break
            line += 1
        return line

    infinite = np.isinf(data).any(axis=1)
    if infinite.any():
        raise MalformedRowError(
            f"{path}:{line_of(int(np.argmax(infinite)))}: a cell is infinite; "
            "cells must be finite numbers or empty"
        )
    return data, line_of


def grid_of(times: np.ndarray, rate_hz: float, path: str, line_of) -> FrameGrid:
    """The grid a `time_s` column lies on, checked row by row.

    Times must be strictly increasing, and each must lie within half a frame
    of ``times[0] + i / rate_hz``; a file with rows cut out would otherwise
    shift every later frame. `line_of` maps a row index to its file line.
    """
    missing = np.isnan(times)
    if missing.any():
        row = int(np.argmax(missing))
        raise MalformedRowError(f"{path}:{line_of(row)}: empty time_s cell")
    steps_bad = np.diff(times) <= 0
    if steps_bad.any():
        row = int(np.argmax(steps_bad)) + 1
        raise NonMonotoneTimeError(
            f"{path}:{line_of(row)}: time_s must be strictly increasing"
        )
    grid = FrameGrid(rate_hz=rate_hz, start_s=float(times[0]), n_frames=len(times))
    off = np.abs(times - grid.timestamps()) >= 0.5 / rate_hz
    if off.any():
        row = int(np.argmax(off))
        raise OffGridTimeError(
            f"{path}:{line_of(row)}: time_s {float(times[row])!r} is off the "
            f"{rate_hz!r} Hz grid that starts at {grid.start_s!r} s (expected "
            f"{grid.timestamp(row)!r} within half a frame)"
        )
    return grid


def read_rated_table(path):
    """Read a rated table: its grid, its header, the values after `time_s` and
    the function mapping a row index to its file line."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        rate = read_rate_comment(fh, path)
        header = read_header(fh, path)
        data, line_of = read_rows(fh, path, first_line=3, n_cells=len(header))
    return grid_of(data[:, 0], rate, path, line_of), header, data[:, 1:], line_of


def write_feature_csv(track: FeatureTrack, path) -> None:
    """Write `# rate_hz=` comment, `time_s,<col>,...` header, one row per frame."""
    write_table(
        path, ("time_s",) + track.columns, track.grid.timestamps(), track.values,
        rate_hz=track.grid.rate_hz,
    )


def read_feature_csv(path) -> FeatureTrack:
    """Load a feature CSV written by :func:`write_feature_csv`; a repeated
    column name raises :class:`MalformedRowError` naming the header line."""
    grid, header, values, _ = read_rated_table(path)
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise MalformedRowError(f"{path}:2: column name(s) {repeated} appear more than once")
    return FeatureTrack(grid, tuple(header[1:]), values)


# --- record table codec --------------------------------------------------------
#
# Result tables (condition summaries, coupling and ANOVA reports, heatmap grids,
# the reference comparison) and the emotion adapter are short tables of mixed
# cells: an optional `# rate_hz=<float>` comment, a fixed header, then one
# record per line. Every cell is written by one rule (:func:`_format_cell`) and
# read back by one converter per column.


def _format_cell(value) -> str:
    """A record cell: None and NaN are empty, a bool is 0/1, a float is its
    shortest round-trip decimal, and anything else is ``str(value)``."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format_value(value)
    return str(value)


def write_records(path, header, rows, rate_hz: float | None = None) -> None:
    """Write an optional rate comment, the header and one line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_head(fh, header, rate_hz)
        for row in rows:
            fh.write(",".join(map(_format_cell, row)) + "\n")


def number(cell: str) -> float:
    """Converter for a float column; an empty cell is NaN."""
    return float(cell) if cell else math.nan


def flag(cell: str) -> bool:
    """Converter for a 0/1 column."""
    if cell not in ("0", "1"):
        raise ValueError(f"not 0 or 1: {cell!r}")
    return cell == "1"


def iter_records(fh, path: str, first_line: int, header, converters):
    """Check the header of an open record table, then yield ``(line, row)``
    for each data line, with each cell run through its column's converter.

    `first_line` is the file line number of the header. Blank lines are
    skipped. A wrong header, a wrong cell count or a cell whose converter
    raises ``ValueError`` raises :class:`MalformedRowError`; a converter's own
    :class:`ValidationError` keeps its class. Every message names
    ``path:line``.
    """
    expected = ",".join(header)
    if fh.readline().rstrip("\n") != expected:
        raise MalformedRowError(f"{path}:{first_line}: header must be {expected}")
    for line_no, line in enumerate(fh, start=first_line + 1):
        if not line.strip():
            continue
        cells = line.rstrip("\n").split(",")
        if len(cells) != len(header):
            raise MalformedRowError(
                f"{path}:{line_no}: expected {len(header)} cells, got {len(cells)}"
            )
        row = []
        for name, convert, cell in zip(header, converters, cells):
            try:
                row.append(convert(cell))
            except ValidationError as exc:
                raise type(exc)(f"{path}:{line_no}: {exc}") from None
            except ValueError:
                raise MalformedRowError(
                    f"{path}:{line_no}: cannot parse {cell!r} as {name}"
                ) from None
        yield line_no, row


def read_records(path, header, converters) -> list[list]:
    """The converted rows of a record table that has no rate comment."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        return [row for _, row in iter_records(fh, path, 1, header, converters)]


# --- JSON document codec: configs, specs, region maps, models, sidecars --------


def write_json(path, doc) -> None:
    """Write `doc` as JSON with a two-space indent and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def read_json_object(path) -> dict:
    """Parse a JSON document whose top level must be an object; malformed JSON
    raises :class:`ValidationError` naming ``path:line:column``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(
                f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
            ) from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def check_fields(doc: dict, fields: dict, name: str, required=()) -> None:
    """Check a parsed JSON object against `fields`: each allowed key maps to a
    tuple ending in (rule, wording of a valid value). An unknown key, a missing
    `required` key or a rejected value raises :class:`ValidationError` naming
    `name`, the place of `doc` in its document (``""`` for the top level)."""
    unknown = ", ".join(f"{k!r} (got {v!r})" for k, v in doc.items() if k not in fields)
    if unknown:
        where = f"{name}: " if name else ""
        raise ValidationError(f"{where}unknown key(s) {unknown}; expected one of {sorted(fields)}")
    for key, (*_, valid, wording) in fields.items():
        where = f"{name}.{key}" if name else repr(key)
        if key in doc and not valid(doc[key]):
            raise ValidationError(f"{where} must be {wording}; got {doc[key]!r}")
        if key not in doc and key in required:
            raise ValidationError(f"{where} must be {wording}; it is missing")
