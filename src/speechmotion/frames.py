"""Uniform frame grids and named feature tracks, and the file codecs.

Every per-frame quantity in the pipeline (prosody, spectral coefficients,
emotion descriptors, marker displacements, region activeness, binary labels)
travels as a :class:`FeatureTrack`: a read-only ``n_frames x n_columns``
float matrix bound to a :class:`FrameGrid`. Missing values (marker dropouts,
propagated gaps) are NaN. Every table and JSON document the pipeline reads or
writes goes through one of the three codecs below.
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
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


def adopt(values) -> np.ndarray:
    """The read-only float64 array a value holds, made from `values`.

    A value takes ownership of the array it is given: a float64 ndarray is
    kept as it is, whatever its strides, and marked read-only, so its maker
    must not write to it (or to memory it views) afterwards. Anything else
    (a list, an integer array) is converted to a new float64 array.
    """
    array = np.asarray(values, dtype=np.float64)
    array.setflags(write=False)
    return array


def row_blocks(start: int, stop: int, size: int):
    """(lo, hi) bounds of `size`-row blocks covering rows start..stop-1.

    Every block has the same row count: the last one ends at `stop` and
    overlaps its predecessor, because a short tail block can round
    differently from a tall one (numpy sums a 1-row block in another order;
    OpenBLAS switches matrix kernels below 47 rows on an AVX-512 Xeon), so
    it could change the last bits of its rows. A range shorter than `size`
    is one block, as a whole-range pass computes it; an empty range none.
    """
    for lo in range(start, stop, size):
        lo = max(start, min(lo, stop - size))
        yield lo, min(lo + size, stop)


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
        vals = adopt(self.values)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.n_frames, len(cols)):
            raise ValueError(
                f"values shape {vals.shape} does not match "
                f"{self.grid.n_frames} frames x {len(cols)} columns"
            )
        if np.isinf(vals).any():
            raise ValueError("feature values must be finite or NaN")
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


def moments(z: np.ndarray, d_x: int | None = None) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, mean and centred cross-products of z's complete rows (copied only
    if one is not), for every AMMSE fit, fold and PCA: one symmetric product, or
    for a direct fit (`d_x` given) only the x-x and y-x blocks, each its own
    product, which round as a fit on copied rows."""
    complete = np.isfinite(z).all(axis=1)
    if not complete.all():
        z = z[complete]
    if len(z) == 0:
        return 0, 0.0, 0.0  # merges as the identity
    mu = z.mean(axis=0)
    if d_x is None:
        zc = z - mu
        return len(z), mu, zc.T @ zc
    xc, yc = z[:, :d_x] - mu[:d_x], z[:, d_x:] - mu[d_x:]
    return len(z), mu, np.vstack([xc.T @ xc, yc.T @ xc])


def merge_moments(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """Moments of two disjoint row sets (Chan, Golub & LeVeque 1979)."""
    (n_a, mu_a, m_a), (n_b, mu_b, m_b) = a, b
    if n_a == 0 or n_b == 0:
        return b if n_a == 0 else a
    n, delta = n_a + n_b, mu_b - mu_a
    return n, mu_a + delta * (n_b / n), m_a + m_b + np.outer(delta, delta) * (n_a * n_b / n)


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
# dropout. Rows are formatted a block at a time and parsed in one pass over
# the file, a chunk of whole lines at a time (:func:`row_chunks`), each chunk by
# numpy's C parser; nothing here loops over cells in Python except to fill a
# chunk's empty cells or to name a rejected row. :func:`read_rows` writes the
# chunks into one array; a reader that needs less than the whole table (the
# marker path of `align`) consumes them as they come.
#
# A table that one stage writes for a later one (features.csv, aligned.csv)
# also gets a parse memo, `<csv>.memo`: the CSV's byte count and zlib.crc32,
# then its rows as a float64 .npy array. A reader uses the rows only while both
# match the CSV on disk, and checks them as it checks parsed rows. repr
# round-trips and every NaN is stored as the NaN a parse makes, so the bits
# agree. A memo is a cache, safe to delete, and not an analysis output.

WRITE_BLOCK_ROWS = 512  # rows formatted per write; bounds the text held at once
MEMO_SUFFIX = ".memo"
_MEMO_CHECK = struct.Struct("<QI")  # the CSV's byte count and crc32


def _head(header, rate_hz: float | None) -> str:
    rate = "" if rate_hz is None else f"# rate_hz={rate_hz!r}\n"
    return rate + ",".join(header) + "\n"


def _table_blocks(header, times: np.ndarray, values, rate_hz: float | None):
    """A table's bytes in write order, each block of rows with its float64 values."""
    yield _head(header, rate_hz).encode(), None
    # disjoint blocks: row_blocks' overlapping last block would write rows twice
    for lo in range(0, len(times), WRITE_BLOCK_ROWS):
        hi = lo + WRITE_BLOCK_ROWS
        block = np.column_stack((times[lo:hi], *(v[lo:hi] for v in values)))
        text = "\n".join([",".join(map(repr, row)) for row in block.tolist()]) + "\n"
        missing = np.isnan(block)
        if missing.any():
            # repr spells NaN "nan", and no other float's repr contains it
            text = text.replace("nan", "")
            block[missing] = np.nan  # the one NaN a parse of "" returns
        yield text.encode(), block


def write_table(
    path, header, times: np.ndarray, *values: np.ndarray,
    rate_hz: float | None = None, memo: bool = False,
) -> None:
    """Write an optional rate comment, the header and one `time,v1,...` row per frame.

    `values` are 2-D arrays whose columns follow `times` in order; they are
    joined one block of rows at a time, never as a whole table. Each row's
    bytes equal ``",".join(map(format_value, row))``. With `memo`, the same
    blocks also go to ``<path>.memo``, whose count and checksum go in last.
    A column name holding a comma or a line break, which no reader could
    split back out, raises :class:`ValidationError` before the file is opened.
    """
    path = str(path)
    if bad := [name for name in header if any(c in name for c in ",\r\n")]:
        raise ValidationError(f"{path}: column name {bad[0]!r} holds a comma or a line break")
    blocks = _table_blocks(header, times, values, rate_hz)
    with open(path, "wb") as fh:
        if not memo:
            for text, _ in blocks:
                fh.write(text)
            return
        with open(path + MEMO_SUFFIX, "wb") as cache:
            cache.write(bytes(_MEMO_CHECK.size))  # zero until the end: a cut write never matches
            np.lib.format.write_array_header_1_0(
                cache, {"descr": "<f8", "fortran_order": False, "shape": (len(times), len(header))}
            )
            size = crc = 0
            for text, block in blocks:
                fh.write(text)
                size, crc = size + len(text), zlib.crc32(text, crc)
                if block is not None:
                    cache.write(block.astype("<f8", copy=False))
            cache.seek(0)
            cache.write(_MEMO_CHECK.pack(size, crc))


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


# characters of whole lines parsed at a time: SCAN_CHARS, then the rest of
# the line they end in. A chunk's text, its lines and its rows are what the
# parse holds beyond its output: with 1 MiB chunks `align` peaks on
# oracle_many at 43.6 MiB RSS, with 64 KiB ones at 38.2 MiB, and 16 KiB
# ones save another 0.1 MiB at more calls into numpy
SCAN_CHARS = 1 << 16


def _dense(text: str) -> bool:
    """Whether `text`, whole lines of a table, has a line, and neither an
    empty cell nor a blank line: no two separators (comma or newline) in a
    row, counting the line start before it, and no comma at its end."""
    if not text:
        return False
    codes = np.frombuffer(text.encode(), np.uint8)
    separator = codes == ord(",")
    separator |= codes == ord("\n")
    return not (separator[0] or (separator[1:] & separator[:-1]).any() or text[-1] == ",")


def _filled_lines(lines, first_line: int, blank_lines: list[int]):
    """`lines` with each empty cell spelled ``nan``; blank lines are skipped
    and their numbers appended to `blank_lines`."""
    for line_no, line in enumerate(lines, start=first_line):
        if not line:
            blank_lines.append(line_no)
            continue
        if ",," in line or line[0] == "," or line[-1] == ",":
            line = ",".join([cell or "nan" for cell in line.split(",")])
        yield line


def _bad_row(lines, path: str, first_line: int, n_cells: int) -> MalformedRowError | None:
    """The error for the first of `lines` that has the wrong cell count, a
    cell that is not a number or an infinite cell, or None if there is no
    such line."""
    for line_no, line in enumerate(lines, start=first_line):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != n_cells:
            return MalformedRowError(
                f"{path}:{line_no}: expected {n_cells} cells, got {len(cells)}"
            )
        for cell in cells:
            try:
                # numpy's parser, not `float`, which also reads `1_0` and other digits
                value = np.loadtxt([cell], delimiter=",", comments=None).item() if cell else 0.0
            except ValueError:
                return MalformedRowError(
                    f"{path}:{line_no}: cannot parse {cell!r} as a number"
                )
            if math.isinf(value):
                return MalformedRowError(
                    f"{path}:{line_no}: a cell is infinite; cells must be finite numbers or empty"
                )
    return None


def line_map(first_line: int, blank_lines: list[int]):
    """The function mapping a row index to its file line, for rows that start
    at `first_line` with the blank lines `blank_lines` (ascending) skipped."""
    def line_of(row: int) -> int:
        line = first_line + row
        for blank in blank_lines:
            if blank > line:
                break
            line += 1
        return line

    return line_of


def row_chunks(fh, path: str, first_line: int, n_cells: int, blank_lines: list[int]):
    """Parse the rest of an open table in one pass, a chunk of whole lines at
    a time (SCAN_CHARS characters, then the rest of the last line), yielding
    each chunk's rows as an ``(n, n_cells)`` float64 array.

    `first_line` is the file line number of the next line; the numbers of
    blank lines, which are skipped, are appended to `blank_lines`, so
    ``line_map(first_line, blank_lines)`` names the line of every row yielded
    so far. Empty cells become NaN. A chunk with neither an empty cell nor a
    blank line goes to numpy's parser as its lines; any other chunk goes
    through :func:`_filled_lines` first. The first row in the file with the wrong cell count, a
    non-numeric cell or an infinite cell raises :class:`MalformedRowError`
    naming ``path:line``, whatever the chunks; so does a rest with no row.
    """
    line, n_rows = first_line, 0
    while text := fh.read(SCAN_CHARS):
        if text[-1] != "\n":
            text += fh.readline()
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # the last newline ends a line, it does not start one
        filled = lines if _dense(text) else list(_filled_lines(lines, line, blank_lines))
        if filled:
            try:
                data = np.loadtxt(filled, delimiter=",", comments=None, dtype=np.float64, ndmin=2)
            except ValueError as exc:
                # numpy's message counts the chunk's rows from 0 and skips
                # blank lines; rescan to name the file line of the first
                # bad row, which may be an infinite one before the rejected
                raise _bad_row(lines, path, line, n_cells) or MalformedRowError(
                    f"{path}: {exc}"
                ) from None
            if data.shape[1] != n_cells or np.isinf(data).any():
                # every row has the same wrong cell count, or one is infinite
                raise _bad_row(lines, path, line, n_cells)
            n_rows += len(data)
            yield data
        line += len(lines)
    if n_rows == 0:
        raise MalformedRowError(f"{path}: no data rows")


class GrowingRows:
    """Rows appended, chunk by chunk, to one float64 array that grows in place.

    :meth:`reserve` allocates room for a caller's estimate of the row count
    (see :func:`rows_estimate`) before the first append; an append that
    overflows the room grows the array by a quarter (numpy's resize
    zero-fills the new rows), and :meth:`take` shrinks it to the rows
    appended. No list of chunks is held, and no second copy of the rows.
    """

    def __init__(self, row_shape=()):
        self.array = np.empty((0, *row_shape))
        self.n = 0

    def reserve(self, n_rows: int) -> None:
        if self.n == 0 and n_rows > len(self.array):
            self.array = np.empty((n_rows, *self.array.shape[1:]))

    def append(self, rows: np.ndarray) -> None:
        end = self.n + len(rows)
        if end > len(self.array):
            self.array.resize((max(end, len(self.array) * 5 // 4), *self.array.shape[1:]),
                              refcheck=False)
        self.array[self.n:end] = rows
        self.n = end

    def take(self) -> np.ndarray:
        self.array.resize((self.n, *self.array.shape[1:]), refcheck=False)
        return self.array


def rows_estimate(fh, first_chunk: np.ndarray) -> int:
    """The rows of an open table's rest, guessed from the rows of the first
    chunk :func:`row_chunks` yields: that many for each of the SCAN_CHARS
    chunks the file's bytes could hold, about the row count when rows are
    of one length."""
    return len(first_chunk) * -(-os.fstat(fh.fileno()).st_size // SCAN_CHARS)


def read_rows(fh, path: str, first_line: int, n_cells: int):
    """Parse the rest of an open table into an ``(n_rows, n_cells)`` float64 array.

    The chunks of :func:`row_chunks` are written into one array as they
    come. Returns the array and a function mapping a row index to its file
    line; raises what :func:`row_chunks` raises.
    """
    blank_lines: list[int] = []
    data = GrowingRows((n_cells,))
    for rows in row_chunks(fh, path, first_line, n_cells, blank_lines):
        if not data.n:
            data.reserve(rows_estimate(fh, rows))
        data.append(rows)
    return data.take(), line_map(first_line, blank_lines)


def _checksum(path: str) -> bytes:
    size = crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size, crc = size + len(chunk), zlib.crc32(chunk, crc)
    return _MEMO_CHECK.pack(size, crc)


def read_table_rows(fh, path: str, first_line: int, n_cells: int):
    """:func:`read_rows`, or the same rows from ``<path>.memo`` when its count
    and checksum match `path`'s bytes and it holds `n_cells` float64 columns;
    any other memo is ignored. Memo rows are used only if each has a time and
    no infinite cell: then no line was blank and the parse would reject no
    row, so row i is on line first_line + i."""
    try:
        with open(path + MEMO_SUFFIX, "rb") as cache:
            fresh = cache.read(_MEMO_CHECK.size) == _checksum(path)
            data = np.lib.format.read_array(cache) if fresh else None
    except (OSError, ValueError):
        data = None
    if (
        data is None or data.dtype != np.float64 or data.shape[1:] != (n_cells,)
        or len(data) == 0 or np.isnan(data[:, 0]).any() or np.isinf(data).any()
    ):
        return read_rows(fh, path, first_line, n_cells)
    return data, lambda row: first_line + row


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


def read_rated_table(path, rate_hz: float | None = None):
    """Read a rated table: its grid, its header, the values after `time_s` and
    the function mapping a row index to its file line. A table whose caller
    gives its `rate_hz` has no rate comment."""
    path = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        rate, first_line = (read_rate_comment(fh, path), 3) if rate_hz is None else (rate_hz, 2)
        header = read_header(fh, path)
        data, line_of = read_table_rows(fh, path, first_line, n_cells=len(header))
    return grid_of(data[:, 0], rate, path, line_of), header, data[:, 1:], line_of


def write_feature_csv(track: FeatureTrack, path, memo: bool = False) -> None:
    """Write `# rate_hz=` comment, `time_s,<col>,...` header, one row per frame,
    with a parse memo if `memo` (see :func:`write_table`)."""
    write_table(
        path, ("time_s",) + track.columns, track.grid.timestamps(), track.values,
        rate_hz=track.grid.rate_hz, memo=memo,
    )


def read_feature_csv(path) -> FeatureTrack:
    """Load a feature CSV written by :func:`write_feature_csv`; a header with
    no column after `time_s` or a repeated column name raises
    :class:`MalformedRowError` naming the header line."""
    grid, header, values, _ = read_rated_table(path)
    if len(header) == 1:
        raise MalformedRowError(f"{path}:2: no feature column after time_s")
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
        fh.write(_head(header, rate_hz))
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
