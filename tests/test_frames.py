import json
import math
import re
import struct
import tempfile
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from speechmotion import frames
from speechmotion.errors import (
    MalformedRowError,
    NonMonotoneTimeError,
    OffGridTimeError,
    ValidationError,
    ValueOutOfRangeError,
)
from speechmotion.frames import (
    WRITE_BLOCK_ROWS,
    FeatureTrack,
    FrameGrid,
    concat_columns,
    flag,
    format_value,
    grid_over_span,
    iter_records,
    number,
    read_feature_csv,
    read_header,
    read_json_object,
    read_rate_comment,
    read_records,
    read_rows,
    read_table_rows,
    write_feature_csv,
    write_json,
    write_records,
    write_table,
)
from speechmotion.ingest import AudioClip


class TestFrameGrid:
    def test_timestamp_expression(self):
        g = FrameGrid(60.24, 4.0, 100)
        for i in (0, 1, 57, 99):
            assert g.timestamp(i) == 4.0 + i / 60.24
        assert np.array_equal(g.timestamps(), 4.0 + np.arange(100) / 60.24)

    def test_end_and_duration(self):
        g = FrameGrid(10.0, 1.0, 11)
        assert g.end_s == 2.0
        assert g.duration_s == pytest.approx(1.1)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FrameGrid(0.0, 0.0, 5)

    def test_grid_over_span(self):
        g = grid_over_span(60.24, 4.0, 64.0)
        assert g.n_frames == int(math.floor(60.0 * 60.24)) + 1
        assert g.end_s <= 64.0


class TestFeatureTrack:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureTrack(FrameGrid(10.0, 0.0, 3), ("a",), np.zeros((4, 1)))

    def test_duplicate_columns(self):
        with pytest.raises(ValueError):
            FeatureTrack(FrameGrid(10.0, 0.0, 2), ("a", "a"), np.zeros((2, 2)))

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            FeatureTrack(FrameGrid(10.0, 0.0, 1), ("a",), np.array([[np.inf]]))

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\rb"])
    def test_a_column_name_no_reader_can_split_is_refused_before_writing(self, tmp_path, name):
        track = FeatureTrack(FrameGrid(10.0, 0.0, 2), ("ok", name), np.zeros((2, 2)))
        path = tmp_path / "t.csv"
        with pytest.raises(ValidationError, match=re.escape(f"{path}: column name {name!r}")):
            frames.write_feature_csv(track, path)
        assert not path.exists()

    def test_values_read_only(self):
        track = FeatureTrack(FrameGrid(10.0, 0.0, 2), ("a",), np.zeros(2))
        with pytest.raises(ValueError):
            track.values[0, 0] = 1.0

    @pytest.mark.parametrize("make, shape", [
        (lambda v: FeatureTrack(FrameGrid(10.0, 0.0, 4), ("a", "b"), v).values, (4, 2)),
        (lambda v: AudioClip(v, 16000).stored, (4, 2)),
    ], ids=["FeatureTrack", "AudioClip"])
    def test_value_adopts_and_freezes_its_array(self, make, shape):
        """A float64 array is held as it is, strides and all, and frozen;
        a list or an integer array is converted to a new float64 array."""
        wide = np.arange(2 * math.prod(shape), dtype=np.float64) / (4 * math.prod(shape))
        given = wide.reshape(*shape[:-1], 2 * shape[-1])[..., ::2]
        assert given.flags.writeable and not given.flags.c_contiguous
        held = make(given)
        assert np.shares_memory(held, given)
        assert not held.flags.writeable
        ints = np.zeros(shape, dtype=np.int64)
        for other in (ints, ints.tolist()):
            converted = make(other)
            assert converted.dtype == np.float64 and not converted.flags.writeable
            assert not np.shares_memory(converted, ints)
        assert ints.flags.writeable

    def test_select_and_concat(self):
        g = FrameGrid(10.0, 0.0, 3)
        t1 = FeatureTrack(g, ("a", "b"), np.arange(6.0).reshape(3, 2))
        t2 = FeatureTrack(g, ("c",), np.arange(3.0))
        merged = concat_columns(t1.select(["b"]), t2)
        assert merged.columns == ("b", "c")
        assert np.array_equal(merged.column("b"), [1.0, 3.0, 5.0])
        with pytest.raises(ValueError, match="grids differ"):
            concat_columns(t1, FeatureTrack(FrameGrid(20.0, 0.0, 3), ("c",), np.arange(3.0)))


class TestCsv:
    @pytest.mark.parametrize("seed", range(12))
    def test_round_trip_exact(self, seed, tmp_path):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 30))
        cols = tuple(f"c{i}" for i in range(int(rng.integers(1, 4))))
        values = rng.standard_normal((n, len(cols)))
        values[rng.uniform(size=values.shape) < 0.15] = np.nan
        track = FeatureTrack(FrameGrid(120.0, float(rng.uniform(0, 5)), n), cols, values)
        path = tmp_path / "t.csv"
        write_feature_csv(track, path)
        back = read_feature_csv(path)
        assert back.columns == track.columns
        assert back.grid.rate_hz == track.grid.rate_hz
        assert np.array_equal(np.isnan(back.values), np.isnan(track.values))
        finite = np.isfinite(track.values)
        assert np.array_equal(back.values[finite], track.values[finite])

    def test_missing_rate_comment(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time_s,a\n0.0,1.0\n")
        with pytest.raises(MalformedRowError):
            read_feature_csv(p)

    def test_non_monotone_time(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# rate_hz=10.0\ntime_s,a\n0.1,1.0\n0.1,2.0\n")
        with pytest.raises(NonMonotoneTimeError):
            read_feature_csv(p)

    def test_format_value(self):
        assert format_value(float("nan")) == ""
        assert format_value(0.1) == "0.1"
        assert float(format_value(1 / 3)) == 1 / 3


def reference_rows(path, first_line: int, n_cells: int) -> np.ndarray:
    """Per-cell parser the codec's reader must agree with: empty cells are NaN,
    blank lines are skipped, errors name ``path:line``."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for _ in range(first_line - 1):
            fh.readline()
        for line_no, line in enumerate(fh, start=first_line):
            line = line.rstrip("\n")
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != n_cells:
                raise MalformedRowError(f"{path}:{line_no}: expected {n_cells} cells")
            try:
                rows.append([float(c) if c else math.nan for c in cells])
            except ValueError:
                raise MalformedRowError(f"{path}:{line_no}: not a number") from None
    if not rows:
        raise MalformedRowError(f"{path}: no data rows")
    return np.array(rows)


def codec_rows(path, n_cells: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        read_header(fh, str(path))
        data, _ = read_rows(fh, str(path), first_line=2, n_cells=n_cells)
    return data


def _outcome(read, *args):
    try:
        return read(*args)
    except MalformedRowError as exc:
        return type(exc), str(exc).split(": ")[0]


PARITY_BODIES = {
    "dropout_first_column": b",2.5,3\n4,5,6\n,,1e-300\n",
    "dropout_middle_column": b"1,,3\n4,5,6\n",
    "dropout_last_column": b"1,2,\n4,5,6\n7,8,",
    "dropouts_everywhere": b",,\n-0.0,,5e-324\n",
    "blank_lines": b"\n1,2,3\n\n\n4,5,6\n\n",
    "crlf": b"1,2,3\r\n4,,6\r\n\r\n7,8,9\r\n",
    "non_numeric_cell": b"1,2,3\n\n4,x,6\n",
    "short_row": b"1,2,3\n4,5\n",
    "long_row": b"1,2,3\n4,5,6,7\n",
    "hash_mid_file": b"1,2,3\n# note\n4,5,6\n",
    "every_row_short": b"1,2\n3,4\n",
    "no_rows": b"\n\n",
}


class TestTableCodec:
    @pytest.mark.parametrize("body", PARITY_BODIES.values(), ids=PARITY_BODIES.keys())
    def test_reader_matches_per_cell_reference(self, tmp_path, body):
        p = tmp_path / "t.csv"
        p.write_bytes(b"time_s,a,b\n" + body)
        expected = _outcome(reference_rows, p, 2, 3)
        got = _outcome(codec_rows, p, 3)
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert isinstance(got, np.ndarray)
            assert np.array_equal(got, expected, equal_nan=True)
            assert np.array_equal(np.signbit(got), np.signbit(expected))

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(0, 12), st.integers(1, 6)),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.sampled_from(
                    [0.0, -0.0, math.nan, 5e-324, -5e-324, 1e300, -1e300, 1e-300,
                     -1e-300, 1.0, -7.0, 2.0**53, 1e16]
                ),
            ),
        )
    )
    def test_writer_bytes_match_per_cell_format_value(self, table):
        header = ["time_s"] + [f"c{j}" for j in range(table.shape[1] - 1)]
        reference = "# rate_hz=120.0\n" + ",".join(header) + "\n" + "".join(
            ",".join(format_value(v) for v in row) + "\n" for row in table
        )
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            write_table(p, header, table[:, 0], table[:, 1:], rate_hz=120.0)
            assert p.read_bytes() == reference.encode("utf-8")

    def test_writer_spans_several_blocks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 2 * WRITE_BLOCK_ROWS + 5
        values = rng.standard_normal((n, 2))
        values[rng.uniform(size=values.shape) < 0.1] = np.nan
        track = FeatureTrack(FrameGrid(120.0, -0.5, n), ("a", "b"), values)
        write_feature_csv(track, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert len(lines) == 2 + n
        times = track.grid.timestamps()
        for i in (0, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, n - 1):
            cells = [format_value(v) for v in (times[i], *values[i])]
            assert lines[2 + i] == ",".join(cells)


    @pytest.mark.parametrize("cell", ["1_0", "\u0661"])
    def test_a_cell_numpy_rejects_names_its_line(self, tmp_path, cell):
        # Python's float reads both (10.0 and 1.0); numpy's parser does not
        p = tmp_path / "t.csv"
        p.write_text(f"# rate_hz=10.0\ntime_s,a\n0.0,1\n0.1,{cell}\n", encoding="utf-8")
        with pytest.raises(MalformedRowError) as exc:
            read_feature_csv(p)
        assert str(exc.value) == f"{p}:4: cannot parse {cell!r} as a number"

    def test_infinite_cell_names_its_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# rate_hz=10.0\ntime_s,a\n0.0,1\n\n0.1,-inf\n0.2,inf\n")
        with pytest.raises(MalformedRowError, match=rf"^{re.escape(str(p))}:5: .*infinite"):
            read_feature_csv(p)


_CELLS = st.one_of(
    st.just(""),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "5e-324", "1e300", "7", "x", "inf", "nan", " "]),
)


@st.composite
def table_text(draw):
    """The rest of a 3-cell table: rows with empty cells anywhere in a line,
    blank lines, now and then a row of the wrong length or a cell that is
    not a number, and zero to two last newlines."""
    lines = draw(st.lists(
        st.one_of(st.lists(_CELLS, min_size=3, max_size=3), st.lists(_CELLS, max_size=4)),
        max_size=8,
    ))
    text = "\n".join(",".join(cells) for cells in lines)
    return text + draw(st.sampled_from(["", "\n", "\n\n"]))


def _rows_outcome(path):
    """(rows' bit pattern, each row's line) or (error class, message) of read_rows."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            read_header(fh, str(path))
            data, line_of = read_rows(fh, str(path), first_line=2, n_cells=3)
    except MalformedRowError as exc:
        return type(exc), str(exc)
    return data.view(np.uint64).tobytes(), data.shape, [line_of(i) for i in range(len(data))]


class TestDenseReader:
    """A chunk with no empty cell and no blank line goes to numpy as its
    lines; it must read as each line through `_filled_lines` does."""

    @settings(max_examples=300, deadline=None)
    @given(text=table_text(), scan_chars=st.integers(1, 24))
    def test_open_file_and_filled_lines_read_alike(self, text, scan_chars):
        lines = text.split("\n")
        if lines[-1] == "":
            lines.pop()  # the last newline ends a line, it does not start one
        expect_dense = bool(lines) and all(all(line.split(",")) for line in lines)
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "t.csv"
            p.write_text("time_s,a,b\n" + text, encoding="utf-8")
            with mock.patch.object(frames, "SCAN_CHARS", scan_chars):
                with open(p, encoding="utf-8") as fh:
                    fh.readline()
                    assert frames._dense(fh.read()) is expect_dense
                got = _rows_outcome(p)
            with mock.patch.object(frames, "_dense", lambda text: False):
                expected = _rows_outcome(p)
        assert got == expected

    @pytest.mark.parametrize("scan_chars", [7, 8, 9])
    def test_an_empty_cell_across_a_chunk_boundary_is_found(self, tmp_path, scan_chars):
        # the rest "1,2,3\n4,,6\n" has its `,,` at characters 7 and 8; a read
        # of 7, 8 or 9 characters runs on to the end of its line, so the
        # chunk holds the whole `,,`
        p = tmp_path / "t.csv"
        p.write_text("time_s,a,b\n1,2,3\n4,,6\n")
        with mock.patch.object(frames, "SCAN_CHARS", scan_chars):
            with open(p) as fh:
                fh.readline()
                assert not frames._dense(fh.read())
            data = codec_rows(p, 3)
        assert np.array_equal(data, [[1, 2, 3], [4, np.nan, 6]], equal_nan=True)


class TestGridCheck:
    def _write(self, path, times, rate=10.0):
        rows = "".join(f"{t!r},1.0\n" for t in times)
        path.write_text(f"# rate_hz={rate!r}\ntime_s,a\n" + rows)

    def test_rows_cut_out_are_off_grid(self, tmp_path):
        times = [i / 10.0 for i in range(30)]
        p = tmp_path / "t.csv"
        self._write(p, times[:12] + times[22:])
        with pytest.raises(OffGridTimeError, match=rf"^{re.escape(str(p))}:15: "):
            read_feature_csv(p)

    def test_blank_lines_count_toward_the_named_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# rate_hz=10.0\ntime_s,a\n0.0,1\n\n0.1,1\n\n0.3,1\n")
        with pytest.raises(OffGridTimeError, match=rf"^{re.escape(str(p))}:7: "):
            read_feature_csv(p)

    def test_jitter_below_half_a_frame_is_accepted(self, tmp_path):
        p = tmp_path / "t.csv"
        self._write(p, [i / 10.0 + (0.049 if i % 2 else 0.0) for i in range(20)])
        track = read_feature_csv(p)
        assert track.grid == FrameGrid(10.0, 0.0, 20)

    def test_empty_time_cell_names_its_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("# rate_hz=10.0\ntime_s,a\n0.0,1\n,2\n")
        with pytest.raises(MalformedRowError, match=rf"^{re.escape(str(p))}:4: "):
            read_feature_csv(p)


def _negative_nan() -> float:
    with np.errstate(invalid="ignore"):
        return float(np.float64(np.inf) - np.float64(np.inf))  # x86 sets the sign bit


def _read_outcome(path):
    """(values' bit pattern, grid, columns) or (error class, message) of a read."""
    try:
        track = read_feature_csv(path)
    except ValidationError as exc:
        return type(exc), str(exc)
    return track.values.view(np.uint64).tobytes(), track.grid, track.columns


def _memo_track(n: int = 2 * WRITE_BLOCK_ROWS + 7) -> FeatureTrack:
    """Three blocks of rows with NaN dropouts of either sign, -0.0 and extremes."""
    rng = np.random.default_rng(11)
    values = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
    values[rng.uniform(size=values.shape) < 0.1] = np.nan
    values[5, 0], values[6, 1], values[7, 2] = _negative_nan(), -0.0, 5e-324
    values[10, 1] = 0.25
    return FeatureTrack(FrameGrid(120.0, -0.5, n), ("a", "b", "c", "d"), values)


def _memo_damage(path: Path, damage: str) -> None:
    """Edit a memo-backed feature CSV, or its memo, in one way."""
    memo = Path(f"{path}.memo")
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    if damage == "one_byte_edited":  # values[10, 1] 0.25 -> 0.35
        path.write_text(text.replace(",0.25,", ",0.35,", 1))
    elif damage == "row_dropped":
        path.write_text("".join(lines[:40] + lines[41:]))
    elif damage == "columns_swapped":
        header = lines[1].rstrip("\n").split(",")
        header[1], header[2] = header[2], header[1]
        path.write_text("".join([lines[0], ",".join(header) + "\n", *lines[2:]]))
    elif damage == "memo_missing":
        memo.unlink()
    elif damage == "memo_truncated":
        memo.write_bytes(memo.read_bytes()[:-100])
    elif damage == "memo_cut_in_its_head":
        memo.write_bytes(memo.read_bytes()[:10])
    elif damage == "memo_zeroed":
        memo.write_bytes(bytes(memo.stat().st_size))
    else:  # a memo that matches the CSV's bytes but not its shape, dtype or values
        check = struct.pack("<QI", len(path.read_bytes()), zlib.crc32(path.read_bytes()))
        rows = np.loadtxt(lines[2:], delimiter=",", converters=lambda c: float(c or "nan"))
        if damage == "memo_wrong_shape":
            rows = rows[:, 1:]
        elif damage == "memo_float32":
            rows = np.zeros(rows.shape, np.float32)
        elif damage == "memo_infinite":
            rows = np.where(np.isnan(rows), np.inf, rows)
        else:
            rows = rows[:0]
        with open(memo, "wb") as fh:
            fh.write(check)
            np.lib.format.write_array(fh, rows)


class TestParseMemo:
    """`<csv>.memo` stands in for a parse only while it matches the CSV."""

    def test_memo_hit_returns_the_bits_a_parse_returns(self, tmp_path, parses):
        track = _memo_track()
        write_feature_csv(track, tmp_path / "m.csv", memo=True)
        write_feature_csv(track, tmp_path / "p.csv")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
        assert not (tmp_path / "p.csv.memo").exists()
        hit, parsed = _read_outcome(tmp_path / "m.csv"), _read_outcome(tmp_path / "p.csv")
        assert parses == ["p.csv"]
        assert hit == parsed
        values = read_feature_csv(tmp_path / "m.csv").values
        # a NaN is stored as the one NaN a parse of an empty cell makes
        assert np.isnan(values[5, 0]) and not np.signbit(values[5, 0])
        assert np.signbit(values[6, 1]) and values[7, 2] == 5e-324

    @pytest.mark.parametrize(
        "damage",
        ["one_byte_edited", "row_dropped", "columns_swapped", "memo_missing",
         "memo_truncated", "memo_cut_in_its_head", "memo_zeroed", "memo_wrong_shape",
         "memo_float32", "memo_infinite", "memo_no_rows"],
    )
    def test_a_memo_that_does_not_match_is_ignored(self, tmp_path, parses, damage):
        path = tmp_path / "t.csv"
        write_feature_csv(_memo_track(), path, memo=True)
        _memo_damage(path, damage)
        got = _read_outcome(path)
        assert parses == ["t.csv"]
        Path(f"{path}.memo").unlink(missing_ok=True)
        assert got == _read_outcome(path)
        if damage == "one_byte_edited":
            assert read_feature_csv(path).values[10, 1] == 0.35
        if damage == "row_dropped":
            assert got[0] is OffGridTimeError and got[1].startswith(f"{path}:41: time_s")

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                st.sampled_from([0.0, -0.0, math.nan, _negative_nan(), 5e-324, 1e300]),
            ),
        )
    )
    def test_rows_from_a_memo_equal_parsed_rows(self, table):
        header = ["time_s"] + [f"c{j}" for j in range(table.shape[1] - 1)]
        with tempfile.TemporaryDirectory() as tmp:
            p = str(Path(tmp) / "t.csv")
            write_table(p, header, table[:, 0], table[:, 1:], memo=True)
            outcomes = []
            for read in (read_table_rows, read_rows):
                with open(p, encoding="utf-8") as fh:
                    fh.readline()
                    outcomes.append(_outcome(lambda: read(fh, p, 2, len(header))[0]))
        memo, parsed = outcomes
        assert type(memo) is type(parsed)
        if isinstance(parsed, tuple):  # an infinite cell, or no row with a time
            assert memo == parsed
        else:
            assert memo.view(np.uint64).tobytes() == parsed.view(np.uint64).tobytes()


RECORD_HEADER = ("label", "count", "ok", "x")
RECORD_CONVERTERS = (str, int, flag, number)


def reference_record_cell(value) -> str:
    """Per-cell rule the record writer must agree with."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _in_range(cell: str) -> float:
    value = float(cell)
    if value > 1.0:
        raise ValueOutOfRangeError(f"x {value} above 1")
    return value


class TestRecordCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcXYZ019_|.:- ", max_size=8),
                st.integers(-(10**15), 10**15),
                st.booleans(),
                st.one_of(
                    st.none(),
                    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    st.sampled_from(
                        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e300, 0.41]
                    ),
                ),
            ),
            max_size=8,
        ),
        st.sampled_from([None, 120.0, 60.24]),
    )
    def test_writer_bytes_match_per_cell_join_and_round_trip(self, rows, rate):
        reference = (f"# rate_hz={rate!r}\n" if rate is not None else "") + "".join(
            ",".join(map(reference_record_cell, row)) + "\n" for row in [RECORD_HEADER, *rows]
        )
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "r.csv"
            write_records(p, RECORD_HEADER, rows, rate_hz=rate)
            assert p.read_bytes() == reference.encode("utf-8")
            with open(p, "r", encoding="utf-8") as fh:
                if rate is not None:
                    assert read_rate_comment(fh, str(p)) == rate
                back = list(
                    iter_records(fh, str(p), 1 if rate is None else 2, RECORD_HEADER,
                                 RECORD_CONVERTERS)
                )
        first = 2 if rate is None else 3
        assert [line for line, _ in back] == list(range(first, first + len(rows)))
        for (label, count, ok, x), (_, got) in zip(rows, back):
            assert got[:3] == [label, count, ok]
            assert repr(got[3]) == repr(math.nan if x is None else x)

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("label,count,ok,x\n\na,1,0,\n  \nb,-2,1,0.5\n")
        rows = read_records(p, RECORD_HEADER, RECORD_CONVERTERS)
        assert rows[0][:3] == ["a", 1, False] and math.isnan(rows[0][3])
        assert rows[1] == ["b", -2, True, 0.5]

    @pytest.mark.parametrize(
        "text, line, error",
        [
            ("label,count,x\n", 1, MalformedRowError),
            ("", 1, MalformedRowError),
            ("label,count,ok,x\na,1,0,1\n\nb,1,0\n", 4, MalformedRowError),
            ("label,count,ok,x\na,1,0,1,2\n", 2, MalformedRowError),
            ("label,count,ok,x\na,1.5,0,1\n", 2, MalformedRowError),
            ("label,count,ok,x\na,1,zz,1\n", 2, MalformedRowError),
            ("label,count,ok,x\na,1,0,y\n", 2, MalformedRowError),
            ("label,count,ok,x\na,1,0,0.5\nb,1,0,2.0\n", 3, ValueOutOfRangeError),
        ],
        ids=["header", "empty_file", "short_row", "long_row", "bad_int", "bad_flag",
             "bad_number", "converter_error_class"],
    )
    def test_reader_errors_name_path_and_line(self, tmp_path, text, line, error):
        p = tmp_path / "r.csv"
        p.write_text(text)
        converters = (str, int, flag, _in_range)
        with pytest.raises(error, match=rf"^{re.escape(str(p))}:{line}: ") as info:
            read_records(p, RECORD_HEADER, converters)
        assert type(info.value) is error


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)


class TestJsonCodec:
    @settings(max_examples=200, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=6),
            st.recursive(
                JSON_SCALARS,
                lambda inner: st.lists(inner, max_size=4)
                | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                max_leaves=12,
            ),
            max_size=6,
        )
    )
    def test_writer_bytes_match_dumps_and_round_trip(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            p = Path(tmp) / "d.json"
            write_json(p, doc)
            assert p.read_bytes() == (json.dumps(doc, indent=2) + "\n").encode("utf-8")
            assert repr(read_json_object(p)) == repr(doc)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("{not json", ":1:2: malformed JSON"),
            ('{\n  "a": [1,\n    2,,\n  ]\n}', ":3:7: malformed JSON"),
            ("", ":1:1: malformed JSON"),
            ("[1, 2]", ": expected a JSON object, got list"),
            (b'{"a": "\xff"}', ": not UTF-8 text: "),
        ],
        ids=["bare_key", "double_comma", "empty", "top_level_list", "not_utf8"],
    )
    def test_reader_errors_name_path_line_and_column(self, tmp_path, text, where):
        p = tmp_path / "d.json"
        p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
        with pytest.raises(ValidationError) as info:
            read_json_object(p)
        assert str(info.value).startswith(f"{p}{where}")


def _moments_of_copied_rows(z, d_x=None):
    """The rule `moments` replaced, kept here: copy the complete rows, then reduce."""
    z = z[np.isfinite(z).all(axis=1)]
    if len(z) == 0:
        return 0, 0.0, 0.0
    mu = z.mean(axis=0)
    if d_x is None:
        zc = z - mu
        return len(z), mu, zc.T @ zc
    xc, yc = z[:, :d_x] - mu[:d_x], z[:, d_x:] - mu[d_x:]
    return len(z), mu, np.vstack([xc.T @ xc, yc.T @ xc])


class TestMoments:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 200),
        d=st.integers(1, 9),
        shift=st.integers(0, 7),
        incomplete=st.sampled_from([0.0, 0.1, 0.5]),
        direct=st.booleans(),
    )
    def test_row_slice_views_reduce_as_their_copied_rows(
        self, seed, n, d, shift, incomplete, direct
    ):
        # `shift` float64s into a fresh buffer moves every row's start by
        # 8-byte steps, so starts that are 8- but not 16-byte aligned occur
        # (as in a fold of an odd-width [x | y] matrix)
        rng = np.random.default_rng(seed)
        buffer = np.empty(shift + n * d)
        z = buffer[shift:].reshape(n, d)
        z[...] = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 4, size=d)
        z[rng.random((n, d)) < incomplete / d] = np.nan
        d_x = int(rng.integers(1, d)) if direct and d > 1 else None
        for lo in range(n):
            hi = int(rng.integers(lo, n + 1))
            got = frames.moments(z[lo:hi], d_x)
            expected = _moments_of_copied_rows(np.array(z[lo:hi]), d_x)
            assert got[0] == expected[0]
            for a, b in zip(got[1:], expected[1:]):
                assert np.array_equal(a, b)
