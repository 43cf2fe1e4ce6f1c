"""Marker kinematics: region segmentation, displacement magnitudes, activeness.

Input marker trajectories are assumed head-stabilized; no rigid-motion
compensation happens here. Head markers are kept as their own region so head
movement is quantified like any other region.

The kinematics work in ROW_BLOCK-row blocks, so their temporaries do not
grow with the track. `align` does not hold a track's positions at all: an
:class:`ActivenessStream` takes them a chunk of parsed rows at a time and
keeps only the activeness.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    InconsistentMarkerSetError, MalformedRowError, TooFewFramesError, UnknownMarkerInMapError,
    ValidationError,
)
from .frames import (
    FeatureTrack, FrameGrid, GrowingRows, flag, iter_records, number, read_json_object,
    row_blocks, write_json, write_records,
)

if TYPE_CHECKING:
    from .timeline import SessionTable

DEFAULT_MAX_ABS_MM = 2000.0
# Marker kinematics are computed in blocks of this many frames (rows).
ROW_BLOCK = 4096

# Emotion categories in code order: the emotion CSV stores the names, the
# numeric `category` column stores the index. Speech conditions split the
# target speaker's speaking frames by whether another speaker talks too.
CATEGORY_NAMES = ("Neutral", "Happy", "Sad", "Angry")
CONDITION_NAMES = ("overlap", "non_overlap")
SPEECH_CONDITIONS = ("all",) + CONDITION_NAMES  # `all` is every speaking frame
N_STRATA = len(CATEGORY_NAMES) * len(CONDITION_NAMES)

REGION_ORDER = (
    "head",
    "eyebrows",
    "mouth",
    "upper_face",
    "middle_face",
    "lower_face",
    "total_face",
    "hands",
)

_EYEBROWS = (
    "LBM0", "LBM1", "LBM2", "LBM3",
    "RBM0", "RBM1", "RBM2", "RBM3",
    "LBRO1", "LBRO2", "LBRO3", "LBRO4",
    "RBRO1", "RBRO2", "RBRO3", "RBRO4",
)
_MOUTH = ("MOU1", "MOU2", "MOU3", "MOU4", "MOU5", "MOU6", "MOU7", "MOU8")
_UPPER_FACE = ("FH1", "FH2", "FH3") + _EYEBROWS + ("LLID", "RRID")
_MIDDLE_FACE = (
    "LC2", "LC3", "LC4", "LC5", "LC6", "LC7", "LC8",
    "RC2", "RC3", "RC4", "RC5", "RC6", "RC7", "RC8",
    "MNOSE", "TNOSE", "LNSTRL", "RNSTRL",
)
_LOWER_FACE = _MOUTH + ("CH1", "CH2", "CH3", "LC1", "RC1")
_HEAD = ("LHD", "RHD")
_HANDS = ("RH1", "RH2", "RH3", "LH1", "LH2", "LH3")


def max_abs_mm(values: np.ndarray) -> float:
    """Largest coordinate magnitude, NaN dropouts skipped (0 when there is none).

    fmin and fmax skip NaN and reach any infinity, so the check against
    DEFAULT_MAX_ABS_MM needs no full-size temporary.
    """
    if not values.size:
        return 0.0
    magnitude = max(-np.fmin.reduce(values, axis=None), np.fmax.reduce(values, axis=None))
    return 0.0 if math.isnan(magnitude) else float(magnitude)


def marker_names(columns) -> tuple[str, ...]:
    """The marker names of a marker table's coordinate columns, which must be
    ``<marker>_x,<marker>_y,<marker>_z`` triples of distinct markers;
    anything else raises :class:`InconsistentMarkerSetError`."""
    if len(columns) % 3 != 0:
        raise InconsistentMarkerSetError("coordinate columns must come in _x,_y,_z triples")
    names = []
    for k in range(0, len(columns), 3):
        triple = list(columns[k:k + 3])
        suffixes = [c.rsplit("_", 1)[-1] for c in triple]
        bases = {c.rsplit("_", 1)[0] for c in triple}
        if suffixes != ["x", "y", "z"] or len(bases) != 1:
            raise InconsistentMarkerSetError(
                f"expected <marker>_x,<marker>_y,<marker>_z, got {triple}"
            )
        names.append(triple[0].rsplit("_", 1)[0])
    if len(set(names)) != len(names):
        raise InconsistentMarkerSetError("duplicate marker names")
    return tuple(names)


def _repeat_in(regions: dict[str, tuple[str, ...]]) -> str | None:
    """What is wrong with the first region that lists a marker twice (its mean
    would count that marker twice), or None when no region does."""
    for region, markers in regions.items():
        for i, marker in enumerate(markers):
            if marker in markers[:i]:
                return f"region {region!r} lists marker {marker!r} more than once"
    return None


@dataclass(frozen=True)
class RegionMap:
    """Region name -> marker identifiers, with the structural region invariants."""

    regions: dict[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        regions = {k: tuple(v) for k, v in self.regions.items()}
        object.__setattr__(self, "regions", regions)
        missing = [r for r in REGION_ORDER if r not in regions]
        if missing:
            raise ValueError(f"region map missing required regions: {missing}")
        empty = [r for r, markers in regions.items() if not markers]
        if empty:
            raise ValueError(f"region(s) {empty} have no markers")
        if repeat := _repeat_in(regions):
            raise ValueError(repeat)
        upper = set(regions["upper_face"])
        middle = set(regions["middle_face"])
        lower = set(regions["lower_face"])
        if set(regions["total_face"]) != upper | middle | lower:
            raise ValueError("total_face must equal upper | middle | lower face")
        if not set(regions["eyebrows"]) <= upper:
            raise ValueError("eyebrows must be a subset of upper_face")
        if not set(regions["mouth"]) <= lower:
            raise ValueError("mouth must be a subset of lower_face")

    def __getitem__(self, region: str) -> tuple[str, ...]:
        return self.regions[region]

    def names(self) -> tuple[str, ...]:
        ordered = [r for r in REGION_ORDER if r in self.regions]
        extra = [r for r in self.regions if r not in REGION_ORDER]
        return tuple(ordered + extra)

    def to_json(self, path) -> None:
        write_json(path, {r: list(self.regions[r]) for r in self.names()})

    @classmethod
    def from_json(cls, path) -> "RegionMap":
        regions = read_json_object(path)
        for region, markers in regions.items():
            if type(markers) is not list or not all(type(m) is str for m in markers):
                raise ValueError(f"region {region!r} must list marker names; got {markers!r}")
        return cls(regions)


def default_region_map() -> RegionMap:
    """Facial/hand segmentation used for the dyadic motion-capture profile."""
    return RegionMap(
        {
            "head": _HEAD,
            "eyebrows": _EYEBROWS,
            "mouth": _MOUTH,
            "upper_face": _UPPER_FACE,
            "middle_face": _MIDDLE_FACE,
            "lower_face": _LOWER_FACE,
            "total_face": _UPPER_FACE + _MIDDLE_FACE + _LOWER_FACE,
            "hands": _HANDS,
        }
    )


def displacement_magnitudes(markers: FeatureTrack) -> FeatureTrack:
    """Framewise 3D displacement magnitude per marker, mm per native frame.

    `markers` holds positions in mm, one ``<marker>_x,<marker>_y,<marker>_z``
    column triple per marker (see :func:`marker_names`); the output has one
    column per marker, named after it. Frame 0 is defined as 0 so the output
    shares the marker grid. A dropout at frame k makes both difference
    endpoints unusable, so frames k and k+1 are dropouts in the output. The
    output is filled ROW_BLOCK frames at a time (see frames.row_blocks), so
    the differences and their squares are (ROW_BLOCK, markers, 3) temporaries
    however long the track is; each value is computed as a whole-track pass
    computes it.
    """
    names = marker_names(markers.columns)
    if markers.n_frames < 2:
        raise TooFewFramesError(
            f"need >= 2 frames to difference, got {markers.n_frames}"
        )
    pos = markers.values.reshape(markers.n_frames, len(names), 3)
    values = np.empty((markers.n_frames, len(names)))
    values[0] = np.where(np.isfinite(pos[0]).all(axis=1), 0.0, np.nan)
    for lo, hi in row_blocks(1, markers.n_frames, ROW_BLOCK):
        diffs = pos[lo:hi] - pos[lo - 1:hi - 1]
        diffs *= diffs
        np.sqrt(np.sum(diffs, axis=2), out=values[lo:hi])
    return FeatureTrack(markers.grid, names, values)


def _region_columns(columns, region_map) -> dict[str, list[int]]:
    """Each region's indices among a displacement track's `columns`, in
    region order; a region that lists a marker twice or names one the track
    lacks raises."""
    if isinstance(region_map, RegionMap):
        items = {r: region_map[r] for r in region_map.names()}
    else:
        items = {r: tuple(ms) for r, ms in region_map.items()}
        if repeat := _repeat_in(items):
            raise ValidationError(repeat)
    columns = tuple(columns)
    for region, markers in items.items():
        unknown = [m for m in markers if m not in columns]
        if unknown:
            raise UnknownMarkerInMapError(
                f"region {region!r} references markers absent from the "
                f"displacement track: {unknown}"
            )
    return {r: [columns.index(m) for m in markers] for r, markers in items.items()}


def region_activeness(
    displacements: FeatureTrack, region_map: "RegionMap | dict[str, tuple[str, ...]]"
) -> FeatureTrack:
    """Per-frame mean displacement over each region's non-dropout markers.

    Accepts the validated facial RegionMap or any plain region -> markers
    mapping (synthetic sessions use the latter). The output is filled
    ROW_BLOCK frames at a time (see frames.row_blocks), so each region's
    gathered markers are a (ROW_BLOCK, markers) temporary however long the
    track is, and each value is computed as a whole-track pass computes it.
    """
    regions = _region_columns(displacements.columns, region_map)
    out = np.empty((displacements.n_frames, len(regions)))
    for lo, hi in row_blocks(0, displacements.n_frames, ROW_BLOCK):
        rows = displacements.values[lo:hi]
        for j, idx in enumerate(regions.values()):
            block = rows[:, idx]
            counts = np.isfinite(block).sum(axis=1)
            sums = np.nansum(block, axis=1)
            out[lo:hi, j] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return FeatureTrack(displacements.grid, tuple(regions), out)


class ActivenessStream:
    """Region activeness of marker positions that arrive a chunk of rows at
    a time, equal bit for bit to
    ``region_activeness(displacement_magnitudes(track), region_map)`` of the
    whole track.

    `columns` are the positions' ``<marker>_x,_y,_z`` columns, and the
    regions are checked against their markers before any row arrives. Rows
    are gathered into batches of ROW_BLOCK new rows plus the one before them,
    and each batch goes through :func:`displacement_magnitudes` and
    :func:`region_activeness` as a track of its own, whose row blocks then
    have ROW_BLOCK rows each, as a whole-track pass's have (frames.row_blocks
    explains why only the row count matters). The first batch starts at
    frame 0, so its frame-0 displacement is the track's. The last batch
    takes the ROW_BLOCK rows that end the track, reaching back into the
    batch before it; a track of ROW_BLOCK + 1 rows or fewer is one batch,
    the whole track. So at most 2 * ROW_BLOCK + 1 rows of positions are held
    however long the track is. The activeness rows gather in `out`, which a
    caller that can guess the row count may reserve (frames.GrowingRows).
    """

    def __init__(self, columns, region_map):
        self.columns = tuple(columns)
        self.markers = marker_names(self.columns)
        self.regions = tuple(_region_columns(self.markers, region_map))
        self.region_map = region_map
        self.block = ROW_BLOCK
        self.positions = np.empty((2 * self.block + 1, len(self.columns)))
        self.filled = 0  # rows held in `positions`
        self.end = self.block + 1  # the row count at which a batch is run
        self.out = GrowingRows((len(self.regions),))

    def _run(self, hi: int, keep: int) -> None:
        """Append the activeness of the last `keep` of positions rows ..hi-1,
        from the batch of the ROW_BLOCK + 1 rows (or fewer, from row 0) that
        end there."""
        lo = max(0, hi - self.block - 1)
        batch = FeatureTrack(FrameGrid(1.0, 0.0, hi - lo), self.columns, self.positions[lo:hi])
        displacements = displacement_magnitudes(batch)
        if self.out.n:  # the first row is the last batch's, not this one's
            displacements = FeatureTrack(
                FrameGrid(1.0, 0.0, hi - lo - 1), self.markers, displacements.values[1:]
            )
        activeness = region_activeness(displacements, self.region_map).values
        self.out.append(activeness[len(activeness) - keep:])

    def feed(self, rows: np.ndarray) -> None:
        """Take the next rows of positions, running each batch they complete."""
        while len(rows):
            take = min(len(rows), self.end - self.filled)
            self.positions[self.filled:self.filled + take] = rows[:take]
            self.filled += take
            rows = rows[take:]
            if self.filled == self.end:
                self._run(self.end, self.block + (not self.out.n))
                # the batch just run is kept for the last batch to reach back into
                self.positions[:self.block + 1] = self.positions[self.end - self.block - 1:self.end]
                self.filled, self.end = self.block + 1, 2 * self.block + 1

    def finish(self, grid: FrameGrid) -> FeatureTrack:
        """The activeness track on `grid`, once every row has been fed."""
        if not self.out.n:  # the whole track is one batch
            self._run(self.filled, self.filled)
        elif self.filled > self.block + 1:
            self._run(self.filled, self.filled - self.block - 1)
        return FeatureTrack(grid, self.regions, self.out.take())


def sem_of(values: np.ndarray) -> float:
    """Standard error of the mean with the n-1 denominator; NaN when n < 2."""
    n = len(values)
    if n < 2:
        return math.nan
    return float(np.std(values, ddof=1) / math.sqrt(n))


def condition_mask(table: "SessionTable", condition: str) -> np.ndarray:
    """The target speaker's speaking frames under one speech condition: `all`,
    `overlap` (another speaker talks too) or `non_overlap` (no one else does)."""
    mask = table.column("labels", "speaking") == 1.0
    if condition == "all":
        return mask
    if condition not in CONDITION_NAMES:
        raise ValueError(f"unknown condition {condition!r}; expected {SPEECH_CONDITIONS}")
    overlap = table.column("labels", "overlap") == 1.0
    return mask & overlap if condition == "overlap" else mask & ~overlap


@dataclass(frozen=True)
class SummaryCell:
    """Mean activeness of one region within one emotion x condition stratum."""

    region: str
    emotion: str
    condition: str
    mean: float
    sem: float
    n_frames: int
    low_support: bool


def condition_summaries(
    table: "SessionTable", min_frames: int = 30, segment_s: float | None = None
) -> list[list[SummaryCell]]:
    """Per-region mean/SEM of activeness by emotion and speech condition, one
    list of cells per run of the session, in run order.

    `segment_s` None makes the session one run; otherwise frame i goes to run
    int(i / (segment_s * rate_hz)), and runs too short to hold a frame in
    each of the N_STRATA cells raise ValidationError. Only speaking frames
    with a finite activeness and a category code of CATEGORY_NAMES count.
    A run's cells are regions x CATEGORY_NAMES x CONDITION_NAMES in that
    order; a cell under `min_frames` frames is low-support, an empty one NaN.
    Frames are sorted stably by (run, stratum) label, so a cell's values are
    one slice, in frame order, and sum to the bits a boolean mask's would.
    """
    n, rate = table.grid.n_frames, table.grid.rate_hz
    run = np.zeros(n, dtype=np.intp)
    if segment_s is not None:
        frames = segment_s * rate  # a run's length; the longest run has ceil(frames)
        if not frames > N_STRATA - 1:
            raise ValidationError(
                f"params.segment_s {segment_s!r} s makes runs of at most {math.ceil(frames)} "
                f"frame(s) on the {rate!r} Hz session grid, fewer than the {N_STRATA} "
                "emotion x condition cells a run must cover"
            )
        run = (np.arange(n) / frames).astype(np.intp)
    category = table.column("emotion", "category")
    code = np.full(n, -1)
    for c in range(len(CATEGORY_NAMES)):
        code[category == c] = c
    non_overlap = table.column("labels", "overlap") != 1.0  # its index in CONDITION_NAMES
    label = (run * len(CATEGORY_NAMES) + code) * len(CONDITION_NAMES) + non_overlap
    counted = np.flatnonzero(condition_mask(table, "all") & (code >= 0))
    order = counted[np.argsort(label[counted], kind="stable")]
    label = label[order]
    strata = [(e, c) for e in CATEGORY_NAMES for c in CONDITION_NAMES]
    runs: list[list[SummaryCell]] = [[] for _ in range(int(run[-1]) + 1 if n else 1)]
    activeness = table.block("activeness")
    for region in activeness.columns:
        values = activeness.column(region)[order]
        finite = np.isfinite(values)
        values = values[finite]
        bounds = np.searchsorted(label[finite], np.arange(len(runs) * N_STRATA + 1)).tolist()
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):  # cell i is label i
            vals = values[lo:hi]
            mean = float(np.mean(vals)) if hi > lo else math.nan
            runs[i // N_STRATA].append(SummaryCell(
                region, *strata[i % N_STRATA], mean, sem_of(vals), hi - lo, hi - lo < min_frames
            ))
    return runs


def _level_of(factor: str, levels: tuple[str, ...]):
    """Converter for a column that must hold one of a factor's levels."""
    def convert(cell: str) -> str:
        if cell not in levels:
            raise ValidationError(f"unknown {factor} {cell!r}; expected one of {levels}")
        return cell

    return convert


SUMMARY_HEADER = ("region", "emotion", "condition", "mean", "sem", "n_frames", "low_support")
_SUMMARY_CONVERTERS = (
    str, _level_of("emotion", CATEGORY_NAMES), _level_of("condition", CONDITION_NAMES),
    number, number, int, flag,
)


def write_summary_csv(cells: list[SummaryCell], path) -> None:
    write_records(path, SUMMARY_HEADER, map(astuple, cells))


def read_summary_csv(path) -> list[SummaryCell]:
    """The cells of a summaries.csv; an unknown emotion or condition, or a
    repeated (region, emotion, condition) cell, raises naming `path:line`."""
    path = str(path)
    cells, line_of = [], {}
    with open(path, "r", encoding="utf-8") as fh:
        for line, row in iter_records(fh, path, 1, SUMMARY_HEADER, _SUMMARY_CONVERTERS):
            key = tuple(row[:3])
            if key in line_of:
                raise MalformedRowError(
                    f"{path}:{line}: repeats the cell {key} of line {line_of[key]}"
                )
            line_of[key] = line
            cells.append(SummaryCell(*row))
    return cells
