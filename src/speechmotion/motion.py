"""Marker kinematics: region segmentation, displacement magnitudes, activeness.

Input marker trajectories are assumed head-stabilized; no rigid-motion
compensation happens here. Head markers are kept as their own region so head
movement is quantified like any other region.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import TooFewFramesError, UnknownMarkerInMapError
from .frames import (
    FeatureTrack, FrameGrid, flag, number, read_json_object, read_records, write_json,
    write_records,
)

if TYPE_CHECKING:
    from .timeline import SessionTable

DEFAULT_MAX_ABS_MM = 2000.0

# Emotion categories in code order: the emotion CSV stores the names, the
# numeric `category` column stores the index. Speech conditions split the
# target speaker's speaking frames by whether another speaker talks too.
CATEGORY_NAMES = ("Neutral", "Happy", "Sad", "Angry")
CONDITION_NAMES = ("overlap", "non_overlap")
SPEECH_CONDITIONS = ("all",) + CONDITION_NAMES  # `all` is every speaking frame

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

_UPPER_FACE = (
    "FH1", "FH2", "FH3",
    "LBM0", "LBM1", "LBM2", "LBM3",
    "RBM0", "RBM1", "RBM2", "RBM3",
    "LBRO1", "LBRO2", "LBRO3", "LBRO4",
    "RBRO1", "RBRO2", "RBRO3", "RBRO4",
    "LLID", "RRID",
)
_MIDDLE_FACE = (
    "LC2", "LC3", "LC4", "LC5", "LC6", "LC7", "LC8",
    "RC2", "RC3", "RC4", "RC5", "RC6", "RC7", "RC8",
    "MNOSE", "TNOSE", "LNSTRL", "RNSTRL",
)
_LOWER_FACE = (
    "MOU1", "MOU2", "MOU3", "MOU4", "MOU5", "MOU6", "MOU7", "MOU8",
    "CH1", "CH2", "CH3",
    "LC1", "RC1",
)
_EYEBROWS = (
    "LBM0", "LBM1", "LBM2", "LBM3",
    "RBM0", "RBM1", "RBM2", "RBM3",
    "LBRO1", "LBRO2", "LBRO3", "LBRO4",
    "RBRO1", "RBRO2", "RBRO3", "RBRO4",
)
_MOUTH = ("MOU1", "MOU2", "MOU3", "MOU4", "MOU5", "MOU6", "MOU7", "MOU8")
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


@dataclass(frozen=True)
class MarkerTrack:
    """3D marker trajectories in millimeters; NaN coordinates mark dropouts."""

    grid: FrameGrid
    markers: tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self) -> None:
        markers = tuple(self.markers)
        object.__setattr__(self, "markers", markers)
        if len(set(markers)) != len(markers):
            raise ValueError(f"duplicate marker names: {markers}")
        # a read-only float64 C-ordered array is adopted as it is; any other is copied
        adopt = isinstance(self.positions, np.ndarray) and not self.positions.flags.writeable
        pos = (np.asarray if adopt else np.array)(self.positions, dtype=np.float64, order="C")
        expected = (self.grid.n_frames, len(markers), 3)
        if pos.shape != expected:
            raise ValueError(f"positions shape {pos.shape}, expected {expected}")
        magnitude = max_abs_mm(pos)
        if magnitude > DEFAULT_MAX_ABS_MM:
            raise ValueError(
                f"coordinate magnitude {magnitude:.1f} mm exceeds "
                f"plausibility bound {DEFAULT_MAX_ABS_MM} mm"
            )
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_frames(self) -> int:
        return self.grid.n_frames


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
        return cls({k: tuple(v) for k, v in read_json_object(path).items()})


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


def displacement_magnitudes(markers: MarkerTrack) -> FeatureTrack:
    """Framewise 3D displacement magnitude per marker, mm per native frame.

    Frame 0 is defined as 0 so the output shares the marker grid. A dropout
    at frame k makes both difference endpoints unusable, so frames k and k+1
    are dropouts in the output.
    """
    if markers.n_frames < 2:
        raise TooFewFramesError(
            f"need >= 2 frames to difference, got {markers.n_frames}"
        )
    pos = markers.positions
    diffs = pos[1:] - pos[:-1]
    mags = np.sqrt(np.sum(diffs * diffs, axis=2))
    first = np.where(np.isfinite(pos[0]).all(axis=1), 0.0, np.nan)
    values = np.vstack([first[None, :], mags])
    return FeatureTrack(markers.grid, markers.markers, values)


def region_activeness(
    displacements: FeatureTrack, region_map: "RegionMap | dict[str, tuple[str, ...]]"
) -> FeatureTrack:
    """Per-frame mean displacement over each region's non-dropout markers.

    Accepts the validated facial RegionMap or any plain region -> markers
    mapping (synthetic sessions use the latter).
    """
    if isinstance(region_map, RegionMap):
        items = {r: region_map[r] for r in region_map.names()}
    else:
        items = {r: tuple(ms) for r, ms in region_map.items()}
    available = set(displacements.columns)
    for region, markers in items.items():
        unknown = [m for m in markers if m not in available]
        if unknown:
            raise UnknownMarkerInMapError(
                f"region {region!r} references markers absent from the "
                f"displacement track: {unknown}"
            )
    names = tuple(items)
    out = np.empty((displacements.n_frames, len(names)))
    for j, region in enumerate(names):
        idx = [displacements.column_index(m) for m in items[region]]
        block = displacements.values[:, idx]
        counts = np.isfinite(block).sum(axis=1)
        sums = np.nansum(block, axis=1)
        out[:, j] = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return FeatureTrack(displacements.grid, names, out)


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


def condition_strata(table: "SessionTable") -> list[tuple[str, str, np.ndarray]]:
    """``(emotion, condition, mask)`` for each emotion x condition stratum of the
    target speaker's speaking frames, in CATEGORY_NAMES x CONDITION_NAMES order."""
    category = table.column("emotion", "category")
    by_condition = [(c, condition_mask(table, c)) for c in CONDITION_NAMES]
    return [
        (emotion, condition, mask & (category == float(code)))
        for code, emotion in enumerate(CATEGORY_NAMES)
        for condition, mask in by_condition
    ]


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
    activeness: FeatureTrack,
    table: "SessionTable",
    min_frames: int = 30,
) -> list[SummaryCell]:
    """Per-region mean/SEM of activeness by emotion category and speech condition.

    Only frames where the target speaker is speaking contribute. Strata are
    the four emotion categories crossed with overlap vs non-overlap speech.
    Cells with fewer than `min_frames` frames are flagged low-support; empty
    cells are reported with NaN statistics.
    """
    if activeness.grid != table.grid:
        raise ValueError("activeness must be aligned on the session grid")
    strata = condition_strata(table)
    cells: list[SummaryCell] = []
    for region in activeness.columns:
        series = activeness.column(region)
        for emotion, condition, mask in strata:
            vals = series[mask]
            vals = vals[np.isfinite(vals)]
            n = len(vals)
            cells.append(
                SummaryCell(
                    region=region,
                    emotion=emotion,
                    condition=condition,
                    mean=float(np.mean(vals)) if n else math.nan,
                    sem=sem_of(vals),
                    n_frames=n,
                    low_support=n < min_frames,
                )
            )
    return cells


SUMMARY_HEADER = ("region", "emotion", "condition", "mean", "sem", "n_frames", "low_support")
_SUMMARY_CONVERTERS = (str, str, str, number, number, int, flag)


def write_summary_csv(cells: list[SummaryCell], path) -> None:
    write_records(path, SUMMARY_HEADER, map(astuple, cells))


def read_summary_csv(path) -> list[SummaryCell]:
    return [SummaryCell(*row) for row in read_records(path, SUMMARY_HEADER, _SUMMARY_CONVERTERS)]
