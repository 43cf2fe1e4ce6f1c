"""Heatmap grids and static SVG renderings of activeness and coupling results.

Outputs are plain CSV matrices plus deterministic SVG files (one rect per
cell, linear colormap, scale recorded in the file), so reruns on identical
inputs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling import DEFAULT_FEATURE_SETS, CouplingCell
from .frames import adopt, format_value, write_records
from .motion import CATEGORY_NAMES, SummaryCell
from .stats import AnovaResult

# Benchmark values for the IEMOCAP-corpus analysis. They are not acceptance
# targets for synthetic data; the report command emits them beside measured
# values so corpus runs can be compared against the reference analysis of
# that corpus.
REFERENCE_COUPLING_R: dict[tuple[str, str], tuple[float, float | None]] = {
    ("total_face", "prosody"): (0.47, 0.006),
    ("total_face", "mfcc"): (0.44, 0.006),
    ("lower_face", "prosody"): (0.46, None),
    ("mouth", "prosody"): (0.46, None),
    ("lower_face", "mfcc"): (0.44, None),
    ("mouth", "mfcc"): (0.43, None),
    ("middle_face", "prosody"): (0.41, None),
    ("middle_face", "mfcc"): (0.39, None),
    ("hands", "mfcc"): (0.35, None),
    ("head", "prosody"): (0.34, None),
    ("mouth", "arousal"): (0.33, None),
    ("lower_face", "valence"): (0.31, None),
}

REFERENCE_ANOVA: dict[tuple[str, str], dict[str, float | tuple[int, int]]] = {
    ("mouth", "condition"): {"F": 229.49, "df": (1, 132), "partial_eta_sq": 0.258},
    ("lower_face", "condition"): {"F": 217.92, "partial_eta_sq": 0.249},
    ("middle_face", "condition"): {"F": 175.29, "partial_eta_sq": 0.203},
    ("lower_face", "emotion"): {"F": 76.75, "partial_eta_sq": 0.133},
    ("mouth", "emotion"): {"F": 71.27, "partial_eta_sq": 0.126},
    ("eyebrows", "emotion"): {"F": 10.24, "partial_eta_sq": 0.022},
    ("mouth", "emotion_x_condition"): {"F": 2.77, "p": 0.041},
    ("lower_face", "emotion_x_condition"): {"F": 2.97, "p": 0.032},
    ("hands", "emotion_x_condition"): {"F": 4.42, "p": 0.004},
}


@dataclass(frozen=True)
class HeatmapGrid:
    title: str
    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = adopt(self.values)
        if vals.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError("grid shape does not match labels")
        object.__setattr__(self, "values", vals)


def activeness_grid(session_cells: dict[str, list[SummaryCell]]) -> HeatmapGrid:
    """Regions x (emotion, condition) group-level mean activeness.

    Columns run over the emotions, each split non_overlap then overlap. Each
    cell is the unweighted mean of the per-session cell means, skipping
    sessions with no frames in the cell.
    """
    means: dict[tuple[str, str], list[float]] = {}  # (region, column) -> session means
    for cells in session_cells.values():
        for c in cells:
            cell_means = means.setdefault((c.region, f"{c.emotion}|{c.condition}"), [])
            if not math.isnan(c.mean):
                cell_means.append(c.mean)
    regions = tuple(dict.fromkeys(region for region, _ in means))
    cols = [f"{emo}|{cond}" for emo in CATEGORY_NAMES for cond in ("non_overlap", "overlap")]
    values = np.full((len(regions), len(cols)), np.nan)
    for (region, col), per_session in means.items():
        if per_session and col in cols:
            values[regions.index(region), cols.index(col)] = float(np.mean(per_session))
    return HeatmapGrid(
        title="region activeness by emotion and speech condition",
        row_labels=regions,
        col_labels=tuple(cols),
        values=values,
    )


def coupling_grid(
    cells: list[CouplingCell],
    feature_sets: tuple[str, ...] = DEFAULT_FEATURE_SETS,
) -> HeatmapGrid:
    """Regions x feature-set matrix of mean Pearson r over all speaking frames
    (condition and affect bin `all`)."""
    regions = tuple(dict.fromkeys(c.region for c in cells))
    values = np.full((len(regions), len(feature_sets)), np.nan)
    for c in cells:
        if c.condition == c.affect_bin == "all" and c.feature_set in feature_sets:
            values[regions.index(c.region), feature_sets.index(c.feature_set)] = c.mean_r
    return HeatmapGrid(
        title="speech-to-motion r (all, bin=all)",
        row_labels=regions,
        col_labels=feature_sets,
        values=values,
    )


def write_grid_csv(grid: HeatmapGrid, path) -> None:
    write_records(
        path,
        ("region", *grid.col_labels),
        ((label, *row) for label, row in zip(grid.row_labels, grid.values.tolist())),
    )


_LOW_RGB = (255, 255, 255)
_HIGH_RGB = (180, 4, 38)
_NAN_FILL = "#dddddd"


def _cell_color(value: float, vmin: float, vmax: float) -> str:
    if math.isnan(value):
        return _NAN_FILL
    t = 0.0 if vmax <= vmin else (value - vmin) / (vmax - vmin)
    t = min(max(t, 0.0), 1.0)
    rgb = tuple(round(lo + t * (hi - lo)) for lo, hi in zip(_LOW_RGB, _HIGH_RGB))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def render_svg(grid: HeatmapGrid, path) -> None:
    """Render the grid as a static SVG heatmap with the scale in a comment."""
    finite = grid.values[np.isfinite(grid.values)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    left, top, cell_w, cell_h = 110, 70, 64, 26
    width = left + cell_w * len(grid.col_labels) + 20
    height = top + cell_h * len(grid.row_labels) + 20
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f"<!-- colormap: linear vmin={format_value(vmin)} vmax={format_value(vmax)} "
        f'low=#ffffff high=#b40426 nan={_NAN_FILL} -->',
        f'<text x="8" y="16" font-size="13" font-family="sans-serif">{grid.title}</text>',
    ]
    for j, col in enumerate(grid.col_labels):
        x = left + j * cell_w + cell_w // 2
        parts.append(
            f'<text x="{x}" y="{top - 8}" font-size="9" font-family="sans-serif" '
            f'text-anchor="middle">{col}</text>'
        )
    for i, row_label in enumerate(grid.row_labels):
        y = top + i * cell_h
        parts.append(
            f'<text x="{left - 6}" y="{y + cell_h // 2 + 3}" font-size="10" '
            f'font-family="sans-serif" text-anchor="end">{row_label}</text>'
        )
        for j in range(len(grid.col_labels)):
            v = grid.values[i, j]
            color = _cell_color(v, vmin, vmax)
            x = left + j * cell_w
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell_w}" height="{cell_h}" '
                f'fill="{color}" stroke="#888888" stroke-width="0.5"/>'
            )
            if not math.isnan(v):
                parts.append(
                    f'<text x="{x + cell_w // 2}" y="{y + cell_h // 2 + 3}" '
                    f'font-size="9" font-family="sans-serif" text-anchor="middle">'
                    f"{v:.3f}</text>"
                )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


COMPARISON_HEADER = (
    "kind", "region", "key", "measured", "reference", "reference_sem", "reference_p",
    "protocol",
)


def reference_comparison_rows(
    coupling_cells: list[CouplingCell] | None,
    anova_results: dict[str, AnovaResult] | None,
    protocol: str,
) -> list[tuple]:
    """Records comparing measured values to the corpus reference values.

    Every reference entry gets one record; the measured cell is None when the
    current run produced no matching cell. The protocol cell records how the
    measured values were obtained.
    """
    measured_r: dict[tuple[str, str], float] = {}
    for c in coupling_cells or []:
        if c.condition == "all" and c.affect_bin == "all":
            measured_r[(c.region, c.feature_set)] = c.mean_r
    rows = [
        ("coupling", region, feature_set, measured_r.get((region, feature_set)),
         ref_r, ref_sem, None, protocol)
        for (region, feature_set), (ref_r, ref_sem) in REFERENCE_COUPLING_R.items()
    ]
    for (region, effect), ref in REFERENCE_ANOVA.items():
        try:
            measured_f = (anova_results or {})[region].effect(effect).f_value
        except KeyError:
            measured_f = None
        rows.append(
            ("anova", region, f"{effect}:F", measured_f, ref["F"], None, ref.get("p"), protocol)
        )
    return rows


def write_comparison_csv(rows: list[tuple], path) -> None:
    write_records(path, COMPARISON_HEADER, rows)
