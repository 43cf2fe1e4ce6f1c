"""Two-way repeated-measures ANOVA over region activeness.

Both factors are within-subject: each effect is tested against its own
effect-by-subject error term, and both come from one matrix, the subjects'
orthonormal contrast scores for that effect (no sphericity correction by
default). Effect size is partial eta squared.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    IncompleteSubjectWarning,
    InvalidDegreesOfFreedomError,
    TooFewSubjectsError,
    UnbalancedDesignError,
    ValidationError,
)
from .frames import number, read_records, write_records
from .motion import CATEGORY_NAMES, CONDITION_NAMES, SummaryCell, condition_strata


@dataclass(frozen=True)
class RmDesign:
    """Balanced within-subject design: one value per (subject, a, b) cell."""

    subjects: tuple[str, ...]
    a_levels: tuple[str, ...]
    b_levels: tuple[str, ...]
    cells: np.ndarray
    factor_a: str = "emotion"
    factor_b: str = "condition"

    def __post_init__(self) -> None:
        object.__setattr__(self, "subjects", tuple(self.subjects))
        object.__setattr__(self, "a_levels", tuple(self.a_levels))
        object.__setattr__(self, "b_levels", tuple(self.b_levels))
        cells = np.array(self.cells, dtype=np.float64)
        expected = (len(self.subjects), len(self.a_levels), len(self.b_levels))
        if cells.shape != expected:
            raise UnbalancedDesignError(
                f"cells shape {cells.shape}, expected {expected}"
            )
        if not np.isfinite(cells).all():
            raise UnbalancedDesignError("design has missing or non-finite cells")
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    @classmethod
    def from_rows(
        cls,
        rows: Iterable[tuple[str, str, str, float]],
        drop_incomplete: bool = False,
    ) -> "RmDesign":
        """Build from (subject, emotion, condition, value) rows; every cell
        exactly once, with the levels of CATEGORY_NAMES x CONDITION_NAMES.

        With drop_incomplete, subjects missing any cell are removed with a
        warning (listwise deletion) instead of failing.
        """
        a_levels, b_levels = CATEGORY_NAMES, CONDITION_NAMES
        values: dict[str, dict[tuple[str, str], float]] = {}
        for subject, a, b, value in rows:
            if a not in a_levels or b not in b_levels:
                raise UnbalancedDesignError(f"unknown level ({a!r}, {b!r})")
            cell = values.setdefault(subject, {})
            if (a, b) in cell:
                raise UnbalancedDesignError(
                    f"duplicate cell ({subject!r}, {a!r}, {b!r})"
                )
            cell[(a, b)] = value

        needed = [(a, b) for a in a_levels for b in b_levels]
        complete, dropped = [], []
        for subject in values:
            cell = values[subject]
            if all((k in cell and math.isfinite(cell[k])) for k in needed):
                complete.append(subject)
            else:
                dropped.append(subject)
        if dropped and not drop_incomplete:
            raise UnbalancedDesignError(
                f"subjects with missing cells: {dropped} "
                "(pass drop_incomplete=True for listwise deletion)"
            )
        if dropped:
            warnings.warn(
                f"dropping {len(dropped)} incomplete subject(s): {dropped}",
                IncompleteSubjectWarning,
                stacklevel=2,
            )
        if not complete:
            raise UnbalancedDesignError(
                "no subject covers every cell; the data cannot support a "
                "balanced within-subject design"
            )
        cells = np.array(
            [[[values[s][(a, b)] for b in b_levels] for a in a_levels] for s in complete]
        )
        return cls(subjects=tuple(complete), a_levels=a_levels, b_levels=b_levels, cells=cells)


@dataclass(frozen=True)
class EffectStats:
    name: str
    f_value: float
    df_effect: int
    df_error: int
    p_value: float
    partial_eta_sq: float
    ss_effect: float
    ss_error: float
    gg_epsilon: float | None = None


@dataclass(frozen=True)
class AnovaResult:
    effects: tuple[EffectStats, ...]

    def effect(self, name: str) -> EffectStats:
        for e in self.effects:
            if e.name == name:
                return e
        raise KeyError(f"no effect {name!r}; have {[e.name for e in self.effects]}")


def f_distribution_sf(f: float, df1: int, df2: int) -> float:
    """Upper tail of the F distribution via the regularized incomplete beta."""
    if int(df1) != df1 or int(df2) != df2 or df1 < 1 or df2 < 1:
        raise InvalidDegreesOfFreedomError(f"df ({df1}, {df2}) must be integers >= 1")
    if f < 0:
        raise ValidationError(f"F statistic must be >= 0, got {f}")
    if math.isinf(f):
        return 0.0
    return _f_tail(f, df1, df2)


def _f_tail(f: float, df1: float, df2: float) -> float:
    """P(F > f) for real degrees of freedom, via the regularized incomplete beta."""
    from scipy.special import betainc  # imported here: only p-values need scipy

    return float(betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f)))


def _orthonormal_contrasts(k: int) -> np.ndarray:
    """Orthonormal basis of the mean-zero subspace for k repeated levels: the
    Helmert contrasts, row j - 1 setting level j against the j levels before it.
    Built in closed form, so no LAPACK routine is loaded for it."""
    j = np.arange(1, k)[:, None]
    level = np.arange(k)[None, :]
    return np.where(level < j, 1.0, np.where(level == j, -j, 0.0)) / np.sqrt(j * (j + 1.0))


def _gg_epsilon(resid: np.ndarray) -> float:
    """Greenhouse-Geisser epsilon from one effect's centred contrast scores."""
    d = resid.shape[1]
    s = resid.T @ resid  # (n - 1) cov(scores); epsilon does not see the scale
    denom = d * float((s * s).sum())
    if denom <= 0.0:
        return 1.0
    return min(max(float(np.trace(s)) ** 2 / denom, 1.0 / d), 1.0)


def rm_anova_two_way(
    design: RmDesign, sphericity_correction: bool = False
) -> AnovaResult:
    """Classical two-way within-subject ANOVA.

    Every effect is tested on its subjects' orthonormal contrast scores
    (O'Brien & Kaiser 1985): rows kron(c_a, 1/sqrt(b)) for A,
    kron(1/sqrt(a), c_b) for B and kron(c_a, c_b) for AxB, where c_k spans
    the mean-zero contrasts of k levels. The effect's SS is n times the
    squared norm of the mean score, its error SS the scores' spread about
    that mean (the effect-by-subject interaction), and its df the number of
    contrast rows. Returns F, dfs, p and partial eta squared for A, B and
    AxB. With `sphericity_correction`, p values use Greenhouse-Geisser
    epsilon-scaled degrees of freedom, epsilon from the scores' covariance
    (a no-op for two-level factors, where epsilon is identically 1).
    """
    y = design.cells
    n, a, b = y.shape
    if n < 2:
        raise TooFewSubjectsError(f"need >= 2 subjects, got {n}")
    if a < 2 or b < 2:
        raise ValidationError("each factor needs >= 2 levels")

    c_a, c_b = _orthonormal_contrasts(a), _orthonormal_contrasts(b)
    ones_a, ones_b = np.full((1, a), a ** -0.5), np.full((1, b), b ** -0.5)
    contrasts = (
        (design.factor_a, np.kron(c_a, ones_b)),
        (design.factor_b, np.kron(ones_a, c_b)),
        (f"{design.factor_a}_x_{design.factor_b}", np.kron(c_a, c_b)),
    )
    flat = y.reshape(n, -1)
    # an SS this far below the total SS is rounding: that effect or error is absent
    tiny = 1e-12 * max(float(((flat - flat.mean()) ** 2).sum()), 1.0)
    effects = []
    for name, contrast in contrasts:
        scores = flat @ contrast.T
        mean = scores.mean(axis=0)
        resid = scores - mean
        ss_eff, ss_err = n * float(mean @ mean), float((resid * resid).sum())
        df_eff = contrast.shape[0]
        df_err = df_eff * (n - 1)
        epsilon = _gg_epsilon(resid) if sphericity_correction else None
        if ss_eff <= tiny:
            f_value, p, eta = 0.0, 1.0, 0.0
        elif ss_err <= tiny:
            f_value, p, eta = math.inf, 0.0, 1.0
        else:
            f_value = (ss_eff / df_eff) / (ss_err / df_err)
            # Greenhouse-Geisser: same F, epsilon-scaled (non-integer) dfs
            scale = 1.0 if epsilon is None else epsilon
            p = _f_tail(f_value, scale * df_eff, scale * df_err)
            eta = ss_eff / (ss_eff + ss_err)
        effects.append(
            EffectStats(name, f_value, df_eff, df_err, p, eta, ss_eff, ss_err, epsilon)
        )
    return AnovaResult(tuple(effects))


def design_from_summaries(
    session_cells: dict[str, list[SummaryCell]],
    region: str,
    drop_incomplete: bool = False,
) -> RmDesign:
    """Assemble a design from per-session condition summaries.

    The unit of analysis is the speaker-session: each session contributes one
    mean activeness value per emotion x condition cell for the region.
    """
    rows = []
    for session_id, cells in session_cells.items():
        for c in cells:
            if c.region == region and not math.isnan(c.mean):
                rows.append((session_id, c.emotion, c.condition, c.mean))
    return RmDesign.from_rows(rows, drop_incomplete=drop_incomplete)


def segment_design_rows(
    table,
    activeness_region: str,
    session_id: str,
    segment_s: float = 10.0,
) -> list[tuple[str, str, str, float]]:
    """Design rows with fixed-length speaking segments as the subject unit.

    Emulates error terms far larger than the session count; most segments
    will not cover every cell, so combine with drop_incomplete=True.
    """
    strata = condition_strata(table)
    series = table.column("activeness", activeness_region)
    seg = (np.arange(table.grid.n_frames) / (segment_s * table.grid.rate_hz)).astype(int)

    rows = []
    for seg_id in np.unique(seg):
        in_seg = seg == seg_id
        for emotion, condition, mask in strata:
            vals = series[in_seg & mask]
            vals = vals[np.isfinite(vals)]
            if len(vals):
                rows.append((f"{session_id}:seg{seg_id}", emotion, condition, float(vals.mean())))
    return rows


ANOVA_HEADER = ("region", "effect", "F", "df1", "df2", "p", "partial_eta_sq")
_ANOVA_CONVERTERS = (str, str, number, int, int, number, number)


def write_anova_csv(results: dict[str, AnovaResult], path) -> None:
    write_records(
        path,
        ANOVA_HEADER,
        (
            (region, e.name, e.f_value, e.df_effect, e.df_error, e.p_value, e.partial_eta_sq)
            for region, result in results.items()
            for e in result.effects
        ),
    )


def read_anova_csv(path) -> dict[str, AnovaResult]:
    per_region: dict[str, list[EffectStats]] = {}
    for region, name, f_value, df1, df2, p, eta in read_records(
        path, ANOVA_HEADER, _ANOVA_CONVERTERS
    ):
        per_region.setdefault(region, []).append(
            EffectStats(name, f_value, df1, df2, p, eta, ss_effect=math.nan, ss_error=math.nan)
        )
    return {region: AnovaResult(tuple(effects)) for region, effects in per_region.items()}
