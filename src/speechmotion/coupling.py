"""Affine minimum-mean-square-error mapping from speech features to motion.

The estimator is the closed-form affine map minimizing mean squared error:
A = C_yx (C_xx + eps * tr(C_xx)/d * I)^-1 and b = mu_y - A mu_x, fitted on
pairwise-complete frames. Alignment quality is scored with Pearson's r
between predicted and actual motion, per region, optionally restricted by
speech condition and affective bin.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Mapping
from itertools import accumulate
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (
    DegenerateSplitWarning,
    DegenerateInputError,
    FeatureNameMismatchError,
    GridMismatchError,
    InsufficientFramesError,
    TooFewPairsError,
    ValidationError,
)
from .frames import FeatureTrack, number, read_json_object, read_records, write_json, write_records
from .motion import SPEECH_CONDITIONS as CONDITIONS, condition_mask, sem_of
from .speech_features import PC_COLUMNS, PROSODY_COLUMNS, temporal_derivatives
from .timeline import SessionTable

FEATURE_SETS = ("prosody", "mfcc", "arousal", "valence", "all")
AFFECT_BINS = ("all", "high", "low")
PROTOCOLS = ("k_fold", "in_sample")
BIN_POLICIES = ("median_split", "zero_threshold")


@dataclass(frozen=True)
class AffineMap:
    """Fitted affine estimator: y_hat = a @ x + b."""

    a: np.ndarray
    b: np.ndarray
    feature_names: tuple[str, ...]
    target_names: tuple[str, ...]
    n_frames: int
    ridge_eps: float
    fold_id: int | None = None

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if a.shape != (len(self.target_names), len(self.feature_names)):
            raise ValueError(f"a has shape {a.shape}, expected (d_y, d_x)")
        if b.shape != (len(self.target_names),):
            raise ValueError("b must have one entry per target")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "target_names", tuple(self.target_names))

    def to_json(self, path) -> None:
        write_json(path, {
            "a": self.a.tolist(),
            "b": self.b.tolist(),
            "feature_names": list(self.feature_names),
            "target_names": list(self.target_names),
            "n_frames": self.n_frames,
            "ridge_eps": self.ridge_eps,
            "fold_id": self.fold_id,
        })

    @classmethod
    def from_json(cls, path) -> "AffineMap":
        return cls(**read_json_object(path))  # __post_init__ makes the arrays and tuples


def _require_frames(n: int, d_x: int) -> None:
    if n <= d_x + 1:
        raise InsufficientFramesError(
            f"{n} complete frames cannot identify {d_x} inputs plus offsets"
        )


def _solve(n: int, mu_x, mu_y, s_xx, s_yx, ridge_eps: float) -> tuple[np.ndarray, np.ndarray]:
    """a and b from n complete frames' means and centred cross-product sums."""
    d_x = len(mu_x)
    c_xx = s_xx / n
    c_yx = s_yx / n
    trace = float(np.trace(c_xx))
    if ridge_eps > 0.0:
        c_reg = c_xx + (ridge_eps * trace / d_x) * np.eye(d_x)
    else:
        eigvals = np.linalg.eigvalsh(c_xx)
        if trace <= 0.0 or eigvals[0] <= eigvals[-1] * 1e-12:
            raise DegenerateInputError(
                "input covariance is singular and ridge is disabled "
                "(a constant feature column?)"
            )
        c_reg = c_xx
    a = np.linalg.solve(c_reg, c_yx.T).T
    return a, mu_y - a @ mu_x


def _fit_arrays(
    x: np.ndarray, y: np.ndarray, ridge_eps: float
) -> tuple[np.ndarray, np.ndarray, int]:
    valid = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
    xv, yv = x[valid], y[valid]
    n = len(xv)
    _require_frames(n, x.shape[1])
    mu_x, mu_y = xv.mean(axis=0), yv.mean(axis=0)
    xc, yc = xv - mu_x, yv - mu_y
    return (*_solve(n, mu_x, mu_y, xc.T @ xc, yc.T @ xc, ridge_eps), n)


def _moments(z: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Count, mean and centred cross-product matrix of the rows of z."""
    if len(z) == 0:
        return 0, 0.0, 0.0  # merges as the identity
    mu = z.mean(axis=0)
    zc = z - mu
    return len(z), mu, zc.T @ zc


def _merge(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """Moments of two disjoint row sets (Chan, Golub & LeVeque 1979)."""
    (n_a, mu_a, m_a), (n_b, mu_b, m_b) = a, b
    if n_a == 0 or n_b == 0:
        return b if n_a == 0 else a
    n, delta = n_a + n_b, mu_b - mu_a
    return n, mu_a + delta * (n_b / n), m_a + m_b + np.outer(delta, delta) * (n_a * n_b / n)


def _k_fold_predictions(x: np.ndarray, y: np.ndarray, n_folds: int, ridge_eps: float):
    """Each contiguous fold's predictions from a fit on the merged moments of
    the folds before it and after it; no moments are ever subtracted."""
    d_x = x.shape[1]
    z = np.hstack([x, y])
    moments = [_moments(b[np.isfinite(b).all(axis=1)]) for b in np.array_split(z, n_folds)]
    before = list(accumulate(moments, _merge, initial=_moments(z[:0])))
    after = list(accumulate(moments[::-1], lambda acc, m: _merge(m, acc), initial=before[0]))
    after.reverse()  # after[k]: the merge of folds k onwards
    y_hat = []
    for k, x_held in enumerate(np.array_split(x, n_folds)):
        n, mu, m = _merge(before[k], after[k + 1])
        _require_frames(n, d_x)
        a, b = _solve(n, mu[:d_x], mu[d_x:], m[:d_x, :d_x], m[d_x:, :d_x], ridge_eps)
        y_hat.append(x_held @ a.T + b)
    return np.concatenate(y_hat)


def fit_ammse(
    x: FeatureTrack, y: FeatureTrack, ridge_eps: float = 1e-8
) -> AffineMap:
    """Fit the affine MMSE estimator from x columns to y columns.

    Frames with a dropout in either side are excluded pairwise. The ridge
    term eps * tr(C_xx)/d_x keeps near-singular covariances invertible;
    pass ridge_eps=0 for ordinary least squares.
    """
    if x.grid != y.grid:
        raise GridMismatchError("x and y must share one frame grid")
    a, b, n = _fit_arrays(x.values, y.values, ridge_eps)
    return AffineMap(a, b, x.columns, y.columns, n, ridge_eps)


def predict(mapping: AffineMap, x: FeatureTrack) -> FeatureTrack:
    """Apply the affine map per frame; dropout in any input column propagates."""
    if x.columns != mapping.feature_names:
        raise FeatureNameMismatchError(
            f"track columns {x.columns} != fitted features {mapping.feature_names}"
        )
    out = x.values @ mapping.a.T + mapping.b
    out[np.isnan(x.values).any(axis=1)] = np.nan
    return FeatureTrack(x.grid, mapping.target_names, out)


def pearson_r(y, y_hat) -> float:
    """Sample Pearson correlation over pairwise-complete values.

    Returns NaN when either side has zero variance (the undefined marker).
    """
    a = np.asarray(y, dtype=np.float64).ravel()
    b = np.asarray(y_hat, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("sequences must have equal length")
    valid = np.isfinite(a) & np.isfinite(b)
    a = a[valid]
    b = b[valid]
    if len(a) < 3:
        raise TooFewPairsError(f"need >= 3 paired values, got {len(a)}")
    ac = a - a.mean()
    bc = b - b.mean()
    denom = math.sqrt(float(ac @ ac) * float(bc @ bc))
    if denom == 0.0:
        return math.nan
    return float(ac @ bc) / denom


def bin_affect(
    emotion: FeatureTrack,
    dimension: str,
    policy: str = "median_split",
    speaking: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Partition speaking frames into high/low masks on one affect dimension.

    median_split uses the median of the dimension over speaking frames (ties
    go low, so all-equal values leave the high bin empty with a warning);
    zero_threshold sends positive values high.
    """
    if policy not in BIN_POLICIES:
        raise ValueError(f"unknown binning policy {policy!r}; expected {BIN_POLICIES}")
    values = emotion.column(dimension)
    if speaking is None:
        speaking = np.ones(len(values), dtype=bool)
    else:
        speaking = np.asarray(speaking, dtype=bool)
    mask = speaking & np.isfinite(values)
    if policy == "median_split":
        if not mask.any():
            return np.zeros_like(mask), np.zeros_like(mask)
        threshold = float(np.median(values[mask]))
        high = mask & (values > threshold)
        low = mask & (values <= threshold)
        if mask.any() and not high.any():
            warnings.warn(
                f"all {dimension} values equal; every frame assigned low",
                DegenerateSplitWarning,
                stacklevel=2,
            )
    else:  # zero_threshold
        high = mask & (values > 0.0)
        low = mask & (values <= 0.0)
    return high, low


def feature_set_track(
    table: SessionTable, feature_set: str, affect_derivatives: bool = True
) -> FeatureTrack:
    """Resolve a named feature set to its columns within a session table."""
    try:
        if feature_set == "prosody":
            return table.block("speech").select(PROSODY_COLUMNS)
        if feature_set == "mfcc":
            return table.block("speech").select(PC_COLUMNS)
    except KeyError as exc:
        raise FeatureNameMismatchError(
            f"feature set {feature_set!r} needs the standard speech columns "
            f"({exc.args[0]}); sessions with custom speech features should use "
            f"feature set 'all'"
        ) from None
    if feature_set == "all":
        return table.block("speech")
    if feature_set in ("arousal", "valence"):
        base = table.block("emotion").select([feature_set])
        return temporal_derivatives(base) if affect_derivatives else base
    raise ValueError(f"unknown feature set {feature_set!r}; expected {FEATURE_SETS}")


@dataclass(frozen=True)
class MappingEvaluation:
    """Per-session mapping quality: Pearson r per target column."""

    feature_set: str
    protocol: str
    condition: str
    affect_bin: str
    bin_dimension: str | None
    per_target: dict[str, float]
    n_frames: int


def _selection_mask(
    table: SessionTable,
    condition: str,
    affect_bin: str,
    dimension: str | None,
    bin_policy: str,
) -> np.ndarray:
    mask = condition_mask(table, condition)
    if affect_bin != "all":
        if affect_bin not in ("high", "low"):
            raise ValueError(f"unknown affect bin {affect_bin!r}")
        high, low = bin_affect(
            table.block("emotion"), dimension, policy=bin_policy,
            speaking=condition_mask(table, "all"),
        )
        mask &= high if affect_bin == "high" else low
    return mask


def protocol_label(protocol: str, n_folds: int) -> str:
    """How held-out r was obtained, as recorded in reports: `in_sample` or `k_fold(n)`."""
    return protocol if protocol == "in_sample" else f"k_fold({n_folds})"


def evaluate_mapping(
    table: SessionTable,
    feature_set: str,
    region: str | None = None,
    protocol: str = "k_fold",
    n_folds: int = 5,
    condition: str = "all",
    affect_bin: str = "all",
    bin_policy: str = "median_split",
    ridge_eps: float = 1e-8,
    affect_derivatives: bool = True,
) -> MappingEvaluation:
    """Fit and score the speech-to-motion map for one session.

    Frames are restricted to speaking = 1, then filtered by condition and
    affect bin before fitting. Under k_fold, folds are contiguous temporal
    blocks and r is computed over the concatenated held-out predictions;
    under in_sample, the map is fitted and scored on the same frames.
    `region=None` scores every activeness column of the joint fit. Affect
    bins split the feature set's own dimension, or arousal for the speech
    feature sets.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected {PROTOCOLS}")
    if protocol == "k_fold" and n_folds < 2:
        raise ValidationError(f"k_fold needs n_folds >= 2, got {n_folds!r}")
    affect_dimension = None
    if affect_bin != "all":
        affect_dimension = feature_set if feature_set in ("arousal", "valence") else "arousal"

    x_track = feature_set_track(table, feature_set, affect_derivatives)
    activeness = table.block("activeness")
    targets = activeness.columns if region is None else (region,)
    y_all = activeness.select(list(targets))

    mask = _selection_mask(table, condition, affect_bin, affect_dimension, bin_policy)
    idx = np.flatnonzero(mask)
    x = x_track.values[idx]
    y = y_all.values[idx]

    if protocol == "in_sample":
        a, b, _ = _fit_arrays(x, y, ridge_eps)
        y_hat = x @ a.T + b
    else:
        if len(idx) < n_folds:
            raise InsufficientFramesError(
                f"{len(idx)} selected frames cannot form {n_folds} folds"
            )
        y_hat = _k_fold_predictions(x, y, n_folds, ridge_eps)
        y_hat[np.isnan(x).any(axis=1)] = np.nan

    per_target = {}
    for j, name in enumerate(targets):
        try:
            per_target[name] = pearson_r(y[:, j], y_hat[:, j])
        except TooFewPairsError:
            per_target[name] = math.nan
    return MappingEvaluation(
        feature_set=feature_set,
        protocol=protocol_label(protocol, n_folds),
        condition=condition,
        affect_bin=affect_bin,
        bin_dimension=affect_dimension,
        per_target=per_target,
        n_frames=len(idx),
    )


@dataclass(frozen=True)
class CouplingCell:
    """One report row: mean r over dyads for a region/feature/condition/bin."""

    region: str
    feature_set: str
    condition: str
    affect_bin: str
    bin_dimension: str
    mean_r: float
    sem_r: float
    n_dyads: int
    n_frames: int


def coupling_report(
    tables: Iterable[SessionTable],
    feature_sets: tuple[str, ...] = ("prosody", "mfcc", "arousal", "valence"),
    protocol: str = "k_fold",
    n_folds: int = 5,
    ridge_eps: float = 1e-8,
    bin_policy: str = "median_split",
    affect_derivatives: bool = True,
) -> list[CouplingCell]:
    """Mean/SEM of per-dyad r for every region and analysis cell.

    Every condition in CONDITIONS is evaluated. Affect bins are evaluated only
    for the arousal/valence feature sets, on their own dimension. Sessions
    whose frames cannot support a cell are skipped; the row records how many
    dyads contributed. `tables` (a mapping's values, or any iterable) is read
    once, in order, and a table is let go before the next is asked for, so a
    generator that loads each session on demand holds one table at a time.
    """
    keys = [  # (feature set, condition, affect bin) in report order
        (fs, condition, affect_bin) for fs in feature_sets for condition in CONDITIONS
        for affect_bin in (AFFECT_BINS if fs in ("arousal", "valence") else ("all",))
    ]
    r_by_region: dict[tuple, dict[str, list[float]]] = {key: {} for key in keys}
    frame_totals = dict.fromkeys(keys, 0)
    for table in tables.values() if isinstance(tables, Mapping) else tables:
        for key in keys:
            feature_set, condition, affect_bin = key
            try:
                ev = evaluate_mapping(
                    table, feature_set, None, protocol, n_folds, condition, affect_bin,
                    bin_policy, ridge_eps, affect_derivatives,
                )
            except InsufficientFramesError:
                continue
            frame_totals[key] += ev.n_frames
            for reg, r in ev.per_target.items():
                if not math.isnan(r):
                    r_by_region[key].setdefault(reg, []).append(r)
        del table  # so the source can free it before it yields the next
    return [
        CouplingCell(
            reg, *key, key[0] if key[2] != "all" else "", float(np.mean(rs)), sem_of(rs),
            len(rs), frame_totals[key],
        )
        for key, per_region in r_by_region.items()
        for reg, rs in sorted(per_region.items())
    ]


COUPLING_HEADER = (
    "region", "feature_set", "condition", "affect_bin", "bin_dimension",
    "mean_r", "sem_r", "n_dyads", "n_frames",
)
_COUPLING_CONVERTERS = (str, str, str, str, str, number, number, int, int)


def write_coupling_csv(cells: list[CouplingCell], path) -> None:
    write_records(path, COUPLING_HEADER, map(astuple, cells))


def read_coupling_csv(path) -> list[CouplingCell]:
    return [
        CouplingCell(*row)
        for row in read_records(path, COUPLING_HEADER, _COUPLING_CONVERTERS)
    ]
