"""Frame-level prosodic and spectral speech features.

The extraction lattice is 120 frames per second with a 25 ms analysis window;
a clip of duration D yields floor((D - 0.025) * 120) + 1 frames and every
extractor agrees on that count. Pitch uses Hann-tapered normalized
autocorrelation with parabolic peak interpolation (voicing threshold 0.45 on
the normalized peak); unvoiced frames carry f0 = 0. Mel cepstra use 26
triangular filters from 0 Hz to Nyquist with a 1e-10 log floor, orthonormal
DCT-II, and coefficient 0 dropped. These are module constants, the same for
every clip and session.

`f0_contour`, `rms_energy` and `mfcc` work through the frames in blocks of
CHUNK_FRAMES rows and keep only their per-frame outputs, so their working
memory is set by the window length, not by the clip: each block's FFT and
autocorrelation (of which pitch keeps only the searched lags) are freed
before the next. What still grows with the clip is the decoded samples and
the output tracks (8 bytes per frame and column). Blocking leaves every
value bit-for-bit as a single whole-clip pass computes it (see
_frame_blocks for the one condition this needs).
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClipShorterThanWindowError,
    DataError,
    DimensionMismatchError,
    GridMismatchError,
    RankDeficientWarning,
    TrackTooShortError,
    ValidationError,
)
from .frames import FeatureTrack, FrameGrid, concat_columns, read_json_object, write_json
from .ingest import AudioClip

FRAME_RATE_HZ = 120.0
WINDOW_S = 0.025
VOICING_THRESHOLD = 0.45  # least normalized autocorrelation peak of a voiced frame
N_MEL_FILTERS = 26
LOG_FLOOR = 1e-10  # floor of the mel energies before the log
# Analysis frames are processed in blocks of this many rows (see _frame_blocks).
CHUNK_FRAMES = 1024

MFCC_COLUMNS = tuple(f"mfcc_{i}" for i in range(1, 13))
PC_COLUMNS = tuple(f"pc_{i}" for i in range(1, 13))


def derivative_columns(columns: tuple[str, ...]) -> tuple[str, ...]:
    names = []
    for c in columns:
        names.extend((f"{c}_delta", f"{c}_delta2"))
    return tuple(names)


PROSODY_COLUMNS = ("f0_hz", "energy_rms") + derivative_columns(("f0_hz", "energy_rms"))
SPECTRAL_COLUMNS = MFCC_COLUMNS + derivative_columns(MFCC_COLUMNS)
SPEECH_FEATURE_COLUMNS = PC_COLUMNS + PROSODY_COLUMNS


def feature_grid(clip: AudioClip) -> FrameGrid:
    """Extraction grid for a clip: frame i's window starts at start_s + i/rate."""
    n = int(math.floor((clip.duration_s - WINDOW_S) * FRAME_RATE_HZ)) + 1
    if n < 1:
        raise ClipShorterThanWindowError(
            f"clip of {clip.duration_s:.4f} s is shorter than the "
            f"{WINDOW_S * 1e3:.0f} ms analysis window"
        )
    return FrameGrid(rate_hz=FRAME_RATE_HZ, start_s=clip.start_s, n_frames=n)


def _frame_blocks(
    clip: AudioClip, grid: FrameGrid
) -> tuple[int, Iterator[tuple[int, np.ndarray]]]:
    """Window length in samples, and the grid's analysis windows in blocks.

    The iterator yields (first frame index, block): each block is a fresh
    (CHUNK_FRAMES, win) copy of the samples, made when the iterator reaches
    it, so an extractor that keeps only its per-frame outputs holds one block
    at a time however long the clip is. Every block has the same row count:
    the last one ends at the last frame and overlaps its predecessor, because
    BLAS rounds a small matrix product differently (OpenBLAS switches
    kernels, below 47 rows on an AVX-512 Xeon) and a short tail block would
    change the last bits of its MFCC rows. A grid shorter than CHUNK_FRAMES
    is one block, and an empty grid one (0, win) block.
    """
    if clip.samples.ndim != 1:
        raise ValueError("feature extraction requires a mono clip")
    sr = clip.sample_rate_hz
    win = int(round(WINDOW_S * sr))
    rel_start = grid.start_s - clip.start_s
    last_end = rel_start + (grid.n_frames - 1) / grid.rate_hz + WINDOW_S
    if rel_start < -0.5 / sr or last_end > clip.duration_s + 0.5 / sr:
        raise ClipShorterThanWindowError(
            f"grid spans [{grid.start_s:.4f}, {last_end + clip.start_s:.4f}] s "
            f"but clip covers {clip.duration_s:.4f} s"
        )
    starts = np.round((rel_start + np.arange(grid.n_frames) / grid.rate_hz) * sr)
    starts = np.clip(starts.astype(np.int64), 0, clip.n_samples - win)
    windows = np.lib.stride_tricks.sliding_window_view(clip.samples, win)
    chunk = CHUNK_FRAMES
    firsts = (
        max(0, min(lo, grid.n_frames - chunk))
        for lo in range(0, max(grid.n_frames, 1), chunk)
    )
    return win, ((lo, windows[starts[lo:lo + chunk]]) for lo in firsts)


def _next_pow2(n: int) -> int:
    nfft = 1
    while nfft < n:
        nfft *= 2
    return nfft


def f0_contour(
    clip: AudioClip,
    grid: FrameGrid | None = None,
    fmin: float = 50.0,
    fmax: float = 500.0,
) -> FeatureTrack:
    """Fundamental frequency per frame in Hz; 0 marks unvoiced frames."""
    if grid is None:
        grid = feature_grid(clip)
    win, blocks = _frame_blocks(clip, grid)
    sr = clip.sample_rate_hz
    lag_min = max(2, int(math.floor(sr / fmax)))
    lag_max = min(int(math.ceil(sr / fmin)), win - 2)
    if lag_min >= lag_max:
        raise ValidationError(f"pitch range [{fmin}, {fmax}] Hz unusable at {sr} Hz")
    taper = np.hanning(win)
    nfft = _next_pow2(2 * win)

    f0 = np.empty(grid.n_frames)
    for lo, frames in blocks:
        frames -= frames.mean(axis=1, keepdims=True)
        frames *= taper
        spectra = np.fft.rfft(frames, nfft)
        acf = np.fft.irfft(spectra.real**2 + spectra.imag**2, nfft)

        r0 = acf[:, 0]
        quiet = r0 <= 1e-12
        safe_r0 = np.where(quiet, 1.0, r0)
        # normalized autocorrelation at lags lag_min-1 .. lag_max+1 only: the
        # peak search and its parabolic neighbours need no other lag
        rho = acf[:, lag_min - 1:lag_max + 2] / safe_r0[:, None]

        best = np.argmax(rho[:, 1:-1], axis=1) + 1
        rows = np.arange(len(best))
        r_m1 = rho[rows, best - 1]
        r_0 = rho[rows, best]
        r_p1 = rho[rows, best + 1]
        denom = r_m1 - 2.0 * r_0 + r_p1
        usable = np.abs(denom) > 1e-12
        shift = np.where(usable, 0.5 * (r_m1 - r_p1) / np.where(usable, denom, 1.0), 0.0)
        shift = np.clip(shift, -0.5, 0.5)
        lag = (best + (lag_min - 1)) + shift

        voiced = (r_0 >= VOICING_THRESHOLD) & ~quiet
        f0[lo:lo + len(frames)] = np.where(voiced, np.clip(sr / lag, fmin, fmax), 0.0)
    return FeatureTrack(grid, ("f0_hz",), f0)


def rms_energy(clip: AudioClip, grid: FrameGrid | None = None) -> FeatureTrack:
    """Root-mean-square amplitude of each analysis window."""
    if grid is None:
        grid = feature_grid(clip)
    _, blocks = _frame_blocks(clip, grid)
    rms = np.empty(grid.n_frames)
    for lo, frames in blocks:
        rms[lo:lo + len(frames)] = np.sqrt(np.mean(frames**2, axis=1))
    return FeatureTrack(grid, ("energy_rms",), rms)


def _mel(f: np.ndarray) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + f / 700.0)


def _mel_inv(m: np.ndarray) -> np.ndarray:
    return 700.0 * (10.0 ** (m / 2595.0) - 1.0)


def _mel_filterbank(sr: int, nfft: int, n_filters: int) -> np.ndarray:
    edges = _mel_inv(np.linspace(0.0, _mel(np.array(sr / 2.0)), n_filters + 2))
    bin_freqs = np.arange(nfft // 2 + 1) * sr / nfft
    fb = np.zeros((n_filters, len(bin_freqs)))
    for j in range(n_filters):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        up = (bin_freqs - lo) / (mid - lo)
        down = (hi - bin_freqs) / (hi - mid)
        fb[j] = np.maximum(0.0, np.minimum(up, down))
    return fb


def _dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    d[0] /= math.sqrt(2.0)
    return d


def mfcc(clip: AudioClip, grid: FrameGrid | None = None) -> FeatureTrack:
    """Mel-frequency cepstral coefficients 1..12 (coefficient 0 dropped)."""
    if grid is None:
        grid = feature_grid(clip)
    win, blocks = _frame_blocks(clip, grid)
    nfft = _next_pow2(win)
    taper = np.hanning(win)
    filters = _mel_filterbank(clip.sample_rate_hz, nfft, N_MEL_FILTERS).T
    dct = _dct_matrix(N_MEL_FILTERS).T
    n_keep = len(MFCC_COLUMNS)
    coeffs = np.empty((grid.n_frames, n_keep))
    for lo, frames in blocks:
        power = np.abs(np.fft.rfft(frames * taper, nfft)) ** 2
        log_e = np.log(np.maximum(power @ filters, LOG_FLOOR))
        coeffs[lo:lo + len(frames)] = (log_e @ dct)[:, 1:n_keep + 1]
    return FeatureTrack(grid, MFCC_COLUMNS, coeffs)


def _ls_slope(x: np.ndarray) -> np.ndarray:
    """Least-squares slope of x over a +/-2 frame window, per frame.

    Interior frames reduce to the classic (-2,-1,0,1,2)/10 stencil; the two
    frames at each edge regress over their shrunken window.
    """
    n = len(x)
    out = np.empty(n)
    kernel = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) / 10.0
    if n >= 5:
        out[2:n - 2] = np.correlate(x, kernel, mode="valid")
    for t in (0, 1, n - 2, n - 1):
        lo, hi = max(0, t - 2), min(n - 1, t + 2)
        idx = np.arange(lo, hi + 1)
        ic = idx - idx.mean()
        out[t] = float(ic @ x[lo:hi + 1]) / float(ic @ ic)
    return out


def temporal_derivatives(track: FeatureTrack) -> FeatureTrack:
    """Append first and second local-regression derivatives for every column.

    Units are per frame. Output order is the original columns followed by
    <col>_delta, <col>_delta2 for each column in turn.
    """
    if track.n_frames < 5:
        raise TrackTooShortError(
            f"need >= 5 frames for derivatives, got {track.n_frames}"
        )
    derived = np.empty((track.n_frames, 2 * len(track.columns)))
    for j in range(len(track.columns)):
        d1 = _ls_slope(track.values[:, j])
        derived[:, 2 * j] = d1
        derived[:, 2 * j + 1] = _ls_slope(d1)
    names = track.columns + derivative_columns(track.columns)
    return FeatureTrack(track.grid, names, np.hstack([track.values, derived]))


def prosody_features(
    clip: AudioClip, grid: FrameGrid | None = None, **f0_kwargs
) -> FeatureTrack:
    """Six-column prosody block: f0, RMS energy and their derivatives."""
    if grid is None:
        grid = feature_grid(clip)
    base = concat_columns(f0_contour(clip, grid, **f0_kwargs), rms_energy(clip, grid))
    return temporal_derivatives(base)


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus orthonormal component rows and their variance ratios."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        ratios = np.asarray(self.explained_variance_ratio, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValueError("components must be (k, d) matching the mean")
        if ratios.shape != (comps.shape[0],):
            raise ValueError("one variance ratio per component required")
        for arr in (mean, comps, ratios):
            arr.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "explained_variance_ratio", ratios)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    def to_json(self, path) -> None:
        write_json(path, {
            "mean": self.mean.tolist(),
            "components": self.components.tolist(),
            "explained_variance_ratio": self.explained_variance_ratio.tolist(),
        })

    @classmethod
    def from_json(cls, path) -> "PcaModel":
        doc = read_json_object(path)
        return cls(
            mean=np.asarray(doc["mean"]),
            components=np.asarray(doc["components"]),
            explained_variance_ratio=np.asarray(doc["explained_variance_ratio"]),
        )


def fit_pca(track: FeatureTrack, k: int = 12) -> PcaModel:
    """Top-k principal components of the track's column covariance.

    Components with numerically zero variance are dropped with a
    RankDeficientWarning instead of failing, so downstream projection still
    works on degenerate data.
    """
    x = track.values
    n, d = x.shape
    if n <= d:
        raise TrackTooShortError(f"PCA needs more frames ({n}) than columns ({d})")
    if np.isnan(x).any():
        raise DataError("PCA input contains dropout values")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.maximum(eigvals[order], 0.0)
    eigvecs = eigvecs[:, order]

    total = eigvals.sum()
    if total <= 0.0:
        raise DataError("PCA input has zero total variance")
    tol = max(eigvals[0] * 1e-12, 1e-300)
    rank = int(np.sum(eigvals > tol))
    if rank < k:
        warnings.warn(
            f"requested {k} components but data rank is {rank}; keeping {rank}",
            RankDeficientWarning,
            stacklevel=2,
        )
    keep = min(k, rank)
    components = eigvecs[:, :keep].T.copy()
    # sign convention: largest-magnitude loading of each component is positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratio=eigvals[:keep] / total,
    )


def fit_pca_pooled(tracks: list[FeatureTrack]) -> PcaModel:
    """Fit one 12-component model on the stacked frames of several tracks (corpus scope)."""
    stacked = np.vstack([t.values for t in tracks])
    grid = FrameGrid(rate_hz=1.0, start_s=0.0, n_frames=stacked.shape[0])
    return fit_pca(FeatureTrack(grid, tracks[0].columns, stacked))


def apply_pca(model: PcaModel, track: FeatureTrack) -> FeatureTrack:
    """Project (x - mean) onto the component rows; columns become pc_1..pc_k."""
    if track.values.shape[1] != model.mean.shape[0]:
        raise DimensionMismatchError(
            f"track has {track.values.shape[1]} columns, model expects "
            f"{model.mean.shape[0]}"
        )
    projected = (track.values - model.mean) @ model.components.T
    bad = np.isnan(track.values).any(axis=1)
    projected[bad] = np.nan
    names = tuple(f"pc_{i}" for i in range(1, model.n_components + 1))
    return FeatureTrack(track.grid, names, projected)


def assemble_speech_features(pca12: FeatureTrack, prosody: FeatureTrack) -> FeatureTrack:
    """Concatenate 12 spectral components with the 6 prosody columns."""
    if pca12.grid != prosody.grid:
        raise GridMismatchError(
            f"component grid {pca12.grid} != prosody grid {prosody.grid}"
        )
    if pca12.columns != PC_COLUMNS:
        raise DimensionMismatchError(
            f"expected columns {PC_COLUMNS}, got {pca12.columns}"
        )
    if prosody.columns != PROSODY_COLUMNS:
        raise DimensionMismatchError(
            f"expected columns {PROSODY_COLUMNS}, got {prosody.columns}"
        )
    return concat_columns(pca12, prosody)


def pre_pca_tracks(clip: AudioClip, **f0_kwargs) -> tuple[FeatureTrack, FeatureTrack]:
    """A clip's six-column prosody track and 36-column spectral track.

    The spectral track (MFCCs and their derivatives) is what PCA is fitted on
    and projects; :func:`project_speech_features` finishes the front end.
    """
    grid = feature_grid(clip)
    prosody = prosody_features(clip, grid, **f0_kwargs)
    return prosody, temporal_derivatives(mfcc(clip, grid))


def project_speech_features(
    prosody: FeatureTrack, spectral: FeatureTrack, pca_model: PcaModel
) -> FeatureTrack:
    """The spectral track's PCA projection, assembled with the prosody columns."""
    return assemble_speech_features(apply_pca(pca_model, spectral), prosody)


def extract_speech_features(
    clip: AudioClip, pca_model: PcaModel | None = None, **f0_kwargs
) -> tuple[FeatureTrack, PcaModel]:
    """Full per-clip front end: prosody + MFCC derivatives + PCA + assembly.

    Pass `pca_model` to project with a model fitted elsewhere (corpus scope);
    otherwise one is fitted on this clip's spectral frames.
    """
    prosody, spectral = pre_pca_tracks(clip, **f0_kwargs)
    if pca_model is None:
        pca_model = fit_pca(spectral)
    return project_speech_features(prosody, spectral, pca_model), pca_model
