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
CHUNK_FRAMES (256) rows and keep only their per-frame outputs, so their
working memory is set by the window length, not by the clip: each block is
converted to float64 from the clip's stored width (see
ingest.unit_samples), and its FFT and autocorrelation (of which pitch keeps
only the searched lags) are freed before the next. At 16 kHz pitch's
largest temporary, the complex spectrum of a block's windows zero-padded to
1024 samples, is 2 MiB. What still grows with the clip is the clip itself,
at its stored width (2 bytes per sample for 16-bit PCM), and the output
tracks (8 bytes per frame and column), which `temporal_derivatives` builds
in one array.
Blocking leaves every value bit-for-bit as a single whole-clip pass
computes it (see frames.row_blocks for the one condition this needs).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ClipShorterThanWindowError,
    DataError,
    DimensionMismatchError,
    TrackTooShortError,
    ValidationError,
)
from .frames import (
    FeatureTrack, FrameGrid, adopt, concat_columns, moments, read_json_object, row_blocks,
    write_json,
)
from .ingest import AudioClip, unit_samples

FRAME_RATE_HZ = 120.0
WINDOW_S = 0.025
VOICING_THRESHOLD = 0.45  # least normalized autocorrelation peak of a voiced frame
N_MEL_FILTERS = 26
LOG_FLOOR = 1e-10  # floor of the mel energies before the log
# Analysis frames are processed in blocks of this many rows (see _frame_blocks).
CHUNK_FRAMES = 256

MFCC_COLUMNS = tuple(f"mfcc_{i}" for i in range(1, 13))
PC_COLUMNS = tuple(f"pc_{i}" for i in range(1, 13))


def derivative_columns(columns: tuple[str, ...]) -> tuple[str, ...]:
    names = []
    for c in columns:
        names.extend((f"{c}_delta", f"{c}_delta2"))
    return tuple(names)


PROSODY_COLUMNS = ("f0_hz", "energy_rms") + derivative_columns(("f0_hz", "energy_rms"))
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


def _frame_blocks(clip: AudioClip) -> tuple[FrameGrid, int, Iterator[tuple[int, np.ndarray]]]:
    """The clip's feature_grid, the window length in samples, and the grid's
    analysis windows in :func:`frames.row_blocks`.

    The iterator yields (first frame index, block): each block is a fresh
    (CHUNK_FRAMES, win) float64 array of the samples, converted from the
    clip's stored width by :func:`ingest.unit_samples` when the iterator
    reaches it, so an extractor that keeps only its per-frame outputs holds
    one block at a time however long the clip is.
    """
    grid = feature_grid(clip)
    if clip.stored.ndim != 1:
        raise ValueError("feature extraction requires a mono clip")
    sr = clip.sample_rate_hz
    win = int(round(WINDOW_S * sr))
    starts = np.round(np.arange(grid.n_frames) / grid.rate_hz * sr)
    starts = np.clip(starts.astype(np.int64), 0, clip.n_samples - win)
    windows = np.lib.stride_tricks.sliding_window_view(clip.stored, win)
    blocks = row_blocks(0, grid.n_frames, CHUNK_FRAMES)
    return grid, win, ((lo, unit_samples(windows[starts[lo:hi]])) for lo, hi in blocks)


def _next_pow2(n: int) -> int:
    nfft = 1
    while nfft < n:
        nfft *= 2
    return nfft


def f0_contour(clip: AudioClip, fmin: float = 50.0, fmax: float = 500.0) -> FeatureTrack:
    """Fundamental frequency per frame in Hz; 0 marks unvoiced frames."""
    grid, win, blocks = _frame_blocks(clip)
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
        # each of the block's spectra, power and autocorrelation is freed
        # once the next step has used it, so none outlives the block
        spectra = np.fft.rfft(frames, nfft)
        power = spectra.real**2
        power += spectra.imag**2
        del spectra
        acf = np.fft.irfft(power, nfft)
        del power

        quiet = acf[:, 0] <= 1e-12
        safe_r0 = np.where(quiet, 1.0, acf[:, 0])
        # normalized autocorrelation at lags lag_min-1 .. lag_max+1 only: the
        # peak search and its parabolic neighbours need no other lag
        rho = acf[:, lag_min - 1:lag_max + 2] / safe_r0[:, None]
        del acf

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


def rms_energy(clip: AudioClip) -> FeatureTrack:
    """Root-mean-square amplitude of each analysis window."""
    grid, _, blocks = _frame_blocks(clip)
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


def mfcc(clip: AudioClip) -> FeatureTrack:
    """Mel-frequency cepstral coefficients 1..12 (coefficient 0 dropped)."""
    grid, win, blocks = _frame_blocks(clip)
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
    c = len(track.columns)
    values = np.empty((track.n_frames, 3 * c))  # filled in place: no hstack copy
    values[:, :c] = track.values
    for j in range(c):
        d1 = _ls_slope(track.values[:, j])
        values[:, c + 2 * j] = d1
        values[:, c + 2 * j + 1] = _ls_slope(d1)
    names = track.columns + derivative_columns(track.columns)
    return FeatureTrack(track.grid, names, values)


def prosody_features(clip: AudioClip, **f0_kwargs) -> FeatureTrack:
    """Six-column prosody block: f0, RMS energy and their derivatives."""
    return temporal_derivatives(concat_columns(f0_contour(clip, **f0_kwargs), rms_energy(clip)))


@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus orthonormal component rows and their variance ratios."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance_ratio: np.ndarray

    def __post_init__(self) -> None:
        mean, comps = adopt(self.mean), adopt(self.components)
        ratios = adopt(self.explained_variance_ratio)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValueError("components must be (k, d) matching the mean")
        if ratios.shape != (comps.shape[0],):
            raise ValueError("one variance ratio per component required")
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
        return cls(doc["mean"], doc["components"], doc["explained_variance_ratio"])


def fit_pca(*tracks: FeatureTrack, k: int = 12) -> PcaModel:
    """Top-k principal components of the column covariance of the tracks'
    stacked frames (one clip's in session scope, a corpus's in corpus scope),
    from :func:`frames.moments` of the one track's own array or of the stack.

    Data whose rank is below k (a silent clip's spectral columns, for one)
    raises a DataError naming both: fewer components than asked for could
    only fail later.
    """
    x = tracks[0].values if len(tracks) == 1 else np.vstack([t.values for t in tracks])
    n, d = x.shape
    if n <= d:
        raise TrackTooShortError(f"PCA needs more frames ({n}) than columns ({d})")
    n_complete, mean, scatter = moments(x)
    if n_complete < n:
        raise DataError("PCA input contains dropout values")
    cov = scatter / (n - 1)
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
        raise DataError(f"PCA input has rank {rank}, below the {k} components requested")
    components = eigvecs[:, :k].T.copy()
    # sign convention: largest-magnitude loading of each component is positive
    for row in components:
        pivot = np.argmax(np.abs(row))
        if row[pivot] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=components,
        explained_variance_ratio=eigvals[:k] / total,
    )


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


def pre_pca_tracks(clip: AudioClip, **f0_kwargs) -> tuple[FeatureTrack, FeatureTrack]:
    """A clip's six-column prosody track and 36-column spectral track.

    The spectral track (MFCCs and their derivatives) is what PCA is fitted on
    and projects; :func:`project_speech_features` finishes the front end.
    """
    return prosody_features(clip, **f0_kwargs), temporal_derivatives(mfcc(clip))


def project_speech_features(
    prosody: FeatureTrack, spectral: FeatureTrack, pca_model: PcaModel
) -> FeatureTrack:
    """The spectral track's 12-component PCA projection, then the prosody columns."""
    if pca_model.n_components != len(PC_COLUMNS):
        raise DimensionMismatchError(
            f"expected a {len(PC_COLUMNS)}-component PCA model, got {pca_model.n_components}"
        )
    return concat_columns(apply_pca(pca_model, spectral), prosody)


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
