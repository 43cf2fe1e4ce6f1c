"""Synthetic dyadic sessions with known ground-truth speech-to-motion coupling.

The generator draws an 18-column feature process (unit-variance Gaussian,
smoothed with a 50 ms kernel so it has speech-like temporal structure),
couples each region's per-frame displacement target to it through a known
affine map plus smoothed noise, and integrates marker positions whose
framewise displacement magnitudes reproduce those targets exactly. The
closed-form expected Pearson correlation between the targets and the best
affine prediction is s / sqrt(s^2 + sigma^2) with s^2 the signal variance,
which makes whole-pipeline verification possible without any real corpus.

Randomness: one seed feeds five named child streams (schedule, features,
noise, directions, emotion), drawn in that order, so identical specs produce
bitwise-identical sessions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentSpecError, ZeroSignalVarianceError
from .frames import FeatureTrack, FrameGrid, adopt, write_json
from .ingest import EMOTION_COLUMNS, SPEAKER_WORDING, AudioClip, Interval, SpeechIntervals
from .ingest import is_speaker
from .motion import CATEGORY_NAMES, DEFAULT_MAX_ABS_MM, RegionMap, max_abs_mm
from .speech_features import SPEECH_FEATURE_COLUMNS


def _finite_number(value) -> bool:
    """A number, not a bool, and finite."""
    return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class RegionCoupling:
    """Ground truth for one region: y = weights . x + offset + noise."""

    weights: np.ndarray
    offset: float
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        w = adopt(self.weights)
        if w.ndim != 1 or not np.isfinite(w).all():
            raise InconsistentSpecError("region weights must be a vector of finite numbers")
        if not (_finite_number(self.noise_sigma) and self.noise_sigma >= 0):
            raise InconsistentSpecError(
                f"noise_sigma must be a finite number >= 0; got {self.noise_sigma!r}"
            )
        if not _finite_number(self.offset):
            raise InconsistentSpecError(f"region offset must be a finite number; got {self.offset!r}")
        object.__setattr__(self, "weights", w)

    @property
    def signal_std(self) -> float:
        return float(np.sqrt(self.weights @ self.weights))


@dataclass(frozen=True)
class SynthSpec:
    """Everything needed to generate one session reproducibly."""

    seed: int
    regions: dict[str, RegionCoupling]
    duration_s: float = 60.0
    feature_dim: int = 18
    rate_hz: float = 120.0
    smoothing_s: float = 0.05
    markers_per_region: int = 2
    target_speaker: str = "F"
    partner_speaker: str = "M"
    target_turn_s: float = 3.0
    partner_turn_s: float = 2.0
    gap_s: float = 0.2
    overlap_prob: float = 0.25
    emotion_rate_hz: float = 10.0
    emotion_segment_s: float = 5.0
    feature_names: tuple[str, ...] = SPEECH_FEATURE_COLUMNS

    def __post_init__(self) -> None:
        if type(self.seed) is not int or self.seed < 0:
            raise InconsistentSpecError(f"seed must be an integer >= 0; got {self.seed!r}")
        for name in ("duration_s", "rate_hz", "emotion_rate_hz", "emotion_segment_s", "smoothing_s",
                     "target_turn_s", "partner_turn_s"):
            value = getattr(self, name)
            if not (_finite_number(value) and value > 0):
                raise InconsistentSpecError(f"{name} must be a positive finite number; got {value!r}")
        # a turn under a frame advances the schedule by next to nothing, so it
        # would take about duration_s / turn length turns to end
        for name in ("target_turn_s", "partner_turn_s"):
            if getattr(self, name) < 1.0 / self.rate_hz:
                raise InconsistentSpecError(
                    f"{name} {getattr(self, name)!r} is shorter than one frame "
                    f"(1 / rate_hz = {1.0 / self.rate_hz!r} s)"
                )
        # a gap below zero steps the turn schedule backwards without end
        if not (_finite_number(self.gap_s) and self.gap_s >= 0):
            raise InconsistentSpecError(f"gap_s must be a finite number >= 0; got {self.gap_s!r}")
        for rate in ("rate_hz", "emotion_rate_hz"):
            if round(self.duration_s * getattr(self, rate)) < 1:
                raise InconsistentSpecError(
                    f"duration_s {self.duration_s!r} gives no frame at {rate} {getattr(self, rate)!r}"
                )
        for name in ("target_speaker", "partner_speaker"):
            value = getattr(self, name)
            if type(value) is not str or not value:
                raise InconsistentSpecError(f"{name} must be a non-empty string; got {value!r}")
            if not is_speaker(value):
                raise InconsistentSpecError(f"{name} must be {SPEAKER_WORDING}; got {value!r}")
        if self.target_speaker == self.partner_speaker:
            raise InconsistentSpecError(
                f"target_speaker and partner_speaker must differ; both are {self.target_speaker!r}"
            )
        if not self.regions:
            raise InconsistentSpecError("at least one region is required")
        # a region names marker and activeness columns, which no table can split back out
        for name in self.regions:
            if any(c in name for c in ",\r\n"):
                raise InconsistentSpecError(f"region {name!r} holds a comma or a line break")
        if len(self.feature_names) != self.feature_dim:
            raise InconsistentSpecError(
                f"{len(self.feature_names)} feature names for feature_dim="
                f"{self.feature_dim}"
            )
        for name, rc in self.regions.items():
            if rc.weights.shape != (self.feature_dim,):
                raise InconsistentSpecError(
                    f"region {name!r} weights have shape {rc.weights.shape}, "
                    f"expected ({self.feature_dim},)"
                )
        if not 0.0 <= self.overlap_prob <= 1.0:
            raise InconsistentSpecError("overlap_prob must be in [0, 1]")
        if type(self.markers_per_region) is not int or self.markers_per_region < 1:
            raise InconsistentSpecError(
                f"markers_per_region must be an integer >= 1; got {self.markers_per_region!r}"
            )

    def region_map(self) -> dict[str, tuple[str, ...]]:
        return {
            region: tuple(f"{region}_m{i+1}" for i in range(self.markers_per_region))
            for region in self.regions
        }


def theoretical_r(spec: SynthSpec, region: str) -> float:
    """Population correlation between a region's target and its best affine fit."""
    rc = spec.regions[region]
    s = rc.signal_std
    if s == 0.0:
        raise ZeroSignalVarianceError(f"region {region!r} has zero coupling weights")
    return s / math.sqrt(s * s + rc.noise_sigma**2)


def noise_sigma_for_r(weights: np.ndarray, r: float) -> float:
    """Noise level that makes :func:`theoretical_r` equal `r` for these weights."""
    w = np.asarray(weights, dtype=np.float64)
    s = float(np.sqrt(w @ w))
    if s == 0.0:
        raise ZeroSignalVarianceError("zero coupling weights")
    if not 0.0 < r <= 1.0:
        raise ValueError("r must be in (0, 1]")
    return s * math.sqrt(1.0 / (r * r) - 1.0)


def default_spec(
    seed: int,
    n_regions: int = 8,
    duration_s: float = 60.0,
    target_r: float | None = None,
    noise_sigma: float | None = None,
    signal_scale: float = 0.5,
    offset_margin: float = 6.0,
    **overrides,
) -> SynthSpec:
    """Spec with seed-derived coupling rows for `n_regions` regions.

    Exactly one of `target_r` (noise chosen per region to hit that expected
    correlation) or `noise_sigma` may be given; omitting both yields a
    noiseless spec. Offsets are placed `offset_margin` standard deviations
    above zero so displacement targets stay non-negative.
    """
    if target_r is not None and noise_sigma is not None:
        raise InconsistentSpecError("give target_r or noise_sigma, not both")
    d = overrides.pop("feature_dim", 18)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    regions = {}
    for i in range(n_regions):
        w = rng.standard_normal(d)
        w *= signal_scale / np.sqrt(w @ w)
        if target_r is not None:
            sigma = noise_sigma_for_r(w, target_r)
        else:
            sigma = noise_sigma or 0.0
        offset = offset_margin * math.sqrt(signal_scale**2 + sigma**2)
        regions[f"region_{i+1}"] = RegionCoupling(
            weights=w, offset=offset, noise_sigma=sigma
        )
    return SynthSpec(
        seed=seed, regions=regions, duration_s=duration_s, feature_dim=d, **overrides
    )


@dataclass(frozen=True)
class SynthSession:
    """Generated session streams plus the bookkeeping needed to verify them."""

    speech: FeatureTrack
    markers: FeatureTrack  # <marker>_x,<marker>_y,<marker>_z columns, in mm
    intervals: SpeechIntervals
    emotion: FeatureTrack
    region_map: dict[str, tuple[str, ...]]
    targets: FeatureTrack
    clipped_frames: dict[str, int] = field(default_factory=dict)


def _smoothed_unit_noise(rng, n: int, cols: int, sigma_frames: float) -> np.ndarray:
    """Gaussian noise smoothed to sigma_frames, exactly unit variance per frame."""
    half = int(math.ceil(4.0 * sigma_frames))
    taps = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma_frames) ** 2)
    taps /= math.sqrt(float(taps @ taps))
    raw = rng.standard_normal((n + 2 * half, cols))
    out = np.empty((n, cols))
    for j in range(cols):
        out[:, j] = np.convolve(raw[:, j], taps, mode="valid")
    return out


def _turn_schedule(rng, spec: SynthSpec) -> SpeechIntervals:
    entries: list[Interval] = []
    speakers = (spec.target_speaker, spec.partner_speaker)
    turn_means = (spec.target_turn_s, spec.partner_turn_s)
    t = 0.0
    k = 0
    length = float(rng.uniform(0.5, 1.5)) * turn_means[0]
    while t < spec.duration_s - 0.5:
        end = min(t + length, spec.duration_s)
        entries.append(Interval(t, end, speakers[k % 2]))
        if end >= spec.duration_s:
            break
        next_length = float(rng.uniform(0.5, 1.5)) * turn_means[(k + 1) % 2]
        if rng.uniform() < spec.overlap_prob:
            # the next speaker cuts in before this turn ends; the cut-in is
            # capped by both turn lengths so a speaker never overlaps themselves
            t = end - float(rng.uniform(0.3, 1.0)) * 0.3 * min(length, next_length)
        else:
            t = end + float(rng.uniform(0.5, 1.5)) * spec.gap_s
        length = next_length
        k += 1
    return SpeechIntervals(tuple(entries))


def _emotion_script(rng, spec: SynthSpec) -> FeatureTrack:
    n = int(round(spec.duration_s * spec.emotion_rate_hz))
    grid = FrameGrid(rate_hz=spec.emotion_rate_hz, start_s=0.0, n_frames=n)
    smooth = _smoothed_unit_noise(rng, n, 2, sigma_frames=0.5 * spec.emotion_rate_hz)
    arousal = np.tanh(0.8 * smooth[:, 0])
    valence = np.tanh(0.8 * smooth[:, 1])
    seg_frames = max(1, int(round(spec.emotion_segment_s * spec.emotion_rate_hz)))
    n_segments = n // seg_frames + 1
    codes = rng.integers(0, len(CATEGORY_NAMES), size=n_segments)
    category = codes[np.arange(n) // seg_frames].astype(np.float64)
    values = np.column_stack([arousal, valence, category])
    return FeatureTrack(grid, EMOTION_COLUMNS, values)


def generate_coupled_session(spec: SynthSpec) -> SynthSession:
    """Generate speech features, markers, intervals and emotion for one session.

    Marker grids start one frame before the feature grid so that framewise
    displacement magnitudes land exactly on the feature timestamps (frame 0
    of a displacement track is pinned to zero by definition). Negative
    displacement targets are clipped to zero and counted; default offsets
    make clipping vanishingly rare.
    """
    streams = np.random.SeedSequence(spec.seed).spawn(5)
    rng_schedule = np.random.default_rng(streams[0])
    rng_features = np.random.default_rng(streams[1])
    rng_noise = np.random.default_rng(streams[2])
    rng_directions = np.random.default_rng(streams[3])
    rng_emotion = np.random.default_rng(streams[4])

    intervals = _turn_schedule(rng_schedule, spec)

    n = int(round(spec.duration_s * spec.rate_hz))
    sigma_frames = spec.smoothing_s * spec.rate_hz
    grid = FrameGrid(rate_hz=spec.rate_hz, start_s=0.0, n_frames=n)
    x = _smoothed_unit_noise(rng_features, n, spec.feature_dim, sigma_frames)
    speech = FeatureTrack(grid, spec.feature_names, x)

    region_names = tuple(spec.regions)
    noise = _smoothed_unit_noise(rng_noise, n, len(region_names), sigma_frames)
    targets = np.empty((n, len(region_names)))
    clipped: dict[str, int] = {}
    for j, name in enumerate(region_names):
        rc = spec.regions[name]
        y = x @ rc.weights + rc.offset + rc.noise_sigma * noise[:, j]
        clipped[name] = int((y < 0).sum())
        targets[:, j] = np.maximum(y, 0.0)
    target_track = FeatureTrack(grid, region_names, targets)

    region_map = spec.region_map()
    marker_names = tuple(m for region in region_names for m in region_map[region])
    positions = np.zeros((n + 1, len(marker_names), 3))
    col = 0
    for j, region in enumerate(region_names):
        for _ in region_map[region]:
            direction = rng_directions.standard_normal((n, 3))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            steps = direction * targets[:, j][:, None]
            positions[1:, col] = np.cumsum(steps, axis=0)
            col += 1
    reach = max_abs_mm(positions)
    if reach > DEFAULT_MAX_ABS_MM:
        raise InconsistentSpecError(
            f"markers reach {reach:.1f} mm, past the plausibility bound "
            f"{DEFAULT_MAX_ABS_MM} mm; lower signal_scale or duration_s"
        )
    marker_grid = FrameGrid(
        rate_hz=spec.rate_hz, start_s=-1.0 / spec.rate_hz, n_frames=n + 1
    )
    columns = tuple(f"{m}_{axis}" for m in marker_names for axis in "xyz")
    markers = FeatureTrack(marker_grid, columns, positions.reshape(n + 1, -1))

    emotion = _emotion_script(rng_emotion, spec)
    return SynthSession(
        speech=speech,
        markers=markers,
        intervals=intervals,
        emotion=emotion,
        region_map=region_map,
        targets=target_track,
        clipped_frames=clipped,
    )


def synth_region_map(spec: SynthSpec) -> RegionMap:
    """Region map over synthetic markers satisfying the structural invariants.

    Facial anatomy is meaningless for synthetic markers, so the required face
    regions are aliases over the generated regions (first region doubles as
    the upper face and head, last as the lower face and hands); the generated
    regions themselves are carried alongside under their own names.
    """
    names = list(spec.regions)
    gen = spec.region_map()
    upper = gen[names[0]]
    middle = gen[names[1]] if len(names) > 1 else gen[names[0]]
    rest = tuple(m for r in names[2:] for m in gen[r]) or gen[names[-1]]
    total = tuple(dict.fromkeys(upper + middle + rest))
    mapping = {
        "head": upper,
        "eyebrows": upper,
        "mouth": rest,
        "upper_face": upper,
        "middle_face": middle,
        "lower_face": rest,
        "total_face": total,
        "hands": gen[names[-1]],
    }
    mapping.update(gen)
    return RegionMap(mapping)


def sawtooth_clip(
    f0_hz: float = 220.0,
    duration_s: float = 1.0,
    sample_rate_hz: int = 16000,
    amplitude: float = 0.8,
) -> AudioClip:
    """Band-limited sawtooth with a known fundamental, for DSP front-end tests."""
    t = np.arange(int(round(duration_s * sample_rate_hz))) / sample_rate_hz
    n_harmonics = int(0.45 * sample_rate_hz / f0_hz)
    x = np.zeros_like(t)
    for k in range(1, n_harmonics + 1):
        x += ((-1.0) ** (k + 1)) * np.sin(2.0 * np.pi * k * f0_hz * t) / k
    x *= amplitude / np.abs(x).max()
    return AudioClip(samples=x, sample_rate_hz=sample_rate_hz)


def write_session_dir(spec: SynthSpec, out_dir, emit_tone_wav: bool = False) -> dict:
    """Emit a synthetic session in the exact file formats the loaders consume.

    Returns the session config mapping written to `config.json`.
    """
    from pathlib import Path

    from .frames import write_feature_csv
    from .ingest import write_emotion_csv, write_transcript_intervals, write_wav

    session = generate_coupled_session(spec)  # a spec it rejects leaves no directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    write_feature_csv(session.speech, out / "speech_features.csv")
    write_feature_csv(session.markers, out / "markers.csv")
    write_transcript_intervals(session.intervals, out / "transcript.txt")
    write_emotion_csv(session.emotion, out / "emotion.csv")
    synth_region_map(spec).to_json(out / "region_map.json")

    truth = {
        "seed": spec.seed,
        "duration_s": spec.duration_s,
        "feature_dim": spec.feature_dim,
        "regions": {
            name: {
                "weights": rc.weights.tolist(),
                "offset": rc.offset,
                "noise_sigma": rc.noise_sigma,
                "theoretical_r": theoretical_r(spec, name)
                if rc.signal_std > 0
                else None,
            }
            for name, rc in spec.regions.items()
        },
        "clipped_frames": session.clipped_frames,
    }
    write_json(out / "ground_truth.json", truth)

    config = {
        "id": f"synth-{spec.seed}",
        "speech_features": "speech_features.csv",
        "markers": "markers.csv",
        "transcript": "transcript.txt",
        "emotion": "emotion.csv",
        "region_map": "region_map.json",
        "speaker": spec.target_speaker,
    }
    if emit_tone_wav:
        write_wav(out / "tone.wav", sawtooth_clip(duration_s=min(spec.duration_s, 2.0)))
        config["audio"] = "tone.wav"
    write_json(out / "config.json", config)
    return config
