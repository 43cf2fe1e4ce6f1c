import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion.errors import (
    ClipShorterThanWindowError,
    DataError,
    DimensionMismatchError,
    TrackTooShortError,
)
from speechmotion.frames import FeatureTrack, FrameGrid
from speechmotion.ingest import AudioClip
from speechmotion.speech_features import (
    PROSODY_COLUMNS,
    SPEECH_FEATURE_COLUMNS,
    PcaModel,
    apply_pca,
    extract_speech_features,
    f0_contour,
    feature_grid,
    fit_pca,
    mfcc,
    pre_pca_tracks,
    project_speech_features,
    prosody_features,
    rms_energy,
    temporal_derivatives,
)
from speechmotion.synth import sawtooth_clip


def noise_clip(seed=0, duration=1.0, sr=16000, amp=0.3):
    rng = np.random.default_rng(seed)
    x = np.clip(rng.standard_normal(int(duration * sr)) / 4.0, -1, 1) * amp / 0.3
    return AudioClip(x * 0.3 / amp * amp, sr)  # keep |x| <= amp


def test_feature_grid_formula():
    clip = AudioClip(np.zeros(16000), 16000)
    grid = feature_grid(clip)
    assert grid.n_frames == int(np.floor((1.0 - 0.025) * 120.0)) + 1
    assert grid.rate_hz == 120.0


def test_feature_grid_too_short():
    with pytest.raises(ClipShorterThanWindowError):
        feature_grid(AudioClip(np.zeros(300), 16000))


def test_all_extractors_share_frame_count():
    clip = noise_clip(1, duration=0.73)
    grid = feature_grid(clip)
    for extract in (f0_contour, rms_energy, mfcc):
        assert extract(clip).grid == grid


class TestF0:
    def test_sawtooth_fundamental(self):
        # known-fundamental oracle: 220 Hz sawtooth
        f0 = f0_contour(sawtooth_clip(220.0, 1.0)).column("f0_hz")
        voiced = f0 > 0
        assert voiced.mean() >= 0.95
        assert (np.abs(f0[voiced] - 220.0) <= 2.0).mean() >= 0.95

    def test_white_noise_unvoiced(self):
        f0 = f0_contour(noise_clip(2)).column("f0_hz")
        assert (f0 == 0).mean() >= 0.90

    def test_silence_all_zero(self):
        f0 = f0_contour(AudioClip(np.zeros(16000), 16000)).column("f0_hz")
        assert np.all(f0 == 0.0)

    def test_gain_invariance_on_voiced_frames(self):
        clip = sawtooth_clip(150.0, 0.5, amplitude=0.4)
        half = AudioClip(clip.samples * 0.5, clip.sample_rate_hz)
        a = f0_contour(clip).column("f0_hz")
        b = f0_contour(half).column("f0_hz")
        assert np.allclose(a, b, atol=1e-9)

    def test_range_respected(self):
        f0 = f0_contour(sawtooth_clip(220.0, 0.5)).column("f0_hz")
        voiced = f0[f0 > 0]
        assert np.all((voiced >= 50.0) & (voiced <= 500.0))


class TestRms:
    def test_constant_amplitude(self):
        clip = AudioClip(np.full(8000, 0.25), 16000)
        assert np.allclose(rms_energy(clip).column("energy_rms"), 0.25, atol=1e-12)

    def test_fullscale_sine(self):
        # analytic oracle: RMS of a unit sine is 1/sqrt(2); 440 Hz puts an
        # integer number of periods in the 25 ms window, killing the residual
        t = np.arange(16000) / 16000.0
        clip = AudioClip(np.sin(2 * np.pi * 440.0 * t), 16000)
        r = rms_energy(clip).column("energy_rms")
        assert np.abs(r - 1.0 / np.sqrt(2.0)).max() < 1e-3

    def test_silence(self):
        assert np.all(rms_energy(AudioClip(np.zeros(8000), 16000)).column("energy_rms") == 0)

    def test_scale_covariance(self):
        clip = noise_clip(3)
        scaled = AudioClip(clip.samples * 0.5, clip.sample_rate_hz)
        a = rms_energy(clip).column("energy_rms")
        b = rms_energy(scaled).column("energy_rms")
        assert np.allclose(b, 0.5 * a, rtol=1e-12)


class TestMfcc:
    def test_column_count(self):
        assert mfcc(noise_clip(4)).values.shape[1] == 12

    def test_silence_stationary(self):
        coeffs = mfcc(AudioClip(np.zeros(16000), 16000)).values
        assert np.allclose(coeffs, coeffs[0], atol=1e-12)

    def test_sine_vs_noise_separation(self):
        # filterbank-response oracle: a pure tone concentrates mel energy and
        # must differ from broadband noise by far more than noise scatter
        t = np.arange(16000) / 16000.0
        tone = mfcc(AudioClip(0.7 * np.sin(2 * np.pi * 1000.0 * t), 16000)).values
        noise = mfcc(noise_clip(5)).values
        gap = np.abs(tone.mean(axis=0) - noise.mean(axis=0))
        assert (gap > 3.0 * noise.std(axis=0, ddof=1)).any()

    def test_gain_invariance(self):
        clip = noise_clip(6)
        doubled = AudioClip(clip.samples * 2.0, clip.sample_rate_hz)
        assert np.abs(mfcc(clip).values - mfcc(doubled).values).max() < 1e-6


class TestTemporalDerivatives:
    def grid(self, n):
        return FrameGrid(120.0, 0.0, n)

    def test_constant(self):
        track = FeatureTrack(self.grid(10), ("x",), np.full(10, 3.7))
        out = temporal_derivatives(track)
        assert np.allclose(out.column("x_delta"), 0.0, atol=1e-12)
        assert np.allclose(out.column("x_delta2"), 0.0, atol=1e-12)

    def test_linear_ramp(self):
        track = FeatureTrack(self.grid(20), ("x",), -1.5 * np.arange(20.0))
        out = temporal_derivatives(track)
        assert np.allclose(out.column("x_delta"), -1.5, atol=1e-9)
        assert np.allclose(out.column("x_delta2"), 0.0, atol=1e-9)

    def test_quadratic_curvature(self):
        # regression-slope oracle: x_i = i^2 has slope 2i, curvature 2
        track = FeatureTrack(self.grid(30), ("x",), np.arange(30.0) ** 2)
        out = temporal_derivatives(track)
        assert np.allclose(out.column("x_delta")[2:-2], 2.0 * np.arange(2, 28), atol=1e-9)
        assert np.allclose(out.column("x_delta2")[4:-4], 2.0, atol=1e-9)

    def test_too_short(self):
        with pytest.raises(TrackTooShortError):
            temporal_derivatives(FeatureTrack(self.grid(4), ("x",), np.zeros(4)))

    def test_column_order(self):
        track = FeatureTrack(self.grid(6), ("a", "b"), np.zeros((6, 2)))
        out = temporal_derivatives(track)
        assert out.columns == ("a", "b", "a_delta", "a_delta2", "b_delta", "b_delta2")

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=5, max_value=30),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_linearity(self, n, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n)
        g = FrameGrid(120.0, 0.0, n)
        dx = temporal_derivatives(FeatureTrack(g, ("v",), x)).values
        dy = temporal_derivatives(FeatureTrack(g, ("v",), y)).values
        dz = temporal_derivatives(FeatureTrack(g, ("v",), a * x + b * y)).values
        assert np.allclose(dz, a * dx + b * dy, atol=1e-9 * (1 + abs(a) + abs(b)))


class TestPca:
    def make_track(self, data):
        return FeatureTrack(
            FrameGrid(120.0, 0.0, data.shape[0]),
            tuple(f"c{i}" for i in range(data.shape[1])),
            data,
        )

    def test_exact_rank_two(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((100, 2)) @ rng.standard_normal((2, 36))
        with pytest.raises(DataError, match="rank 2, below the 12 components requested"):
            fit_pca(self.make_track(data), k=12)
        model = fit_pca(self.make_track(data), k=2)
        assert model.n_components == 2
        assert model.explained_variance_ratio.sum() == pytest.approx(1.0, abs=1e-9)

    def test_isotropic_ratios(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((20000, 36))
        model = fit_pca(self.make_track(data), k=12)
        assert np.allclose(model.explained_variance_ratio, 1 / 36, atol=5e-3)

    def test_ratios_match_independent_svd(self):
        # eigenvalue oracle via an SVD of the centered data matrix
        rng = np.random.default_rng(3)
        data = rng.standard_normal((300, 8)) @ rng.standard_normal((8, 8))
        track = self.make_track(data)
        model = fit_pca(track, k=5)
        centered = data - data.mean(axis=0)
        sv = np.linalg.svd(centered, compute_uv=False)
        ratios = (sv**2) / (sv**2).sum()
        assert np.allclose(model.explained_variance_ratio, ratios[:5], atol=1e-9)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(4)
        model = fit_pca(self.make_track(rng.standard_normal((200, 10))), k=6)
        gram = model.components @ model.components.T
        assert np.allclose(gram, np.eye(6), atol=1e-9)

    def test_projection_decorrelates(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((500, 6)) @ rng.standard_normal((6, 6))
        track = self.make_track(data)
        model = fit_pca(track, k=6)
        proj = apply_pca(model, track).values
        cov = np.cov(proj, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() < 1e-6 * np.abs(np.diag(cov)).max()

    def test_project_training_mean_is_zero(self):
        rng = np.random.default_rng(6)
        track = self.make_track(rng.standard_normal((50, 4)) + 3.0)
        model = fit_pca(track, k=2)
        mean_track = self.make_track(np.tile(model.mean, (1, 1)))
        assert np.allclose(apply_pca(model, mean_track).values, 0.0, atol=1e-9)

    def test_rank_k_reconstruction(self):
        rng = np.random.default_rng(7)
        data = rng.standard_normal((80, 3)) @ rng.standard_normal((3, 9))
        track = self.make_track(data)
        model = fit_pca(track, k=3)
        proj = apply_pca(model, track).values
        recon = proj @ model.components + model.mean
        assert np.allclose(recon, data, atol=1e-9)

    def test_projection_matches_dense_multiply(self):
        # dense-multiply oracle
        rng = np.random.default_rng(8)
        track = self.make_track(rng.standard_normal((60, 5)))
        model = fit_pca(track, k=3)
        x = rng.standard_normal((4, 5))
        out = apply_pca(model, self.make_track(x)).values
        expect = (x - model.mean) @ model.components.T
        assert np.allclose(out, expect, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(9)
        model = fit_pca(self.make_track(rng.standard_normal((50, 4))), k=2)
        with pytest.raises(DimensionMismatchError):
            apply_pca(model, self.make_track(rng.standard_normal((5, 7))))

    def test_nan_rows_propagate(self):
        rng = np.random.default_rng(10)
        model = fit_pca(self.make_track(rng.standard_normal((50, 4))), k=2)
        x = rng.standard_normal((3, 4))
        x[1, 2] = np.nan
        out = apply_pca(model, self.make_track(x)).values
        assert np.isnan(out[1]).all()
        assert np.isfinite(out[[0, 2]]).all()

    def test_tracks_fit_as_their_stacked_frames(self):
        # the corpus scope: one model on the frames of several tracks, bit for
        # bit the model of one track that holds them all
        rng = np.random.default_rng(12)
        parts = [rng.standard_normal((n, 14)) @ rng.standard_normal((14, 14)) for n in (40, 55, 23)]
        for count in (2, 3):
            pooled = fit_pca(*(self.make_track(x) for x in parts[:count]), k=12)
            whole = fit_pca(self.make_track(np.vstack(parts[:count])), k=12)
            for name in ("mean", "components", "explained_variance_ratio"):
                assert np.array_equal(getattr(pooled, name), getattr(whole, name))

    def test_dropout_is_a_data_error(self):
        data = np.random.default_rng(13).standard_normal((50, 4))
        data[7, 2] = np.nan
        with pytest.raises(DataError, match="dropout"):
            fit_pca(self.make_track(data), k=2)

    def test_a_view_fits_as_its_copy(self):
        # one track is reduced in place: a row slice that starts 8 bytes past
        # a 16-byte boundary fits bit for bit as a fresh copy of its rows
        data = np.random.default_rng(14).standard_normal((301, 9)) @ np.diag(np.arange(1.0, 10.0))
        view = data[1:]
        assert view.ctypes.data % 16 == 8
        viewed = fit_pca(self.make_track(view), k=5)
        copied = fit_pca(self.make_track(view.copy()), k=5)
        for name in ("mean", "components", "explained_variance_ratio"):
            assert np.array_equal(getattr(viewed, name), getattr(copied, name))

    def test_one_track_peaks_under_a_quarter_more_than_its_bytes(self):
        """Bound: fitting one 300 s spectral track (36 columns at 120 Hz) takes
        under 1.25 times the track's bytes above what was held: the centred
        copy is the one array of the track's size. Stacking the track before
        centring it peaked at about twice its bytes."""
        rng = np.random.default_rng(15)
        fit_pca(self.make_track(rng.standard_normal((500, 36))), k=12)  # lazy imports, once
        track = self.make_track(rng.standard_normal((36000, 36)))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fit_pca(track, k=12)
            peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * track.values.nbytes, f"peak {peak / 2**20:.2f} MiB"

    def test_json_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        model = fit_pca(self.make_track(rng.standard_normal((50, 4))), k=3)
        model.to_json(tmp_path / "pca.json")
        back = PcaModel.from_json(tmp_path / "pca.json")
        assert np.array_equal(back.mean, model.mean)
        assert np.array_equal(back.components, model.components)
        assert np.array_equal(back.explained_variance_ratio, model.explained_variance_ratio)


class TestAssemble:
    def test_eighteen_columns_in_order(self):
        clip = noise_clip(12)
        track, model = extract_speech_features(clip)
        assert track.columns == SPEECH_FEATURE_COLUMNS
        assert len(track.columns) == 18
        assert model.n_components == 12

    def test_a_model_of_other_than_twelve_components_is_refused(self):
        prosody, spectral = pre_pca_tracks(noise_clip(13))
        model = fit_pca(spectral, k=8)
        with pytest.raises(DimensionMismatchError, match="12-component PCA model, got 8"):
            project_speech_features(prosody, spectral, model)


def test_prosody_track_columns():
    track = prosody_features(noise_clip(14, duration=0.5))
    assert track.columns == PROSODY_COLUMNS


def test_pca_cumulative_ratio_reported():
    # sanity note only: 12 components on broadband noise report a valid
    # cumulative ratio; the ~0.95 seen on real speech is corpus-dependent and
    # deliberately not asserted
    _, model = extract_speech_features(noise_clip(15, duration=2.0))
    cumulative = model.explained_variance_ratio.sum()
    assert 0.0 < cumulative <= 1.0
    assert np.all(np.diff(model.explained_variance_ratio) <= 1e-12)
