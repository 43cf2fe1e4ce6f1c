import json
import math

import numpy as np
import pytest

from speechmotion.coupling import evaluate_mapping, fit_ammse
from speechmotion.errors import InconsistentSpecError, ZeroSignalVarianceError
from speechmotion.frames import FeatureTrack, format_value, read_feature_csv
from speechmotion.ingest import (
    load_emotion_frames,
    load_markers,
    load_transcript_intervals,
)
from speechmotion.motion import displacement_magnitudes, region_activeness
from speechmotion.speech_features import f0_contour
from speechmotion.synth import (
    RegionCoupling,
    SynthSpec,
    default_spec,
    generate_coupled_session,
    noise_sigma_for_r,
    sawtooth_clip,
    theoretical_r,
    write_session_dir,
)
from speechmotion.timeline import align_session, rasterize_intervals


def small_spec(seed=0, **kw):
    kw.setdefault("duration_s", 10.0)
    kw.setdefault("n_regions", 3)
    kw.setdefault("feature_dim", 4)
    kw.setdefault("feature_names", tuple(f"x{i}" for i in range(4)))
    kw.setdefault("markers_per_region", 2)
    return default_spec(seed, **kw)


class TestDeterminism:
    def test_same_seed_bitwise_identical(self):
        a = generate_coupled_session(small_spec(seed=5))
        b = generate_coupled_session(small_spec(seed=5))
        assert np.array_equal(a.speech.values, b.speech.values)
        assert np.array_equal(a.markers.values, b.markers.values)
        assert np.array_equal(a.emotion.values, b.emotion.values)
        assert a.intervals.entries == b.intervals.entries

    def test_different_seed_differs(self):
        a = generate_coupled_session(small_spec(seed=5))
        b = generate_coupled_session(small_spec(seed=6))
        assert not np.array_equal(a.speech.values, b.speech.values)


class TestGroundTruthRecovery:
    def test_noiseless_fit_recovers_coupling(self):
        spec = small_spec(seed=1)
        session = generate_coupled_session(spec)
        disp = displacement_magnitudes(session.markers)
        act = region_activeness(disp, session.region_map)
        # marker grid starts one frame early: frames 1.. land on speech frames
        act_on_speech = FeatureTrack(session.speech.grid, act.columns, act.values[1:])
        fitted = fit_ammse(session.speech, act_on_speech, ridge_eps=0.0)
        a0 = np.vstack([spec.regions[r].weights for r in spec.regions])
        b0 = np.array([spec.regions[r].offset for r in spec.regions])
        assert np.abs(fitted.a - a0).max() < 1e-4
        assert np.abs(fitted.b - b0).max() < 1e-4

    def test_displacements_match_targets(self):
        spec = small_spec(seed=2)
        session = generate_coupled_session(spec)
        disp = displacement_magnitudes(session.markers)
        for region, markers in session.region_map.items():
            target = session.targets.column(region)
            for m in markers:
                assert np.allclose(disp.column(m)[1:], target, atol=1e-9)

    def test_no_clipping_with_default_margin(self):
        session = generate_coupled_session(small_spec(seed=3, target_r=0.5))
        assert sum(session.clipped_frames.values()) == 0


class TestSchedule:
    def test_zero_overlap_probability(self):
        spec = small_spec(seed=4, overlap_prob=0.0)
        session = generate_coupled_session(spec)
        labels = rasterize_intervals(session.intervals, "F", session.speech.grid)
        assert labels.column("overlap").sum() == 0.0

    def test_intervals_valid_by_construction(self):
        # SpeechIntervals validates sortedness and same-speaker overlap on
        # construction, so reaching here means every seed produced valid output
        for seed in range(12):
            session = generate_coupled_session(small_spec(seed=seed, overlap_prob=0.4))
            assert len(session.intervals.entries) >= 2
            assert set(session.intervals.speakers()) == {"F", "M"}

    def test_overlap_labels_appear_with_high_probability_schedule(self):
        spec = small_spec(seed=7, duration_s=30.0, overlap_prob=0.9)
        session = generate_coupled_session(spec)
        labels = rasterize_intervals(session.intervals, "F", session.speech.grid)
        assert labels.column("overlap").sum() > 0


class TestTheoreticalR:
    def test_noiseless_is_one(self):
        spec = small_spec(seed=8)
        assert theoretical_r(spec, "region_1") == 1.0

    def test_equal_signal_and_noise(self):
        rc = RegionCoupling(weights=np.array([3.0, 4.0]), offset=10.0, noise_sigma=5.0)
        spec = SynthSpec(
            seed=0,
            regions={"r": rc},
            duration_s=5.0,
            feature_dim=2,
            feature_names=("x0", "x1"),
        )
        assert theoretical_r(spec, "r") == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    def test_zero_weights_rejected(self):
        rc = RegionCoupling(weights=np.zeros(2), offset=1.0, noise_sigma=0.1)
        spec = SynthSpec(
            seed=0,
            regions={"r": rc},
            duration_s=5.0,
            feature_dim=2,
            feature_names=("x0", "x1"),
        )
        with pytest.raises(ZeroSignalVarianceError):
            theoretical_r(spec, "r")

    def test_noise_sigma_round_trip(self):
        w = np.array([0.3, -0.4, 0.1])
        for r in (0.3, 0.5, 0.9):
            sigma = noise_sigma_for_r(w, r)
            s = math.sqrt(float(w @ w))
            assert s / math.sqrt(s * s + sigma * sigma) == pytest.approx(r, abs=1e-12)


class TestSpecValidation:
    def test_bad_duration(self):
        with pytest.raises(InconsistentSpecError):
            small_spec(seed=0, duration_s=-1.0)

    def test_weights_shape_mismatch(self):
        rc = RegionCoupling(weights=np.ones(3), offset=1.0, noise_sigma=0.0)
        with pytest.raises(InconsistentSpecError):
            SynthSpec(
                seed=0,
                regions={"r": rc},
                feature_dim=2,
                feature_names=("a", "b"),
            )

    def test_negative_noise(self):
        with pytest.raises(InconsistentSpecError):
            RegionCoupling(weights=np.ones(2), offset=1.0, noise_sigma=-0.5)


class TestEmotionScript:
    def test_ranges_and_categories(self):
        session = generate_coupled_session(small_spec(seed=9))
        arousal = session.emotion.column("arousal")
        valence = session.emotion.column("valence")
        assert np.all((arousal >= -1.0) & (arousal <= 1.0))
        assert np.all((valence >= -1.0) & (valence <= 1.0))
        assert np.isin(session.emotion.column("category"), [0.0, 1.0, 2.0, 3.0]).all()
        assert session.emotion.grid.rate_hz == 10.0


class TestSessionDir:
    def test_files_load_through_ingest(self, tmp_path):
        spec = small_spec(seed=10, target_r=0.7)
        config = write_session_dir(spec, tmp_path, emit_tone_wav=True)
        assert (tmp_path / "config.json").exists()
        speech = read_feature_csv(tmp_path / config["speech_features"])
        session = generate_coupled_session(spec)
        assert np.allclose(speech.values, session.speech.values, atol=0)
        markers = load_markers(tmp_path / config["markers"])
        assert markers.columns == session.markers.columns
        assert np.allclose(markers.values, session.markers.values, atol=0)
        intervals = load_transcript_intervals(tmp_path / config["transcript"])
        assert intervals.entries == session.intervals.entries
        emotion = load_emotion_frames(tmp_path / config["emotion"])
        assert np.allclose(emotion.values, session.emotion.values, atol=0)
        truth = json.loads((tmp_path / "ground_truth.json").read_text())
        assert truth["regions"]["region_1"]["theoretical_r"] == pytest.approx(0.7)

    def test_markers_csv_renders_the_marker_track(self, tmp_path):
        spec = small_spec(seed=12)
        write_session_dir(spec, tmp_path)
        markers = generate_coupled_session(spec).markers
        assert markers.columns[:4] == ("region_1_m1_x", "region_1_m1_y", "region_1_m1_z",
                                       "region_1_m2_x")
        rows = np.column_stack([markers.grid.timestamps(), markers.values]).tolist()
        expected = [f"# rate_hz={markers.grid.rate_hz!r}", ",".join(("time_s",) + markers.columns)]
        expected += [",".join(format_value(v) for v in row) for row in rows]
        assert (tmp_path / "markers.csv").read_text() == "\n".join(expected) + "\n"

    def test_pipeline_closure_through_files(self, tmp_path):
        spec = small_spec(seed=11)
        write_session_dir(spec, tmp_path)
        speech = read_feature_csv(tmp_path / "speech_features.csv")
        markers = load_markers(tmp_path / "markers.csv")
        emotion = load_emotion_frames(tmp_path / "emotion.csv")
        intervals = load_transcript_intervals(tmp_path / "transcript.txt")
        act = region_activeness(displacement_magnitudes(markers), spec.region_map())
        table = align_session(speech, emotion, act, intervals, "F", target_rate_hz=120.0)
        ev = evaluate_mapping(table, "all", protocol="in_sample", ridge_eps=0.0)
        assert min(ev.per_target[r] for r in spec.regions) >= 0.9999


def test_sixty_second_closure_example():
    # one 60 s session at theoretical r = 0.5: held-out r (mean over regions)
    # lands within +/-0.05; the multi-seed sweep lives in the acceptance suite
    spec = default_spec(
        seed=0,
        duration_s=60.0,
        target_r=0.5,
        feature_dim=3,
        feature_names=("x0", "x1", "x2"),
        markers_per_region=1,
        signal_scale=0.1,
        target_turn_s=5.0,
        partner_turn_s=1.2,
        gap_s=0.1,
    )
    session = generate_coupled_session(spec)
    act = region_activeness(displacement_magnitudes(session.markers), session.region_map)
    table = align_session(session.speech, session.emotion, act, session.intervals, "F")
    ev = evaluate_mapping(table, "all", protocol="k_fold", n_folds=5)
    measured = np.mean([ev.per_target[r] for r in spec.regions])
    assert abs(measured - 0.5) <= 0.05


def test_sawtooth_clip_fundamental():
    clip = sawtooth_clip(220.0, 0.5)
    assert clip.sample_rate_hz == 16000
    assert np.abs(clip.samples).max() <= 0.81
    f0 = f0_contour(clip).column("f0_hz")
    voiced = f0 > 0
    assert (np.abs(f0[voiced] - 220.0) < 2.0).mean() > 0.95
