"""Tests for the benchmark's tracer, its metric definitions and record comparison."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
import tracer
from speechmotion import cli, coupling, frames, motion, speech_features, synth, timeline
from speechmotion.errors import InsufficientFramesError

BENCH_DIR = Path(run.__file__).resolve().parent


@pytest.fixture
def installed():
    made = []

    def install(*names):
        t = tracer.Tracer()
        t.install([layer for layer in tracer.LAYERS if layer.name in names])
        made.append(t)
        return t

    yield install
    for t in made:
        t.uninstall()


def test_self_time_subtracts_direct_children_only():
    ticks = itertools.count()
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap(tracer.Layer("m.inner"), lambda: None)
    middle = t.wrap(tracer.Layer("m.middle"), lambda: (inner(), inner()))
    outer = t.wrap(tracer.Layer("m.outer"), lambda: (middle(), inner()))
    outer()
    # clock reads: outer 0..9, middle 1..6, inner 2..3, 4..5 and 7..8
    layers, covered = tracer.summarize(t.to_dict())
    assert layers["m.inner"].calls == 3
    assert layers["m.inner"].self_s == pytest.approx(3.0)
    assert layers["m.middle"].self_s == pytest.approx(5.0 - 2.0)
    assert layers["m.outer"].self_s == pytest.approx(9.0 - 5.0 - 1.0)
    assert covered == pytest.approx(9.0)
    assert sum(st.self_s for st in layers.values()) == pytest.approx(covered)


def test_wrapping_catches_f0_contour_under_prosody_features(installed):
    t = installed("speech_features.f0_contour")
    clip = synth.sawtooth_clip(f0_hz=200.0, duration_s=0.5)
    speech_features.prosody_features(clip)
    names = [span[0] for span in t.spans]
    assert names == ["speech_features.f0_contour"]
    assert t.peaks["speech_features.f0_contour.peak_mib"] > 0
    assert t.counters["speech_features.frames"] == speech_features.feature_grid(clip).n_frames


def test_wrapping_catches_read_feature_csv_through_cli_binding(installed, tmp_path):
    track = synth.generate_coupled_session(synth.default_spec(seed=3, duration_s=2.0)).speech
    frames.write_feature_csv(track, tmp_path / "speech.csv")
    original = frames.read_feature_csv
    t = installed("frames.read_feature_csv")
    assert cli.read_feature_csv is not original
    assert cli.read_feature_csv is frames.read_feature_csv is timeline.read_feature_csv
    config = cli.Config({"sessions": [{"id": "a", "speech_features": "speech.csv"}]}, tmp_path)
    loaded = cli._speech_track_for(config, config.sessions[0])
    assert loaded.n_frames == track.n_frames
    assert [span[0] for span in t.spans] == ["frames.read_feature_csv"]
    assert t.counters["frames.read_feature_csv.rows"] == track.n_frames


def test_uninstall_restores_every_binding(installed):
    original = frames.read_feature_csv
    t = installed("frames.read_feature_csv")
    t.uninstall()
    assert cli.read_feature_csv is original is timeline.read_feature_csv


def _small_table():
    spec = synth.default_spec(seed=5, duration_s=10.0, n_regions=2, markers_per_region=1)
    s = synth.generate_coupled_session(spec)
    activeness = motion.region_activeness(motion.displacement_magnitudes(s.markers), s.region_map)
    return timeline.align_session(s.speech, s.emotion, activeness, s.intervals, "F")


def test_exception_closes_span_and_counts_as_failed(installed):
    table = _small_table()
    t = installed("coupling.evaluate_mapping")
    with pytest.raises(InsufficientFramesError):
        coupling.evaluate_mapping(table, "all", n_folds=10**6)
    # coupling_report skips the session for each of its three conditions
    assert coupling.coupling_report({"a": table}, feature_sets=("all",), n_folds=10**6) == []
    assert t._stack == []
    assert all(span[2] >= span[1] and span[4] == "InsufficientFramesError" for span in t.spans)
    layers, _ = tracer.summarize(t.to_dict())
    assert layers["coupling.evaluate_mapping"].calls == 4
    assert layers["coupling.evaluate_mapping"].failed == 4
    assert "coupling.evaluate_mapping.frames" not in t.counters


def test_metric_lists_match_benchmark_json_and_wrapped_layers():
    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for key, spec in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in doc[key]] == list(spec)
    producible = {
        f"{layer.name}.{suffix}" for layer in tracer.LAYERS for suffix in ("self_s", "calls", "failed")
    }
    producible |= {key for layer in tracer.LAYERS for key in layer.counters}
    producible |= {f"{layer.name}.peak_mib" for layer in tracer.LAYERS if layer.memory}
    for name, _, _ in run.PER_LAYER:
        if not name.startswith(("cli.", "trace.")):
            assert name in producible, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "oracle_many",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_refuses_records_from_different_inputs(tmp_path, capsys):
    record = {"workload": "oracle_many", "trace": 0, "input_digest": "a", "info": {}, "metrics": {"pipeline_s": 2.0}}
    paths = []
    for digest in ("a", "b"):
        paths.append(tmp_path / f"{digest}.json")
        paths[-1].write_text(json.dumps({**record, "input_digest": digest}))
    assert compare.main([str(paths[0]), str(paths[1])]) == 2
    assert "refusing" in capsys.readouterr().err
    assert compare.main([str(paths[0]), str(paths[0])]) == 0


def test_driver_imports_without_numpy():
    # run.py must stay small: a stage's ru_maxrss starts from its parent's
    # high-water mark, and the driver may run under an interpreter without numpy
    code = "import sys; sys.modules['numpy'] = None; import run, tracer, workloads"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH_DIR, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
