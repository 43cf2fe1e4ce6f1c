import ast
import hashlib
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechmotion import cli, coupling, ingest, motion, speech_features, stats, synth, timeline
from speechmotion.errors import IncompleteSubjectWarning, SkippedSessionWarning, ValidationError
from speechmotion.frames import read_feature_csv, write_feature_csv
from speechmotion.speech_features import SPEECH_FEATURE_COLUMNS
from test_coupling import _reference_fit


def hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestOutputs:
    def test_features_has_eighteen_columns(self, cli_workspace):
        for seed in (101, 202):
            track = read_feature_csv(cli_workspace["out"] / f"s{seed}" / "features.csv")
            assert track.columns == SPEECH_FEATURE_COLUMNS

    def test_aligned_sidecar_rate(self, cli_workspace):
        meta = json.loads(
            (cli_workspace["out"] / "s101" / "aligned.meta.json").read_text()
        )
        assert meta["rate_hz"] == 60.24
        assert meta["provenance"]["speech_rule"] == "decimate_alternate+linear"

    def test_coupling_report_well_formed(self, cli_workspace):
        lines = (cli_workspace["out"] / "coupling_report.csv").read_text().splitlines()
        assert lines[0].startswith("region,feature_set,condition")
        assert len(lines) > 1
        meta = json.loads(
            (cli_workspace["out"] / "coupling_report.meta.json").read_text()
        )
        assert meta["protocol"] == "k_fold(3)"
        assert meta["target"] == "region_mean_activeness"

    def test_anova_rows_per_region_effects(self, cli_workspace):
        lines = (cli_workspace["out"] / "anova.csv").read_text().splitlines()
        assert lines[0] == "region,effect,F,df1,df2,p,partial_eta_sq"
        body = [ln.split(",") for ln in lines[1:]]
        effects = {row[1] for row in body}
        assert effects == {"emotion", "condition", "emotion_x_condition"}

    def test_activeness_grid_shape(self, cli_workspace):
        lines = (
            (cli_workspace["out"] / "report" / "activeness_grid.csv").read_text().splitlines()
        )
        header = lines[0].split(",")
        assert len(header) == 1 + 8  # 4 emotions x 2 conditions
        # synthetic region map carries 8 face aliases + 8 generated regions
        assert len(lines) - 1 == 16

    def test_svg_has_rect_per_cell(self, cli_workspace):
        svg = (cli_workspace["out"] / "report" / "activeness_grid.svg").read_text()
        assert svg.count("<rect") == 16 * 8
        assert "colormap: linear vmin=" in svg

    def test_reference_comparison_has_protocol(self, cli_workspace):
        lines = (
            (cli_workspace["out"] / "report" / "reference_comparison.csv")
            .read_text()
            .splitlines()
        )
        assert lines[0].startswith("kind,region,key,measured,reference")
        assert all(ln.endswith("k_fold(3)") for ln in lines[1:])
        # every coupling benchmark value appears
        assert sum(ln.startswith("coupling,") for ln in lines[1:]) == 12


    def test_comparison_takes_the_protocol_map_recorded(self, cli_workspace, tmp_path, capsys):
        # `map` ran under n_folds 3; a config now saying 5 must not relabel its r
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        doc = {**cli_workspace["doc"], "params": {"n_folds": 5, "trim_head_s": 0.0}}
        doc["sessions"] = absolute_sessions(cli_workspace)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        argv = [f"--config={p}", f"--out-dir={out}", "report"]
        assert cli.main(argv) == 0
        lines = (out / "report" / "reference_comparison.csv").read_text().splitlines()
        assert len(lines) > 1 and all(ln.endswith(",k_fold(3)") for ln in lines[1:])
        meta = out / "coupling_report.meta.json"
        meta.write_text(json.dumps({"protocol": 3}))
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {meta}: protocol must be a string; got 3\n"
        meta.unlink()
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == f"error: {meta}: No such file or directory\n"


class TestDeterminism:
    def test_rerun_is_byte_identical(self, cli_workspace):
        before = hash_tree(cli_workspace["out"])
        for command in ("features", "align", "activeness", "map", "stats", "report"):
            assert cli.main([f"--config={cli_workspace['config']}", command]) == 0
        after = hash_tree(cli_workspace["out"])
        assert before == after

    def test_fresh_out_dir_matches(self, cli_workspace, tmp_path):
        out2 = tmp_path / "out2"
        for command in ("features", "align", "activeness", "map", "stats", "report"):
            rc = cli.main(
                [f"--config={cli_workspace['config']}", f"--out-dir={out2}", command]
            )
            assert rc == 0
        assert hash_tree(out2) == hash_tree(cli_workspace["out"])

    def test_parallel_jobs_byte_identical(self, cli_workspace, tmp_path):
        out2 = tmp_path / "jobs2"
        for command in ("features", "align", "activeness", "map", "stats", "report"):
            rc = cli.main(
                [
                    f"--config={cli_workspace['config']}",
                    f"--out-dir={out2}",
                    "--jobs=2",
                    command,
                ]
            )
            assert rc == 0
        assert hash_tree(out2) == hash_tree(cli_workspace["out"])


def absolute_sessions(workspace) -> list[dict]:
    return [
        {
            key: (str(workspace["base"] / value) if key not in ("id", "speaker") else value)
            for key, value in s.items()
        }
        for s in workspace["doc"]["sessions"]
    ]


def copy_aligned_tables(workspace, out: Path) -> Path:
    """`out` holding only the aligned tables of the workspace's run, for `map` to read."""
    for sid in ("s101", "s202"):
        (out / sid).mkdir(parents=True)
        for name in ("aligned.csv", "aligned.meta.json"):
            shutil.copy(workspace["out"] / sid / name, out / sid / name)
    return out


def aligned_columns(aligned: Path) -> dict[str, np.ndarray]:
    """Every column of an aligned.csv by its header name, parsed by numpy."""
    with aligned.open() as fh:
        header = fh.readline().rstrip("\n").split(",")
    data = np.genfromtxt(aligned, delimiter=",", skip_header=1)
    return {name: data[:, j] for j, name in enumerate(header)}


def reference_segment_rows(
    aligned: Path, sid: str, region: str, segment_s: float
) -> list[tuple[str, str, str, float]]:
    """(subject, emotion, condition, mean) for every stratum of every `segment_s`
    run of frames that has a finite activeness value of `region`, computed with
    numpy from aligned.csv: frame i is in run int(i / (segment_s * rate_hz))."""
    cols = aligned_columns(aligned)
    rate_hz = json.loads(aligned.with_suffix(".meta.json").read_text())["rate_hz"]
    series = cols[f"activeness.{region}"]
    run = (np.arange(len(series)) / (segment_s * rate_hz)).astype(int)
    speaking = cols["labels.speaking"] == 1.0
    overlap = cols["labels.overlap"] == 1.0
    rows = []
    for k in np.unique(run):
        for code, emotion in enumerate(motion.CATEGORY_NAMES):
            for condition, in_condition in (("overlap", overlap), ("non_overlap", ~overlap)):
                mask = (run == k) & speaking & in_condition & (cols["emotion.category"] == code)
                vals = series[mask]
                vals = vals[np.isfinite(vals)]
                if len(vals):
                    rows.append((f"{sid}:seg{k}", emotion, condition, float(vals.mean())))
    return rows


class TestStatsCommand:
    def test_segment_unit_with_sphericity_correction(self, cli_workspace, tmp_path):
        # each region's design from 30 s speaking segments, GG-corrected p in anova.csv
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        doc = {
            "params": {"anova_unit": "segment", "segment_s": 30.0, "sphericity_correction": True},
            "sessions": absolute_sessions(cli_workspace),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.warns(IncompleteSubjectWarning):  # most segments miss a cell
            rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        assert rc == 0
        written = stats.read_anova_csv(out / "anova.csv")
        aligned = {s["id"]: out / s["id"] / "aligned.csv" for s in doc["sessions"]}
        first = aligned_columns(next(iter(aligned.values())))
        assert list(written) == [c.split(".", 1)[1] for c in first if c.startswith("activeness.")]
        for region, result in written.items():
            rows = [
                row for sid, path in aligned.items()
                for row in reference_segment_rows(path, sid, region, segment_s=30.0)
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IncompleteSubjectWarning)
                design = stats.RmDesign.from_rows(rows, drop_incomplete=True)
            corrected = stats.rm_anova_two_way(design, sphericity_correction=True)
            plain = stats.rm_anova_two_way(design)
            assert corrected.effect("emotion").gg_epsilon < 1.0
            for w, c, u in zip(result.effects, corrected.effects, plain.effects):
                assert (w.name, w.df_effect, w.df_error) == (c.name, c.df_effect, c.df_error)
                assert w.df_error == w.df_effect * (len(design.subjects) - 1)
                assert (w.f_value, w.p_value, w.partial_eta_sq) == (
                    c.f_value, c.p_value, c.partial_eta_sq
                )
            assert result.effect("emotion").p_value != plain.effect("emotion").p_value

    def test_segment_unit_without_a_complete_subject_names_the_lacking_cells(
        self, cli_workspace, tmp_path, capsys
    ):
        # at the default 10 s segments every segment misses a cell
        doc = {"params": {"anova_unit": "segment"}, "sessions": absolute_sessions(cli_workspace)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        with pytest.warns(IncompleteSubjectWarning):
            rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        err = capsys.readouterr().err
        assert rc == 2
        region = motion.default_region_map().names()[0]
        rows = [
            row for s in doc["sessions"]
            for row in reference_segment_rows(
                out / s["id"] / "aligned.csv", s["id"], region, segment_s=10.0
            )
        ]
        present: dict[str, set] = {}
        for subject, emotion, condition, value in rows:
            cells = present.setdefault(subject, set())
            if np.isfinite(value):
                cells.add((emotion, condition))
        lacks = [
            f"{sum((e, c) not in cells for cells in present.values())} lack ({e}, {c})"
            for e in motion.CATEGORY_NAMES for c in motion.CONDITION_NAMES
        ]
        expected = ", ".join(text for text in lacks if not text.startswith("0 "))
        assert f"error: region {region!r}: no subject covers every cell" in err
        assert f"of {len(present)} subjects, {expected}\n" in err

    def test_segment_shorter_than_a_frame_exits_2_naming_segment_s(
        self, cli_workspace, tmp_path, capsys
    ):
        # 1e-300 s once overflowed the segment index and still wrote an anova.csv
        doc = {
            "params": {"anova_unit": "segment", "segment_s": 1e-300},
            "sessions": absolute_sessions(cli_workspace),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "params.segment_s 1e-300 s makes runs of at most 1 frame(s)" in err
        assert not (out / "anova.csv").exists()

    @pytest.mark.parametrize("segment_s, frames", [(0.0167, 2), (0.1, 7)])
    def test_runs_too_short_for_every_cell_exit_2_naming_segment_s(
        self, cli_workspace, tmp_path, capsys, segment_s, frames
    ):
        # a run of fewer than 8 frames cannot hold all 8 emotion x condition cells
        doc = {
            "params": {"anova_unit": "segment", "segment_s": segment_s},
            "sessions": absolute_sessions(cli_workspace),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        assert rc == 2
        assert (f"error: session 's101': params.segment_s {segment_s} s makes runs of at most "
                f"{frames} frame(s) on the 60.24 Hz session grid") in capsys.readouterr().err
        assert not (out / "anova.csv").exists()

    def test_incomplete_subject_without_listwise_deletion_names_the_config_key(
        self, cli_workspace, tmp_path, capsys
    ):
        doc = {
            "params": {"anova_unit": "segment", "segment_s": 30.0,
                       "drop_incomplete_subjects": False},
            "sessions": absolute_sessions(cli_workspace),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "subjects with missing cells: ['s101:seg" in err
        assert "set params.drop_incomplete_subjects to true" in err
        assert "drop_incomplete=" not in err


@pytest.fixture(scope="module")
def extra_region_workspace(cli_workspace, tmp_path_factory):
    """cli_workspace's two sessions plus `s303`: s101's inputs under a region map
    that adds the region `extra`, aligned and summarised on its own."""
    out = tmp_path_factory.mktemp("extra_region") / "out"
    shutil.copytree(cli_workspace["out"], out)
    sessions = absolute_sessions(cli_workspace)
    region_map = json.loads(Path(sessions[0]["region_map"]).read_text())
    extra = out.parent / "region_map.json"
    extra.write_text(json.dumps({"extra": region_map["mouth"], **region_map}))
    added = {**sessions[0], "id": "s303", "region_map": str(extra)}
    config = out.parent / "c303.json"
    config.write_text(json.dumps({"params": {"trim_head_s": 0.0}, "sessions": [added]}))
    for command in ("align", "activeness"):
        assert cli.main([f"--config={config}", f"--out-dir={out}", command]) == 0
    return {"out": out, "sessions": sessions, "added": added}


class TestRegionRule:
    @pytest.mark.parametrize("unit", ["session", "segment"])
    @pytest.mark.parametrize("place", ["first", "last"])
    def test_a_region_one_session_adds_is_analysed_in_any_session_order(
        self, extra_region_workspace, tmp_path, capsys, unit, place
    ):
        # every region any session has is analysed; `extra` has one subject
        # (a segment_s past the session's end makes each session one segment)
        ws = extra_region_workspace
        sessions = ws["sessions"]
        sessions = [ws["added"], *sessions] if place == "first" else [*sessions, ws["added"]]
        doc = {"params": {"anova_unit": unit, "segment_s": 600.0}, "sessions": sessions}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        out = tmp_path / "o"
        shutil.copytree(ws["out"], out)
        (out / "anova.csv").unlink()
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "stats"])
        assert rc == 3
        assert "error: region 'extra': need >= 2 subjects, got 1" in capsys.readouterr().err
        assert not (out / "anova.csv").exists()


@pytest.mark.parametrize("command", list(cli.STAGES))
@pytest.mark.parametrize("doc", [{"sessions": []}, {}])
def test_a_config_without_sessions_exits_2(tmp_path, capsys, command, doc):
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    rc = cli.main([f"--config={p}", command])
    assert rc == 2
    assert f"{p}: sessions is empty; `{command}` needs one" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestMapCommand:
    @pytest.mark.parametrize("protocol", ["k_fold", "in_sample"])
    def test_affine_maps_are_the_fit_on_speaking_frames(self, cli_workspace, tmp_path, protocol):
        out = cli_workspace["out"]
        if protocol == "in_sample":
            out = copy_aligned_tables(cli_workspace, tmp_path / "o")
            doc = {**cli_workspace["doc"], "sessions": absolute_sessions(cli_workspace)}
            doc["params"] = {**doc["params"], "protocol": "in_sample"}
            p = tmp_path / "c.json"
            p.write_text(json.dumps(doc))
            assert cli.main([f"--config={p}", f"--out-dir={out}", "map"]) == 0
        for sid in ("s101", "s202"):
            table = timeline.read_session_csv(out / sid / "aligned.csv", out / sid / "aligned.meta.json")
            idx = np.flatnonzero(motion.condition_mask(table, "all"))
            y = table.block("activeness").values[idx]
            for fs in cli.PARAMS["feature_sets"][0]:
                x = coupling.feature_set_track(table, fs).values[idx]
                a, b = _reference_fit(x, y, 1e-8)
                fitted = coupling.AffineMap.from_json(out / sid / f"affine_{fs}.json")
                for got, ref in ((fitted.a, a), (fitted.b, b)):  # relative to the largest entry
                    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (sid, fs)
                complete = np.isfinite(x).all(axis=1) & np.isfinite(y).all(axis=1)
                assert fitted.n_frames == complete.sum()
                assert fitted.target_names == table.block("activeness").columns

    def test_a_session_without_speaking_frames_is_skipped_with_a_warning(
        self, cli_workspace, tmp_path, capsys
    ):
        sessions = absolute_sessions(cli_workspace)
        transcript = Path(sessions[1]["transcript"]).read_text().splitlines(keepends=True)
        silent = tmp_path / "transcript.txt"
        silent.write_text("".join(line for line in transcript if not line.rstrip().endswith(" F")))
        sessions[1]["transcript"] = str(silent)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"params": {"n_folds": 3, "trim_head_s": 0.0}, "sessions": sessions}))
        out = tmp_path / "o"
        with pytest.warns(UserWarning, match="has no intervals"):
            assert cli.main([f"--config={p}", f"--out-dir={out}", "align"]) == 0
        with pytest.warns(SkippedSessionWarning) as record:
            rc = cli.main([f"--config={p}", f"--out-dir={out}", "map"])
        assert rc == 0, capsys.readouterr().err
        feature_sets = cli.PARAMS["feature_sets"][0]  # the default, one warning each
        assert [str(w.message).split(":")[0] for w in record] == ["session 's202'"] * len(feature_sets)
        for fs in feature_sets:
            assert (out / "s101" / f"affine_{fs}.json").exists()
            assert not (out / "s202" / f"affine_{fs}.json").exists()
        cells = coupling.read_coupling_csv(out / "coupling_report.csv")
        assert cells and {c.n_dyads for c in cells} == {1}

    def test_any_other_error_names_the_session(self, cli_workspace, tmp_path, capsys):
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        # a constant prosody column leaves s202's fits singular once the ridge is off
        csv_path = out / "s202" / "aligned.csv"
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        column = rows[0].index("speech.f0_hz")
        for row in rows[1:]:
            row[column] = "120.0"
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        before = hash_tree(out)
        doc = {"params": {"n_folds": 3, "ridge_eps": 0}, "sessions": absolute_sessions(cli_workspace)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "map"])
        err = capsys.readouterr().err
        assert rc == 4
        assert "error: session 's202': input covariance is singular" in err
        assert hash_tree(out) == before

    def test_a_session_now_skipped_loses_its_earlier_maps(self, cli_workspace, tmp_path):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        csv_path = out / "s202" / "aligned.csv"
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        column = rows[0].index("labels.speaking")
        for row in rows[1:]:
            row[column] = "0.0"
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        feature_sets = cli.PARAMS["feature_sets"][0]
        for fs in feature_sets:
            (out / "s101" / f"affine_{fs}.json").write_text("{}")
        doc = {**cli_workspace["doc"], "sessions": absolute_sessions(cli_workspace)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        with pytest.warns(SkippedSessionWarning, match="session 's202'"):
            assert cli.main([f"--config={p}", f"--out-dir={out}", "map"]) == 0
        assert not list((out / "s202").glob("affine_*.json"))
        for fs in feature_sets:
            name = f"s101/affine_{fs}.json"
            assert (out / name).read_bytes() == (cli_workspace["out"] / name).read_bytes()


    def test_a_feature_set_this_run_does_not_fit_loses_its_earlier_maps(
        self, cli_workspace, tmp_path
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        for sid in ("s101", "s202"):  # as if an earlier run had also fitted `all`
            (out / sid / "affine_all.json").write_text("{}")
        doc = {**cli_workspace["doc"], "sessions": absolute_sessions(cli_workspace)}
        doc["params"] = {**doc["params"], "feature_sets": ["prosody"]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        assert cli.main([f"--config={p}", f"--out-dir={out}", "map"]) == 0
        for sid in ("s101", "s202"):
            assert [f.name for f in (out / sid).glob("affine_*.json")] == ["affine_prosody.json"]
            name = f"{sid}/affine_prosody.json"
            assert (out / name).read_bytes() == (cli_workspace["out"] / name).read_bytes()
        cells = coupling.read_coupling_csv(out / "coupling_report.csv")
        assert {c.feature_set for c in cells} == {"prosody"}


class TestCorpusPca:
    def test_each_clip_analysed_once_and_projected_with_pooled_model(
        self, cli_workspace, tmp_path, monkeypatch
    ):
        doc = {
            "params": {"trim_head_s": 0.0, "pca_scope": "corpus"},
            "sessions": absolute_sessions(cli_workspace),
        }
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        calls = []
        mfcc = speech_features.mfcc

        def counting_mfcc(*args, **kwargs):
            calls.append(1)
            return mfcc(*args, **kwargs)

        monkeypatch.setattr(speech_features, "mfcc", counting_mfcc)
        rc = cli.main([f"--config={config}", f"--out-dir={tmp_path / 'o'}", "features"])
        assert rc == 0
        assert len(calls) == len(doc["sessions"])
        monkeypatch.setattr(speech_features, "mfcc", mfcc)

        clips = [
            ingest.select_channel(ingest.load_wav(s["audio"]), "left")
            for s in doc["sessions"]
        ]
        model = speech_features.fit_pca(
            *(speech_features.temporal_derivatives(mfcc(c)) for c in clips)
        )
        for s, clip in zip(doc["sessions"], clips):
            expected, _ = speech_features.extract_speech_features(clip, pca_model=model)
            written = read_feature_csv(tmp_path / "o" / s["id"] / "features.csv")
            assert written.columns == expected.columns
            assert np.array_equal(written.values, expected.values)

    def test_session_scope_matches_extract_speech_features(self, cli_workspace, tmp_path):
        # the twin of the corpus test: each session's model is fitted on its own clip
        for s in absolute_sessions(cli_workspace):
            clip = ingest.select_channel(ingest.load_wav(s["audio"]), "left")
            track, model = speech_features.extract_speech_features(clip)
            write_feature_csv(track, tmp_path / "features.csv")
            model.to_json(tmp_path / "pca_model.json")
            for name in ("features.csv", "pca_model.json"):
                written = cli_workspace["out"] / s["id"] / name
                assert written.read_bytes() == (tmp_path / name).read_bytes()

    def test_no_audio_sessions_is_a_no_op(self, tmp_path):
        p = tmp_path / "c.json"
        doc = {"params": {"pca_scope": "corpus"}, "sessions": [{"id": "x"}]}
        p.write_text(json.dumps(doc))
        assert cli.main([f"--config={p}", "features"]) == 0
        assert not (tmp_path / "out" / "x").exists()


class TestErrors:
    def test_missing_input_file_names_path(self, tmp_path, capsys):
        config = {
            "sessions": [
                {
                    "id": "x",
                    "markers": "nope.csv",
                    "transcript": "t.txt",
                    "emotion": "e.csv",
                    "speech_features": "f.csv",
                }
            ]
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(config))
        rc = cli.main([f"--config={p}", "align"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "f.csv" in err

    def test_error_json_flag(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": [{"id": "x"}]}))
        rc = cli.main([f"--config={p}", "--error-json", "align"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "MissingUpstreamOutputError"

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_exits_2_naming_jobs(self, cli_workspace, tmp_path, capsys, jobs):
        argv = [f"--config={cli_workspace['config']}", f"--out-dir={tmp_path / 'o'}",
                f"--jobs={jobs}", "features"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: --jobs must be an integer >= 1; got {jobs}\n"
        assert cli.main(["--error-json", *argv]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValidationError", "message": f"--jobs must be an integer >= 1; got {jobs}",
        }
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--jobs", "abc", "--config", "c.json", "features"],
             "argument --jobs: invalid int value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["synth"], "the following arguments are required: spec"),
        ],
        ids=["bad_jobs", "unknown_command", "synth_without_spec"],
    )
    def test_argument_errors_exit_2_as_text_or_json(self, capsys, argv, message):
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("usage: speechmotion") and f"error: {message}" in err
        assert cli.main(["--error-json", *argv]) == 2
        [line] = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert payload["error"] == "ValidationError" and payload["message"].startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [["--error", "bogus"], ["--error", "--config", "/nonexistent.json", "align"]],
        ids=["unknown_command", "missing_config"],
    )
    def test_an_abbreviated_flag_is_not_a_flag(self, capsys, argv):
        # every flag has one spelling, so `--error` never stands for `--error-json`
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert err.startswith("usage: speechmotion") and "speechmotion: error: " in err
        assert not any(line.startswith("{") for line in err.splitlines())

    def test_unknown_profile_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"profile": "nope", "sessions": []}))
        rc = cli.main([f"--config={p}", "align"])
        assert rc == 2

    def test_missing_config(self, capsys):
        rc = cli.main(["--config=/does/not/exist.json", "align"])
        assert rc == 3
        assert "exist.json" in capsys.readouterr().err

    def test_a_config_that_is_a_directory_exits_3(self, tmp_path, capsys):
        assert cli.main([f"--config={tmp_path}", "align"]) == 3
        assert capsys.readouterr().err == f"error: {tmp_path}: Is a directory\n"
        assert cli.main(["--error-json", f"--config={tmp_path}", "align"]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload == {"error": "DataError", "message": f"{tmp_path}: Is a directory"}

    @pytest.mark.parametrize("command", ["stats", "report"])
    def test_a_session_without_summaries_is_named(self, cli_workspace, tmp_path, capsys, command):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        (out / "s202" / "summaries.csv").unlink()
        before = hash_tree(out)
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        assert rc == 3
        assert "session 's202': summaries.csv missing" in capsys.readouterr().err
        assert hash_tree(out) == before

    def test_trim_longer_than_clip_is_data_error(self, cli_workspace, tmp_path, capsys):
        # tone clips are 2 s; the default 4 s head trim cannot apply
        doc = json.loads(Path(cli_workspace["config"]).read_text())
        doc["params"]["trim_head_s"] = 4.0
        doc["sessions"] = absolute_sessions(cli_workspace)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", "--out-dir", str(tmp_path / "o"), "features"])
        assert rc == 3
        assert "trim" in capsys.readouterr().err


    def test_pca_components_other_than_twelve_rejected_before_audio(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        doc = {
            "params": {"trim_head_s": 0.0, "pca_components": 8},
            "sessions": absolute_sessions(cli_workspace),
        }
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))

        def no_audio(path):
            raise AssertionError(f"audio read before config validation: {path}")

        monkeypatch.setattr(ingest, "load_wav", no_audio)
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "features"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "pca_components" in err and "8" in err

    @pytest.mark.parametrize(
        "text, where",
        [('{"sessions": [', ":1:15: malformed JSON"), ('{\n  "a": 1,\n}', ":3:1: malformed JSON")],
    )
    @pytest.mark.parametrize("command", ["config", "synth"])
    def test_malformed_json_names_line_and_column(self, tmp_path, capsys, text, where, command):
        p = tmp_path / "bad.json"
        p.write_text(text)
        argv = [f"--config={p}", "align"] if command == "config" else [
            f"--out-dir={tmp_path / 'o'}", "synth", str(p)
        ]
        rc = cli.main(argv)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{p}{where}" in err
        assert "Traceback" not in err

    def test_json_that_is_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text("[]")
        assert cli.main([f"--config={p}", "align"]) == 2
        assert "expected a JSON object" in capsys.readouterr().err

    def test_target_rate_above_every_input_rate_exits_2_before_any_grid(
        self, cli_workspace, tmp_path, capsys, monkeypatch
    ):
        def no_grid(*args):
            raise AssertionError("a session grid was made")

        monkeypatch.setattr(timeline, "grid_over_span", no_grid)
        doc = {"params": {"target_rate_hz": 1e6}, "sessions": absolute_sessions(cli_workspace)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert (
            "error: session 's101': params.target_rate_hz 1000000.0 Hz is above the fastest "
            "input rate: speech 120.0 Hz, emotion 10.0 Hz, activeness 120.0 Hz\n"
        ) in err

    def test_unknown_params_key_is_rejected(self, cli_workspace, tmp_path, capsys):
        doc = {"params": {"n_fold": 7}, "sessions": absolute_sessions(cli_workspace)}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "map"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: " in err and "'n_fold'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, command",
        [
            ("n_folds", 1, "map"),
            ("n_folds", True, "map"),
            ("n_folds", "3", "map"),
            ("n_folds", 3.0, "map"),
            ("anova_unit", "zz", "stats"),
            ("pca_scope", "zz", "features"),
            # one bad value per kind of rule
            ("target_rate_hz", -1, "align"),
            ("target_rate_hz", "60", "align"),
            ("target_rate_hz", True, "align"),
            ("segment_s", float("inf"), "stats"),
            ("ridge_eps", -1, "map"),
            ("ridge_eps", "a", "map"),
            ("trim_head_s", -0.5, "features"),
            ("min_cell_frames", "a", "activeness"),
            ("min_cell_frames", -1, "activeness"),
            ("affect_derivatives", "no", "map"),
            ("protocol", "bogus", "map"),
            ("bin_policy", "zz", "map"),
            ("feature_sets", ["x"], "map"),
            ("feature_sets", "prosody", "map"),
            ("feature_sets", ["mfcc", "mfcc"], "map"),
            ("feature_sets", [], "map"),
            # above the default f0_max_hz of 500
            ("f0_min_hz", 600.0, "features"),
            # the shape of the document itself
            ("sessions", 5, "align"),
            ("sessions", [5], "align"),
            ("params", 7, "align"),
            ("id", 5, "align"),
            # a speaker the transcript format cannot hold matches no line
            ("speaker", "A B", "align"),
            ("speaker", "F#1", "align"),
        ],
    )
    def test_bad_param_value_exits_2_and_writes_nothing(
        self, cli_workspace, tmp_path, capsys, key, value, command
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        before = hash_tree(out)
        doc = {"params": {"trim_head_s": 0.0}, "sessions": absolute_sessions(cli_workspace)}
        # a params key unless it names a top-level key or a key of the first session
        session_keys = ("id", "speaker")
        target = {"sessions": doc, "params": doc, **dict.fromkeys(session_keys, doc["sessions"][0])}
        target = target.get(key, doc["params"])
        where = {"sessions": "'sessions'", "params": "'params'",
                 **{k: f"sessions[0].{k}" for k in session_keys}}
        target[key] = value
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: {where.get(key, f'params.{key}')} must be " in err
        assert f"got {value!r}" in err
        assert "Traceback" not in err
        assert hash_tree(out) == before

    @pytest.mark.parametrize(
        "damage, command, message",
        [
            ("top_level_typo", "map", "unknown key(s) 'param' (got {'n_folds': 7})"),
            ("session_typo", "align", "sessions[0]: unknown key(s) 'speeker' (got 'M')"),
            ("duplicate_id", "map", "ids must be unique; got ['s101'] more than once"),
            ("custom_profiles", "align", "unknown key(s) 'profiles' (got {})"),
        ],
    )
    def test_config_that_was_silently_misread_exits_2(
        self, cli_workspace, tmp_path, capsys, damage, command, message
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        before = hash_tree(out)
        doc = {"params": {"trim_head_s": 0.0}, "sessions": absolute_sessions(cli_workspace)}
        if damage == "top_level_typo":
            doc["param"] = {"n_folds": 7}
        elif damage == "session_typo":
            doc["sessions"][0]["speeker"] = "M"
        elif damage == "duplicate_id":
            doc["sessions"][1]["id"] = doc["sessions"][0]["id"]
        else:
            doc["profiles"] = {}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        rc = cli.main([f"--config={p}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: " in err and message in err
        assert "Traceback" not in err
        assert hash_tree(out) == before

    def test_malformed_region_map_names_line_and_column(self, cli_workspace, tmp_path, capsys):
        sessions = absolute_sessions(cli_workspace)[:1]
        bad = tmp_path / "region_map.json"
        bad.write_text('{"head": ["a",]}')
        sessions[0]["region_map"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:1:15: malformed JSON" in err
        assert "Traceback" not in err

    def test_region_with_no_markers_names_the_region_map(self, cli_workspace, tmp_path, capsys):
        sessions = absolute_sessions(cli_workspace)[:1]
        regions = json.loads(Path(sessions[0]["region_map"]).read_text())
        regions["region_2"] = []
        bad = tmp_path / "region_map.json"
        bad.write_text(json.dumps(regions))
        sessions[0]["region_map"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}: region(s) ['region_2'] have no markers" in err
        assert "Traceback" not in err

    def test_region_given_as_a_string_names_the_region_map(self, cli_workspace, tmp_path, capsys):
        sessions = absolute_sessions(cli_workspace)[:1]
        regions = json.loads(Path(sessions[0]["region_map"]).read_text())
        regions["head"] = "LHD"
        bad = tmp_path / "region_map.json"
        bad.write_text(json.dumps(regions))
        sessions[0]["region_map"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}: region 'head' must list marker names; got 'LHD'" in err
        assert "Traceback" not in err

    def test_region_name_holding_a_comma_exits_2_and_writes_no_table(
        self, cli_workspace, tmp_path, capsys
    ):
        sessions = absolute_sessions(cli_workspace)[:1]
        regions = json.loads(Path(sessions[0]["region_map"]).read_text())
        last = [r for r in regions if r not in motion.REGION_ORDER][-1]
        regions["x,y"] = regions.pop(last)
        bad = tmp_path / "region_map.json"
        bad.write_text(json.dumps(regions))
        sessions[0]["region_map"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        out = tmp_path / "o"
        rc = cli.main([f"--config={p}", f"--out-dir={out}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        table = out / sessions[0]["id"] / "activeness.csv"
        assert f"{table}: column name 'x,y' holds a comma or a line break" in err
        assert "Traceback" not in err
        assert not table.exists() and not table.with_name("aligned.csv").exists()

    @pytest.mark.parametrize("damage", ["inverted", "overlap"])
    def test_bad_transcript_interval_names_its_line(self, cli_workspace, tmp_path, capsys, damage):
        sessions = absolute_sessions(cli_workspace)[:1]
        lines = Path(sessions[0]["transcript"]).read_text().splitlines(keepends=True)
        start, end, speaker = lines[4].split()
        if damage == "inverted":
            lines[4] = f"{end} {start} {speaker}\n"
            message = f"{speaker!r} is inverted"
        else:  # a second interval of the same speaker, starting inside line 5's
            lines.insert(5, f"{float(start) + 0.01!r} {end} {speaker}\n")
            message = f"speaker {speaker!r} overlaps itself"
        bad = tmp_path / "transcript.txt"
        bad.write_text("".join(lines))
        sessions[0]["transcript"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:{5 if damage == 'inverted' else 6}: " in err and message in err
        assert "Traceback" not in err


def test_exit_code_taxonomy():
    from speechmotion.errors import (
        DataError,
        DegenerateInputError,
        NumericError,
        UnsupportedFormatError,
        ValidationError,
    )

    assert ValidationError("x").exit_code == 2
    assert UnsupportedFormatError("x").exit_code == 2
    assert DataError("x").exit_code == 3
    assert NumericError("x").exit_code == 4
    assert DegenerateInputError("x").exit_code == 4


class TestSynthCommand:
    def test_spec_file_to_session_dir(self, tmp_path):
        spec = {"seed": 5, "duration_s": 10.0, "n_regions": 2, "noise_sigma": 0.1,
                "feature_dim": 4, "feature_names": ["x0", "x1", "x2", "x3"],
                "emit_tone_wav": True}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "session"
        rc = cli.main([f"--out-dir={out}", "synth", str(p)])
        assert rc == 0
        for name in (
            "speech_features.csv",
            "markers.csv",
            "transcript.txt",
            "emotion.csv",
            "ground_truth.json",
            "region_map.json",
            "config.json",
            "tone.wav",
        ):
            assert (out / name).exists()

    def test_seed_override(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"seed": 5, "duration_s": 5.0, "n_regions": 2}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main([f"--out-dir={a}", "--seed=9", "synth", str(p)]) == 0
        assert cli.main([f"--out-dir={b}", "--seed=9", "synth", str(p)]) == 0
        assert (a / "speech_features.csv").read_bytes() == (
            b / "speech_features.csv"
        ).read_bytes()
        truth = json.loads((a / "ground_truth.json").read_text())
        assert truth["seed"] == 9

    def test_missing_spec(self, capsys):
        rc = cli.main(["synth", "/no/such/spec.json"])
        assert rc == 3

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("noise_sigmaa", 0.5, "'noise_sigmaa'"),
            ("weights", ["a", "b"], "could not convert"),
            ("emit_tone_wav", "no", "emit_tone_wav must be true or false; got 'no'"),
            ("regions", [1, 2], "regions must be an object of objects; got [1, 2]"),
            ("regions", {"r": 3}, "regions must be an object of objects; got {'r': 3}"),
            ("offset", "x", "region offset must be a finite number; got 'x'"),
            ("offset", True, "region offset must be a finite number; got True"),
            ("markers_per_region", 0, "markers_per_region must be an integer >= 1; got 0"),
            ("target_turn_s", -1, "target_turn_s must be a positive finite number; got -1"),
            ("partner_turn_s", 0, "partner_turn_s must be a positive finite number; got 0"),
            ("smoothing_s", 0, "smoothing_s must be a positive finite number; got 0"),
            ("rate_hz", 0, "rate_hz must be a positive finite number; got 0"),
            ("emotion_rate_hz", -1, "emotion_rate_hz must be a positive finite number; got -1"),
            ("duration_s", 0.01, "duration_s 0.01 gives no frame at emotion_rate_hz 10.0"),
            ("seed", 1.5, "seed must be an integer >= 0; got 1.5"),
            ("seed", True, "seed must be an integer >= 0; got True"),
            ("target_speaker", "M", "target_speaker and partner_speaker must differ; both are 'M'"),
            ("noise_sigma", math.nan, "noise_sigma must be a finite number >= 0; got nan"),
            ("noise_sigma", math.inf, "noise_sigma must be a finite number >= 0; got inf"),
            ("weights", [math.nan, 2.0], "region weights must be a vector of finite numbers"),
            ("emotion_segment_s", math.nan, "emotion_segment_s must be a positive finite number; got nan"),
            ("emotion_segment_s", math.inf, "emotion_segment_s must be a positive finite number; got inf"),
            ("emotion_segment_s", 0, "emotion_segment_s must be a positive finite number; got 0"),
            ("emotion_segment_s", -3, "emotion_segment_s must be a positive finite number; got -3"),
            ("target_speaker", 5, "target_speaker must be a non-empty string; got 5"),
            ("partner_speaker", "", "partner_speaker must be a non-empty string; got ''"),
            # the transcript format splits on whitespace and drops what follows '#'
            ("target_speaker", "A B", "target_speaker must be a non-empty string with no "
             "whitespace and no '#'; got 'A B'"),
            ("partner_speaker", "F#1", "partner_speaker must be a non-empty string with no "
             "whitespace and no '#'; got 'F#1'"),
        ],
    )
    def test_bad_spec_field_exits_2(self, tmp_path, capsys, field, value, message):
        region = {"weights": [1.0, 2.0], "offset": 0.0}
        spec = {"seed": 5, "duration_s": 5.0, "feature_dim": 2, "feature_names": ["x0", "x1"],
                "regions": {"r": region}}
        region_keys = ("noise_sigmaa", "noise_sigma", "weights", "offset")
        (region if field in region_keys else spec)[field] = value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "session"
        rc = cli.main([f"--out-dir={out}", "synth", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: " in err and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "tiny", [("target_turn_s",), ("partner_turn_s",), ("target_turn_s", "partner_turn_s")],
        ids=["target", "partner", "both"],
    )
    def test_a_turn_shorter_than_a_frame_exits_2(self, tmp_path, tiny):
        # in a child process with a timeout, so a hang (both turns tiny) fails the test
        spec = {"seed": 1, "duration_s": 5, "target_turn_s": 1.0, "partner_turn_s": 1.0,
                "gap_s": 0, **dict.fromkeys(tiny, 1e-6)}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "session"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
        proc = subprocess.run(
            [sys.executable, "-m", "speechmotion.cli", f"--out-dir={out}", "synth", str(p)],
            env=env, capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode == 2, proc.stderr
        assert f"{p}: " in proc.stderr
        assert f"{tiny[0]} 1e-06 is shorter than one frame (1 / rate_hz = " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\r"])
    def test_a_region_name_no_table_can_hold_exits_2_and_writes_nothing(
        self, tmp_path, capsys, name
    ):
        region = {"weights": [1.0, 2.0], "offset": 0.0}
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"seed": 5, "duration_s": 5.0, "feature_dim": 2,
                                 "feature_names": ["x0", "x1"], "regions": {name: region}}))
        out = tmp_path / "session"
        rc = cli.main([f"--out-dir={out}", "synth", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: bad synthesis spec: region {name!r} holds a comma or a line break" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_markers_past_the_plausibility_bound_exit_2_and_write_nothing(self, tmp_path, capsys):
        # random-walk markers at 20x the default step reach ~14 m in a minute
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"seed": 0, "duration_s": 60.0, "signal_scale": 20.0}))
        out = tmp_path / "session"
        rc = cli.main([f"--out-dir={out}", "synth", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: bad synthesis spec: markers reach " in err
        assert "past the plausibility bound 2000.0 mm; lower signal_scale or duration_s" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_a_negative_gap_is_refused_at_construction(self):
        # checked on the spec alone: a session generated with it never ends
        with pytest.raises(ValidationError, match="gap_s must be a finite number >= 0; got -100"):
            synth.SynthSpec(seed=1, regions={"r": synth.RegionCoupling([1.0], 0.0)},
                            feature_dim=1, feature_names=("x0",), gap_s=-100)


def _set_cell(path: Path, line: int, column: int, value: str) -> None:
    """Overwrite one cell of a CSV file; `line` counts from 1."""
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[line - 1].rstrip("\n").split(",")
    cells[column] = value
    lines[line - 1] = ",".join(cells) + "\n"
    path.write_text("".join(lines))


def _cut_rows(src: Path, dst: Path, after_row: int) -> int:
    """Copy a rated table with one second of data rows removed after `after_row`;
    return the file line of the first row past the cut."""
    lines = src.read_text().splitlines(keepends=True)
    rate = float(lines[0].split("=", 1)[1])
    first = 2 + after_row  # lines[0] is the comment, lines[1] the header
    dst.write_text("".join(lines[:first] + lines[first + round(rate):]))
    return first + 1


class TestTableErrors:
    @pytest.mark.parametrize("key", ["speech_features", "markers", "emotion"])
    def test_rows_cut_from_a_rated_table_are_rejected(
        self, cli_workspace, tmp_path, capsys, key
    ):
        sessions = absolute_sessions(cli_workspace)[:1]
        cut = tmp_path / f"cut_{key}.csv"
        line = _cut_rows(Path(sessions[0][key]), cut, after_row=240)
        sessions[0][key] = str(cut)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{cut}:{line}: time_s" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("speech_features", "inf", "infinite"),
            ("markers", "-inf", "infinite"),
            ("markers", "2500.0", "plausibility bound"),
        ],
        ids=["feature_inf", "marker_inf", "marker_past_bound"],
    )
    def test_bad_cell_in_a_rated_table_names_its_line(
        self, cli_workspace, tmp_path, capsys, key, value, message
    ):
        sessions = absolute_sessions(cli_workspace)[:1]
        bad = tmp_path / f"bad_{key}.csv"
        shutil.copy(sessions[0][key], bad)
        _set_cell(bad, line=50, column=2, value=value)
        sessions[0][key] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:50: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "table, command, damage, line, message",
        [
            ("coupling_report.csv", "report", (1, 5, "r_mean"), 1, "header must be"),
            ("s101/summaries.csv", "stats", (3, None, None), 3, "expected 7 cells, got 6"),
            ("anova.csv", "report", (2, 3, "x"), 2, "cannot parse 'x' as df1"),
            ("s101/summaries.csv", "report", (2, 6, "zz"), 2, "cannot parse 'zz' as low_support"),
            *[
                ("s101/summaries.csv", command, damage, 3, message)
                for command in ("stats", "report")
                for damage, message in (
                    ((3, 1, "Bored"), "unknown emotion 'Bored'"),
                    ((3, 2, "crosstalk"), "unknown condition 'crosstalk'"),
                    # line 2 is (head, Neutral, overlap) and line 3 (head, Neutral, non_overlap)
                    ((3, 2, "overlap"),
                     "repeats the cell ('head', 'Neutral', 'overlap') of line 2"),
                )
            ],
        ],
        ids=["coupling_header", "summary_short_row", "anova_bad_df1", "summary_bad_flag",
             *[f"summary_{damage}_{command}" for command in ("stats", "report")
               for damage in ("unknown_emotion", "unknown_condition", "repeated_row")]],
    )
    def test_malformed_result_table_names_its_line(
        self, cli_workspace, tmp_path, capsys, table, command, damage, line, message
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        path = out / table
        damaged_line, column, value = damage
        if column is None:  # drop the last cell of the row
            lines = path.read_text().splitlines(keepends=True)
            lines[damaged_line - 1] = lines[damaged_line - 1].rsplit(",", 1)[0] + "\n"
            path.write_text("".join(lines))
        else:
            _set_cell(path, damaged_line, column, value)
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{path}:{line}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["last_rows_dropped", "columns_swapped"])
    def test_aligned_table_that_disagrees_with_its_sidecar(
        self, cli_workspace, tmp_path, capsys, damage
    ):
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        csv_path = out / "s101" / "aligned.csv"
        lines = csv_path.read_text().splitlines(keepends=True)
        if damage == "last_rows_dropped":
            lines = lines[:-5]
        else:
            header = lines[0].rstrip("\n").split(",")
            header[1], header[2] = header[2], header[1]
            lines[0] = ",".join(header) + "\n"
        csv_path.write_text("".join(lines))
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", "map"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{csv_path}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["activeness", "map"])
    @pytest.mark.parametrize("damage", ["second_half_reversed", "middle_rows_cut", "start_s_moved"])
    def test_aligned_time_column_off_the_sidecar_grid_names_its_line(
        self, cli_workspace, tmp_path, capsys, command, damage
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        csv_path = out / "s101" / "aligned.csv"
        if damage == "second_half_reversed":
            lines = csv_path.read_text().splitlines(keepends=True)
            half = len(lines) // 2
            lines[half:] = lines[half:][::-1]
            csv_path.write_text("".join(lines))
            line = half + 2  # file line half + 1 now holds the last time
        elif damage == "middle_rows_cut":
            lines = csv_path.read_text().splitlines(keepends=True)
            half = len(lines) // 2
            del lines[half:half + 5]
            csv_path.write_text("".join(lines))
            line = half + 1  # the first row past the cut, five frames late
        else:
            meta_path = out / "s101" / "aligned.meta.json"
            meta = json.loads(meta_path.read_text())
            meta["start_s"] += 1.0
            meta_path.write_text(json.dumps(meta))
            line = 2
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{csv_path}:{line}: time_s" in err
        assert "Traceback" not in err

    def test_map_writes_nothing_when_a_later_table_is_damaged(
        self, cli_workspace, tmp_path, capsys
    ):
        out = copy_aligned_tables(cli_workspace, tmp_path / "o")
        csv_path = out / "s202" / "aligned.csv"
        csv_path.write_text("".join(csv_path.read_text().splitlines(keepends=True)[:-5]))
        before = hash_tree(out)
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", "map"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{csv_path}:" in err
        assert "Traceback" not in err
        assert hash_tree(out) == before

    @pytest.mark.parametrize(
        "damage, command, message",
        [
            ("not_json", "activeness", ":1:2: malformed JSON"),
            ("rate_hz_deleted", "map", ": 'rate_hz' must be a positive number; it is missing"),
            ("rate_hz_text", "map", ": 'rate_hz' must be a positive number; got '60.24'"),
            ("n_frames_float", "activeness", ": 'n_frames' must be an integer >= 0; got 7.0"),
            ("start_s_null", "activeness", ": 'start_s' must be a finite number; got None"),
            ("blocks_list", "map", ": 'blocks' must be an object of"),
            ("extra_key", "map", ": unknown key(s) 'rate' (got 60.24)"),
        ],
    )
    def test_bad_sidecar_names_the_sidecar(
        self, cli_workspace, tmp_path, capsys, damage, command, message
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        meta_path = out / "s101" / "aligned.meta.json"
        meta = json.loads(meta_path.read_text())
        if damage == "not_json":
            meta_path.write_text("{not json")
        else:
            key, value = {
                "rate_hz_deleted": ("rate_hz", None),
                "rate_hz_text": ("rate_hz", "60.24"),
                "n_frames_float": ("n_frames", 7.0),
                "start_s_null": ("start_s", None),
                "blocks_list": ("blocks", ["speech"]),
                "extra_key": ("rate", 60.24),
            }[damage]
            if damage == "rate_hz_deleted":
                del meta[key]
            else:
                meta[key] = value
            meta_path.write_text(json.dumps(meta))
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{meta_path}{message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["activeness", "map"])
    @pytest.mark.parametrize("value", ["0.5", ""], ids=["half", "empty"])
    def test_label_cell_that_is_not_binary_names_its_line(
        self, cli_workspace, tmp_path, capsys, command, value
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        csv_path = out / "s101" / "aligned.csv"
        header = csv_path.read_text().split("\n", 1)[0].split(",")
        _set_cell(csv_path, line=40, column=header.index("labels.overlap"), value=value)
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{csv_path}:40: label cells must be 0 or 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["activeness", "map"])
    @pytest.mark.parametrize(
        "damage", ["labels_dropped", "activeness_repeated", "category_dropped"]
    )
    def test_sidecar_blocks_a_session_cannot_have_name_the_sidecar(
        self, cli_workspace, tmp_path, capsys, command, damage
    ):
        # the table and its sidecar agree, so only the block rule can reject them
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        csv_path = out / "s101" / "aligned.csv"
        meta_path = out / "s101" / "aligned.meta.json"
        meta = json.loads(meta_path.read_text())
        rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        if damage == "labels_dropped":
            del meta["blocks"]["labels"]
            rows = [row[:-2] for row in rows]  # the labels are the last two columns
        elif damage == "category_dropped":
            meta["blocks"]["emotion"]["columns"].remove("category")
            column = rows[0].index("emotion.category")
            rows = [row[:column] + row[column + 1:] for row in rows]
        else:
            columns = meta["blocks"]["activeness"]["columns"]
            rows[0][rows[0].index(f"activeness.{columns[1]}")] = f"activeness.{columns[0]}"
            columns[1] = columns[0]
        csv_path.write_text("".join(",".join(row) + "\n" for row in rows))
        meta_path.write_text(json.dumps(meta))
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{meta_path}: 'blocks' must be an object of" in err
        assert "Traceback" not in err

    def test_repeated_column_in_a_feature_csv_names_the_header(
        self, cli_workspace, tmp_path, capsys
    ):
        sessions = absolute_sessions(cli_workspace)[:1]
        bad = tmp_path / "bad_speech_features.csv"
        shutil.copy(sessions[0]["speech_features"], bad)
        header = bad.read_text().splitlines()[1].split(",")
        _set_cell(bad, line=2, column=2, value=header[1])
        sessions[0]["speech_features"] = str(bad)
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"sessions": sessions}))
        rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "align"])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{bad}:2: column name(s) ['{header[1]}'] appear more than once" in err
        assert "Traceback" not in err

    def test_markers_parsed_once_per_session(self, cli_workspace, tmp_path, monkeypatch):
        calls = []

        def counting(load):
            def counted(*args, **kwargs):
                calls.append(args[0])
                return load(*args, **kwargs)
            return counted

        # either marker loader parses the whole CSV
        for name in ("load_markers", "load_marker_activeness"):
            monkeypatch.setattr(ingest, name, counting(getattr(ingest, name)))
        out = tmp_path / "o"
        for command in ("align", "activeness"):
            rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
            assert rc == 0
        assert len(calls) == 2
        for s in ("s101", "s202"):
            written = (out / s / "activeness.csv").read_bytes()
            assert written == (cli_workspace["out"] / s / "activeness.csv").read_bytes()


class TestParseMemo:
    """The parse memos beside aligned.csv and features.csv: caches that no
    output depends on."""

    def test_only_stage_tables_get_a_memo(self, cli_workspace):
        # the synth session directories under the workspace hold none
        memos = sorted(p.relative_to(cli_workspace["base"]).as_posix()
                       for p in cli_workspace["base"].rglob("*.memo"))
        assert memos == [f"out/{sid}/{name}.memo"
                         for sid in ("s101", "s202") for name in ("aligned.csv", "features.csv")]

    def test_outputs_are_the_same_without_memos(self, cli_workspace, tmp_path, parses):
        def tables(root: Path) -> dict[str, str]:
            return {name: digest for name, digest in hash_tree(root).items()
                    if not name.endswith(".memo")}

        aligned_parses = {}
        for memos in (True, False):
            out = tmp_path / f"memos_{memos}"
            shutil.copytree(cli_workspace["out"], out)
            if not memos:
                for memo in out.rglob("*.memo"):
                    memo.unlink()
            parses.clear()
            for command in ("activeness", "map", "stats", "report"):
                rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
                assert rc == 0
            aligned_parses[memos] = parses.count("aligned.csv")
            assert tables(out) == tables(cli_workspace["out"])
        # activeness and map each read both sessions' tables
        assert aligned_parses == {True: 0, False: 4}

    @pytest.mark.parametrize("command", ["activeness", "map"])
    def test_an_edited_sidecar_n_frames_exits_2_on_a_memo_hit(
        self, cli_workspace, tmp_path, capsys, parses, command
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        meta_path = out / "s101" / "aligned.meta.json"
        meta = json.loads(meta_path.read_text())
        n = meta["n_frames"]
        meta["n_frames"] = n - 1
        meta_path.write_text(json.dumps(meta))
        rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
        err = capsys.readouterr().err
        assert rc == 2
        csv_path = out / "s101" / "aligned.csv"
        assert f"{csv_path}: {n} data rows, but {meta_path} gives n_frames={n - 1}" in err
        assert "Traceback" not in err
        assert "aligned.csv" not in parses


def _wav_bytes(fmt_code: int, sample_rate: int, bits: int, body: bytes) -> bytes:
    """A mono RIFF/WAVE file with the given fmt fields and data chunk."""
    byte_rate = sample_rate * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_code, 1, sample_rate, byte_rate, bits // 8, bits)
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    chunks += b"data" + struct.pack("<I", len(body)) + body
    return b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks


@pytest.mark.parametrize(
    "wav, message",
    [
        (
            _wav_bytes(3, 16000, 32, np.array([0.1, np.nan, -0.2] * 2000, dtype="<f4").tobytes()),
            "finite",
        ),
        (_wav_bytes(1, 0, 16, np.zeros(6000, dtype="<i2").tobytes()), "sample rate is 0"),
    ],
    ids=["float_nan_sample", "rate_zero"],
)
def test_bad_wav_is_a_validation_error(tmp_path, capsys, wav, message):
    audio = tmp_path / "a.wav"
    audio.write_bytes(wav)
    p = tmp_path / "c.json"
    doc = {"params": {"trim_head_s": 0.0}, "sessions": [{"id": "x", "audio": str(audio)}]}
    p.write_text(json.dumps(doc))
    rc = cli.main([f"--config={p}", "features"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{audio}: " in err and message in err
    assert "Traceback" not in err


def test_pitch_range_the_clip_cannot_resolve_names_the_wav(cli_workspace, tmp_path, capsys):
    sessions = absolute_sessions(cli_workspace)[:1]
    params = {"trim_head_s": 0, "f0_min_hz": 10, "f0_max_hz": 30}
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"params": params, "sessions": sessions}))
    rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", "features"])
    err = capsys.readouterr().err
    rate = ingest.load_wav(sessions[0]["audio"]).sample_rate_hz
    assert rc == 2
    assert f"{sessions[0]['audio']}: pitch range [10, 30] Hz unusable at {rate} Hz" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def bad_input_dir(tmp_path_factory):
    """A 20 s synthetic session (seed 3, 2 s tone WAV) and damaged copies of its inputs."""
    root = tmp_path_factory.mktemp("bad_inputs")
    spec = synth.default_spec(seed=3, duration_s=20.0)
    synth.write_session_dir(spec, root / "s", emit_tone_wav=True)
    region_map = json.loads((root / "s" / "region_map.json").read_text())
    region_map["hands"].append("NOPE")
    (root / "nope_map.json").write_text(json.dumps(region_map))
    region_map["hands"][-1] = region_map["hands"][0]
    (root / "twice_map.json").write_text(json.dumps(region_map))
    markers = (root / "s" / "markers.csv").read_text().splitlines(keepends=True)
    (root / "one_row.csv").write_text("".join(markers[:3]))  # rate comment, header, one row
    speech = (root / "s" / "speech_features.csv").read_text().splitlines(keepends=True)
    (root / "time_only.csv").write_text(
        "".join([speech[0]] + [line.split(",", 1)[0].rstrip("\n") + "\n" for line in speech[1:]])
    )
    rng = np.random.default_rng(0)
    ingest.write_wav(root / "short.wav", ingest.AudioClip(0.1 * rng.standard_normal(1600), 16000))
    ingest.write_wav(root / "silent.wav", ingest.AudioClip(np.zeros(6 * 16000), 16000))
    return root


def _bad_input_config(root: Path, tmp_path: Path, params: dict, **inputs) -> Path:
    session = json.loads((root / "s" / "config.json").read_text())
    session = {k: v if k in ("id", "speaker") else str(root / "s" / v) for k, v in session.items()}
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"params": params, "sessions": [{**session, **inputs}]}))
    return p


@pytest.mark.parametrize(
    "stage, params, inputs, code, message",
    [
        ("features", {"trim_head_s": 5.0}, {}, 3, "tone.wav: cannot trim 5.0 s from a 2.000 s clip"),
        ("align", {}, {"region_map": "nope_map.json"}, 2,
         "region 'hands' references markers absent from the displacement track: ['NOPE']"),
        ("align", {}, {"region_map": "twice_map.json"}, 2,
         "twice_map.json: region 'hands' lists marker 'region_8_m1' more than once"),
        ("features", {"trim_head_s": 0.0}, {"audio": "short.wav"}, 3,
         "PCA needs more frames (10) than columns (36)"),
        ("align", {}, {"markers": "one_row.csv"}, 3, "need >= 2 frames to difference, got 1"),
        ("features", {"trim_head_s": 0.0}, {"audio": "silent.wav"}, 3,
         "PCA input has rank 3, below the 12 components requested"),
        # the session directory itself, which the OS cannot open as a file
        ("align", {}, {"markers": "s"}, 3, "s: Is a directory"),
        ("align", {}, {"region_map": "s"}, 3, "s: Is a directory"),
        ("align", {"feature_sets": ["all"]}, {"speech_features": "time_only.csv"}, 2,
         "time_only.csv:2: no feature column after time_s"),
    ],
    ids=["trim_past_the_clip", "region_map_marker_absent", "region_map_marker_twice",
         "clip_shorter_than_pca",
         "one_marker_row", "silent_wav", "markers_a_directory", "region_map_a_directory",
         "speech_without_a_feature_column"],
)
def test_a_bad_input_names_its_session(
    bad_input_dir, tmp_path, capsys, stage, params, inputs, code, message
):
    inputs = {k: str(bad_input_dir / v) for k, v in inputs.items()}
    p = _bad_input_config(bad_input_dir, tmp_path, params, **inputs)
    argv = [f"--config={p}", f"--out-dir={tmp_path / 'o'}", stage]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: session 'synth-3': ") and message in err
    assert "Traceback" not in err
    assert cli.main(["--error-json", *argv]) == code
    payload = json.loads(capsys.readouterr().err)
    assert f"error: {payload['message']}\n" == err


@pytest.mark.parametrize("jobs", [1, 2])
def test_features_on_threads_names_the_failing_session(
    cli_workspace, bad_input_dir, tmp_path, capsys, jobs
):
    sessions = absolute_sessions(cli_workspace)
    sessions[1]["audio"] = str(bad_input_dir / "short.wav")
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"params": {"trim_head_s": 0.0}, "sessions": sessions}))
    rc = cli.main([f"--config={p}", f"--out-dir={tmp_path / 'o'}", f"--jobs={jobs}", "features"])
    assert rc == 3
    # the same exit and message as one thread gives
    assert capsys.readouterr().err == (
        "error: session 's202': PCA needs more frames (10) than columns (36)\n"
    )


def test_features_failure_leaves_the_same_tree_on_threads(
    cli_workspace, bad_input_dir, tmp_path, capsys
):
    # a failing session first: the session after it must not be written
    # on threads either, where its step has already run
    sessions = absolute_sessions(cli_workspace)
    sessions[0]["audio"] = str(bad_input_dir / "short.wav")
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"params": {"trim_head_s": 0.0}, "sessions": sessions}))
    trees = []
    for jobs in (1, 2):
        out = tmp_path / f"o{jobs}"
        assert cli.main([f"--config={p}", f"--out-dir={out}", f"--jobs={jobs}", "features"]) == 3
        trees.append({q.relative_to(out): q.is_file() and q.read_bytes() for q in out.rglob("*")})
    capsys.readouterr()
    assert trees[0] == trees[1]
    assert not any(path.name == "features.csv" for path in trees[0])


def test_cli_import_leaves_scipy_unloaded(cli_workspace, tmp_path):
    import speechmotion

    package = Path(speechmotion.__file__).parent
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module or ""] if isinstance(node, ast.ImportFrom) else []
            assert not [m for m in modules if m.split(".")[0] == "scipy"], path

    # stats and report, the stages that compute and print p values, with
    # every scipy import failing
    out = tmp_path / "out"
    shutil.copytree(cli_workspace["out"], out)
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from speechmotion import cli\n"
        "sys.exit(cli.main(sys.argv[1:] + ['stats']) or cli.main(sys.argv[1:] + ['report']))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run(
        [sys.executable, "-c", code, f"--config={cli_workspace['config']}", f"--out-dir={out}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("anova.csv", "report/reference_comparison.csv"):
        assert (out / name).read_bytes() == (cli_workspace["out"] / name).read_bytes(), name


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from(["session", "corpus", "segment", "k_fold", "zero_threshold", "prosody"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=6,
)


class TestConfigSchema:
    def test_every_default_passes_its_own_rule(self):
        for key, (default, valid, _) in cli.PARAMS.items():
            assert valid(default), key
        assert cli.Config({}, Path(".")).params == {k: d for k, (d, *_) in cli.PARAMS.items()}

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from(sorted(cli.PARAMS)), value=JSON_VALUES)
    def test_a_param_value_is_kept_only_if_its_rule_passes(self, key, value):
        try:
            config = cli.Config({"params": {key: value}}, Path("."))
        except ValidationError:
            return
        _, valid, _ = cli.PARAMS[key]
        assert valid(config.params[key])
        assert config.params[key] == value

    def test_iemocap_profile_takes_the_channel_from_the_session_index(self):
        sessions = [{"id": f"s{i}", "session_index": i} for i in range(1, 6)]
        sessions.append({"id": "explicit", "session_index": 2, "channel": "left"})
        doc = {"profile": "iemocap", "sessions": sessions}
        config = cli.Config(doc, Path("."))
        channels = [config.channel_for(s) for s in config.sessions]
        assert channels == ["left", "right", "right", "right", "right", "left"]
        # without the profile, the session index chooses nothing
        plain = cli.Config({"sessions": sessions}, Path("."))
        assert {plain.channel_for(s) for s in plain.sessions} == {"left"}
