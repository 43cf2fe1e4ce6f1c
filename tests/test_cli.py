import hashlib
import json
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

from speechmotion import cli, ingest, speech_features, stats, timeline
from speechmotion.errors import IncompleteSubjectWarning, ValidationError
from speechmotion.frames import read_feature_csv, write_feature_csv
from speechmotion.speech_features import SPEECH_FEATURE_COLUMNS


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
        tables = {
            s["id"]: timeline.read_session_csv(
                out / s["id"] / "aligned.csv", out / s["id"] / "aligned.meta.json"
            )
            for s in doc["sessions"]
        }
        assert list(written) == list(next(iter(tables.values())).block("activeness").columns)
        for region, result in written.items():
            rows = [
                row for sid, table in tables.items()
                for row in stats.segment_design_rows(table, region, sid, segment_s=30.0)
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
        model = speech_features.fit_pca_pooled(
            [speech_features.temporal_derivatives(mfcc(c)) for c in clips]
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

    def test_unknown_profile_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"profile": "nope", "sessions": []}))
        rc = cli.main([f"--config={p}", "align"])
        assert rc == 2

    def test_missing_config(self, capsys):
        rc = cli.main(["--config=/does/not/exist.json", "align"])
        assert rc == 3
        assert "exist.json" in capsys.readouterr().err

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
        ],
    )
    def test_bad_param_value_exits_2_and_writes_nothing(
        self, cli_workspace, tmp_path, capsys, key, value, command
    ):
        out = tmp_path / "o"
        shutil.copytree(cli_workspace["out"], out)
        before = hash_tree(out)
        doc = {"params": {"trim_head_s": 0.0}, "sessions": absolute_sessions(cli_workspace)}
        # a params key unless it names a top-level key or the first session's id
        target = {"sessions": doc, "params": doc, "id": doc["sessions"][0]}.get(key, doc["params"])
        where = {"sessions": "'sessions'", "params": "'params'", "id": "sessions[0].id"}
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
        ],
    )
    def test_bad_spec_field_exits_2(self, tmp_path, capsys, field, value, message):
        region = {"weights": [1.0, 2.0], "offset": 0.0}
        spec = {"seed": 5, "duration_s": 5.0, "feature_dim": 2, "feature_names": ["x0", "x1"],
                "regions": {"r": region}}
        (spec if field in ("emit_tone_wav", "regions") else region)[field] = value
        p = tmp_path / "spec.json"
        p.write_text(json.dumps(spec))
        out = tmp_path / "session"
        rc = cli.main([f"--out-dir={out}", "synth", str(p)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"{p}: " in err and message in err
        assert "Traceback" not in err
        assert not out.exists()


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
        "table, command, damage, line",
        [
            ("coupling_report.csv", "report", (1, 5, "r_mean"), 1),
            ("s101/summaries.csv", "stats", (3, None, None), 3),
            ("anova.csv", "report", (2, 3, "x"), 2),
            ("s101/summaries.csv", "report", (2, 6, "zz"), 2),
        ],
        ids=["coupling_header", "summary_short_row", "anova_bad_df1", "summary_bad_flag"],
    )
    def test_malformed_result_table_names_its_line(
        self, cli_workspace, tmp_path, capsys, table, command, damage, line
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
        assert f"{path}:{line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("damage", ["last_rows_dropped", "columns_swapped"])
    def test_aligned_table_that_disagrees_with_its_sidecar(
        self, cli_workspace, tmp_path, capsys, damage
    ):
        out = tmp_path / "o"
        for sid in ("s101", "s202"):
            (out / sid).mkdir(parents=True)
            for name in ("aligned.csv", "aligned.meta.json"):
                source = cli_workspace["out"] / sid / name
                (out / sid / name).write_bytes(source.read_bytes())
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

    def test_map_writes_nothing_when_a_later_table_is_damaged(
        self, cli_workspace, tmp_path, capsys
    ):
        out = tmp_path / "o"
        for sid in ("s101", "s202"):
            (out / sid).mkdir(parents=True)
            for name in ("aligned.csv", "aligned.meta.json"):
                shutil.copy(cli_workspace["out"] / sid / name, out / sid / name)
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
    @pytest.mark.parametrize("damage", ["labels_dropped", "activeness_repeated"])
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
        load_markers = ingest.load_markers

        def counting_load_markers(*args, **kwargs):
            calls.append(args[0])
            return load_markers(*args, **kwargs)

        monkeypatch.setattr(ingest, "load_markers", counting_load_markers)
        out = tmp_path / "o"
        for command in ("align", "activeness"):
            rc = cli.main([f"--config={cli_workspace['config']}", f"--out-dir={out}", command])
            assert rc == 0
        assert len(calls) == 2
        for s in ("s101", "s202"):
            written = (out / s / "activeness.csv").read_bytes()
            assert written == (cli_workspace["out"] / s / "activeness.csv").read_bytes()


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


def test_cli_import_leaves_scipy_unloaded():
    import speechmotion

    env = {**os.environ, "PYTHONPATH": str(Path(speechmotion.__file__).parents[1])}
    code = "import sys, speechmotion.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
