import json
from pathlib import Path

import pytest
from hypothesis import settings

from speechmotion import cli, frames
from speechmotion.synth import default_spec, write_session_dir

CLI_SEEDS = (101, 202)

# a falsifying example prints a @reproduce_failure blob, so a case found
# against a fresh example database can be replayed anywhere
settings.register_profile("speechmotion", print_blob=True)
settings.load_profile("speechmotion")


def build_cli_workspace(base: Path) -> dict:
    """Two synthetic sessions and a config under `base`, and one full pipeline run."""
    for seed in CLI_SEEDS:
        spec = default_spec(
            seed=seed,
            duration_s=120.0,
            target_r=0.6,
            overlap_prob=0.35,
            markers_per_region=1,
            signal_scale=0.1,
        )
        write_session_dir(spec, base / f"s{seed}", emit_tone_wav=True)
    config = {
        "out_dir": "out",
        "params": {"n_folds": 3, "trim_head_s": 0.0},
        "sessions": [
            {
                "id": f"s{seed}",
                "audio": f"s{seed}/tone.wav",
                "speech_features": f"s{seed}/speech_features.csv",
                "markers": f"s{seed}/markers.csv",
                "transcript": f"s{seed}/transcript.txt",
                "emotion": f"s{seed}/emotion.csv",
                "region_map": f"s{seed}/region_map.json",
                "speaker": "F",
            }
            for seed in CLI_SEEDS
        ],
    }
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    for command in ("features", "align", "activeness", "map", "stats", "report"):
        rc = cli.main([f"--config={config_path}", command])
        assert rc == 0, f"{command} failed"
    return {"base": base, "config": config_path, "out": base / "out", "doc": config}


@pytest.fixture(scope="session")
def cli_workspace(tmp_path_factory):
    """Two synthetic sessions, a config, and one full pipeline run."""
    return build_cli_workspace(tmp_path_factory.mktemp("cli_workspace"))


@pytest.fixture
def parses(monkeypatch):
    """The file names that frames.read_rows parses, in call order."""
    calls = []
    read_rows = frames.read_rows

    def counting(fh, path, *args, **kwargs):
        calls.append(Path(path).name)
        return read_rows(fh, path, *args, **kwargs)

    monkeypatch.setattr(frames, "read_rows", counting)
    return calls
