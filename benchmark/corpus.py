"""Seeded synthetic corpora for the pipeline benchmark, and their ground truth.

Markers, transcript and emotion come from the package's own
``synth.default_spec`` and ``synth.write_session_dir``; the audio workloads
add a stereo 16 kHz 16-bit WAV per session whose fundamental frequency is
known at every instant, and drop the synthetic ``speech_features.csv`` so the
``features`` stage must produce it. The same seed always gives byte-identical
inputs.

``run.py`` runs this file as a child process, so that the memory spent on
generating and checking never counts toward a stage's peak RSS (a child's
``ru_maxrss`` starts from its parent's high-water mark)::

    python benchmark/corpus.py generate WORKLOAD SEED INPUTS_DIR
    python benchmark/corpus.py accuracy WORKLOAD INPUTS_DIR OUT_DIR

``generate`` writes the inputs and ``INPUTS_DIR/config.json``. ``accuracy``
prints one JSON object with the accuracy figures of one chain's outputs.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Workload

SAMPLE_RATE_HZ = 16000
CARRIER_HZ = 150.0
DEVIATION_HZ = 30.0
MODULATION_HZ = 0.5
TONE_AMPLITUDE = 0.5
NOISE_STD = 0.05
TARGET_R = 0.6
GENERATE_PROCESSES = 2  # generation is outside all timing; two workers bound its memory


def true_f0_hz(t: np.ndarray) -> np.ndarray:
    """Instantaneous frequency of the generated FM tone at times `t` (s)."""
    return CARRIER_HZ + DEVIATION_HZ * np.sin(2.0 * np.pi * MODULATION_HZ * t)


def fm_tone(duration_s: float, seed: int):
    """Stereo FM tone plus seeded white noise, independent per channel."""
    from speechmotion.ingest import AudioClip

    n = int(round(duration_s * SAMPLE_RATE_HZ))
    t = np.arange(n) / SAMPLE_RATE_HZ
    # phase is the integral of true_f0_hz, so the tone's pitch is known exactly
    phase = 2.0 * np.pi * CARRIER_HZ * t + (DEVIATION_HZ / MODULATION_HZ) * (
        1.0 - np.cos(2.0 * np.pi * MODULATION_HZ * t)
    )
    tone = TONE_AMPLITUDE * np.sin(phase)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xA0D10]))
    noise = rng.standard_normal((n, 2)) * NOISE_STD
    samples = np.clip(tone[:, None] + noise, -1.0, 1.0)
    return AudioClip(samples=samples, sample_rate_hz=SAMPLE_RATE_HZ)


def write_session(workload: Workload, seed: int, root: Path, i: int) -> dict:
    """Write session `i` of the workload under `root`; return its config entry."""
    from speechmotion import synth
    from speechmotion.ingest import write_wav

    sid = f"s{i:02d}"
    spec = synth.default_spec(
        seed + i,
        duration_s=workload.duration_s,
        target_r=TARGET_R,
        **workload.spec_overrides,
    )
    entry = synth.write_session_dir(spec, root / sid)
    (root / sid / "config.json").unlink()
    entry = {k: f"{sid}/{v}" if k != "speaker" else v for k, v in entry.items()}
    entry["id"] = sid
    if workload.audio:
        (root / sid / "speech_features.csv").unlink()
        del entry["speech_features"]
        write_wav(root / sid / "audio.wav", fm_tone(workload.duration_s, seed + i))
        entry["audio"] = f"{sid}/audio.wav"
    if workload.profile == "iemocap":
        entry["session_index"] = i % 5 + 1
    return entry


def generate(workload: Workload, seed: int, root: Path, processes: int = GENERATE_PROCESSES) -> Path:
    """Write the workload's inputs under `root` and return its config path.

    Sessions are written by `processes` worker processes; each session
    depends only on its own seed, so the files do not depend on the count.
    """
    root.mkdir(parents=True, exist_ok=True)
    n = workload.n_sessions
    with ProcessPoolExecutor(max_workers=min(processes, n)) as pool:
        sessions = list(pool.map(write_session, [workload] * n, [seed] * n, [root] * n, range(n)))
    config = {"params": workload.params, "sessions": sessions}
    if workload.profile:
        config["profile"] = workload.profile
    path = root / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def f0_error(out_dir: Path, n_sessions: int) -> tuple[float, float]:
    """Median |f0 - true f0| over voiced frames, and the voiced share, all sessions."""
    from speechmotion.speech_features import WINDOW_S

    errors, voiced_total, frames_total = [], 0, 0
    for i in range(n_sessions):
        path = out_dir / f"s{i:02d}" / "features.csv"
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            header = fh.readline().rstrip("\n").split(",")
        data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
        f0 = data[:, header.index("f0_hz")]
        centres = data[:, 0] + 0.5 * WINDOW_S
        voiced = f0 > 0
        errors.append(np.abs(f0[voiced] - true_f0_hz(centres[voiced])))
        voiced_total += int(voiced.sum())
        frames_total += len(f0)
    return float(np.median(np.concatenate(errors))), voiced_total / frames_total


def r_error(out_dir: Path, inputs: Path, n_sessions: int) -> float:
    """Largest |mean_r - theoretical_r| over generated regions (all/all/all rows)."""
    theoretical: dict[str, list[float]] = {}
    for i in range(n_sessions):
        truth = json.loads((inputs / f"s{i:02d}" / "ground_truth.json").read_text())
        for region, doc in truth["regions"].items():
            theoretical.setdefault(region, []).append(doc["theoretical_r"])
    with open(out_dir / "coupling_report.csv", encoding="utf-8", newline="") as fh:
        rows = {
            row["region"]: float(row["mean_r"])
            for row in csv.DictReader(fh)
            if (row["feature_set"], row["condition"], row["affect_bin"]) == ("all", "all", "all")
        }
    missing = sorted(set(theoretical) - set(rows))
    if missing:
        raise RuntimeError(f"coupling_report.csv has no all/all/all row for {missing}")
    return max(abs(rows[r] - float(np.mean(t))) for r, t in theoretical.items())


def accuracy(workload: Workload, inputs: Path, out_dir: Path) -> dict[str, float]:
    """f0 error and voiced share on audio workloads, r error otherwise."""
    if workload.audio:
        f0_err_hz, voiced_share = f0_error(out_dir, workload.n_sessions)
        return {"f0_err_hz": f0_err_hz, "voiced_share": voiced_share}
    return {"r_err_max": r_error(out_dir, inputs, workload.n_sessions)}


def main(argv: list[str]) -> int:
    command, name, *rest = argv
    workload = WORKLOADS[name]
    if command == "generate":
        seed, root = rest
        generate(workload, int(seed), Path(root))
    elif command == "accuracy":
        inputs, out_dir = rest
        print(json.dumps(accuracy(workload, Path(inputs), Path(out_dir))))
    else:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
