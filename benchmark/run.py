#!/usr/bin/env python3
"""Pipeline benchmark: time, memory and correctness of the speechmotion CLI.

Usage, from the root of a source checkout::

    python3 benchmark/run.py --workload audio_long --seed 0 --seconds 45 --trace 0

The run generates the workload's inputs from the seed (outside all timing),
then runs the CLI stage chain the way a user does: one fresh
``python -m speechmotion.cli --jobs 1 <stage>`` process per stage, one after
another. It repeats the chain, each time into a fresh output directory, at
least twice and then as long as another chain fits in ``--seconds``. A stage's
time is the fastest of its executions in the run, since on shared cores noise
only ever adds time; memory is the median. It checks the outputs against the
generator's ground truth and against each other, and prints one JSON object as
its last line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs an untraced
chain and a chain whose stage processes go through ``tracer.py``, alternating
stage by stage, and reports per-layer metrics. See README.md in this directory.

This script uses the standard library only and runs the package in child
processes. It runs them with the interpreter it was started with if that one
can import ``speechmotion.cli`` (numpy and scipy), and otherwise with the
first interpreter that can: ``python3`` or ``python`` on ``PATH``, then the
versions installed by pyenv.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench"

import tracer  # noqa: E402
import workloads  # noqa: E402

STAGES = ("features", "align", "activeness", "map", "stats", "report")
STAGE_TIMEOUT_S = 100.0  # a stage is killed after this; a healthy one takes < 15 s
MIN_CHAINS = 2  # per untraced run; also lets every run compare outputs across chains

# name, unit, direction; the order is the order printed
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("pipeline_s", "s", "lower"),
    ("session_s_per_s", "s/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
    ("features_rss_mib", "MiB", "lower"),
    ("map_rss_mib", "MiB", "lower"),
)

STAGE_GROUPS = ("features", "align", "activeness", "map", "stats_report")
PER_LAYER = tuple(
    (f"cli.{group}.{kind}", "s", "lower") for group in STAGE_GROUPS for kind in ("wall_s", "self_s")
) + (
    ("ingest.load_wav.self_s", "s", "lower"),
    ("ingest.load_wav.calls", "count", "lower"),
    ("ingest.load_markers.self_s", "s", "lower"),
    ("ingest.load_markers.calls", "count", "lower"),
    ("ingest.load_markers.mib", "MiB", "lower"),
    ("ingest.load_emotion_frames.self_s", "s", "lower"),
    ("ingest.load_transcript_intervals.self_s", "s", "lower"),
    ("frames.write_feature_csv.self_s", "s", "lower"),
    ("frames.write_feature_csv.rows", "count", "lower"),
    ("frames.read_feature_csv.self_s", "s", "lower"),
    ("frames.read_feature_csv.rows", "count", "lower"),
    ("speech_features.f0_contour.self_s", "s", "lower"),
    ("speech_features.f0_contour.peak_mib", "MiB", "lower"),
    ("speech_features.mfcc.self_s", "s", "lower"),
    ("speech_features.mfcc.calls", "count", "lower"),
    ("speech_features.mfcc.peak_mib", "MiB", "lower"),
    ("speech_features.rms_energy.self_s", "s", "lower"),
    ("speech_features.fit_pca.self_s", "s", "lower"),
    ("speech_features.apply_pca.self_s", "s", "lower"),
    ("speech_features.frames", "count", "higher"),
    ("speech_features.temporal_derivatives.self_s", "s", "lower"),
    ("speech_features.temporal_derivatives.calls", "count", "lower"),
    ("timeline.align_session.self_s", "s", "lower"),
    ("timeline.resample_linear.self_s", "s", "lower"),
    ("timeline.rasterize_intervals.self_s", "s", "lower"),
    ("timeline.write_session_csv.self_s", "s", "lower"),
    ("timeline.write_session_csv.rows", "count", "lower"),
    ("timeline.read_session_csv.self_s", "s", "lower"),
    ("timeline.read_session_csv.calls", "count", "lower"),
    ("motion.displacement_magnitudes.self_s", "s", "lower"),
    ("motion.region_activeness.self_s", "s", "lower"),
    ("motion.region_activeness.calls", "count", "lower"),
    ("motion.condition_summaries.self_s", "s", "lower"),
    ("coupling.coupling_report.self_s", "s", "lower"),
    ("coupling.evaluate_mapping.self_s", "s", "lower"),
    ("coupling.evaluate_mapping.calls", "count", "lower"),
    ("coupling.evaluate_mapping.frames", "count", "higher"),
    ("coupling.evaluate_mapping.failed", "count", "lower"),
    ("coupling.fit_ammse.self_s", "s", "lower"),
    ("coupling.pearson_r.self_s", "s", "lower"),
    ("coupling.bin_affect.calls", "count", "lower"),
    ("coupling.feature_set_track.calls", "count", "lower"),
    ("coupling.write_coupling_csv.self_s", "s", "lower"),
    ("stats.rm_anova_two_way.self_s", "s", "lower"),
    ("stats.rm_anova_two_way.calls", "count", "lower"),
    ("stats.design_from_summaries.self_s", "s", "lower"),
    ("report.render_svg.self_s", "s", "lower"),
    ("report.write_grid_csv.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
)

# correctness tolerances, fixed before measuring
R_TOLERANCE = 0.05  # the test_c2 tolerance on |mean_r - theoretical_r|
MIN_VOICED = 0.99
F0_TOLERANCE_HZ = 7.5  # 5 % of the 150 Hz carrier
OUTPUT_SUFFIXES = (".csv", ".svg", ".json")


@dataclass
class StageRun:
    stage: str
    wall_s: float
    rss_mib: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one BLAS thread per process: the chain is --jobs 1 on shared cores
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


_IMPORT_PROBE = "import sys, speechmotion.cli; print(sys.executable)"


def candidate_pythons():
    """This interpreter, then those on PATH, then those installed by pyenv."""
    yield sys.executable
    for name in ("python3", "python"):
        found = shutil.which(name)
        if found:
            yield found
    pyenv_root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    yield from sorted(str(p) for p in pyenv_root.glob("versions/*/bin/python3"))


def find_python(env: dict) -> str | None:
    """The first candidate interpreter that imports ``speechmotion.cli``, resolved
    through any shim to the interpreter itself."""
    tried = set()
    for candidate in candidate_pythons():
        if candidate in tried:
            continue
        tried.add(candidate)
        try:
            proc = subprocess.run(
                [candidate, "-c", _IMPORT_PROBE],
                env=env, cwd=ROOT, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
            )
        except (OSError, subprocess.TimeoutExpired):
            continue
        lines = proc.stdout.split()
        if proc.returncode == 0 and lines:
            return lines[-1]
    return None


def run_helper(python: str, args: list[str], env: dict) -> str:
    """Run ``corpus.py`` with `args` in a child process; return its standard output."""
    proc = subprocess.run(
        [python, str(BENCH_DIR / "corpus.py"), *args],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=STAGE_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"corpus.py {args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def run_process(cmd: list[str], log_path: Path, env: dict) -> tuple[float, float, int]:
    """Wall time, peak RSS (MiB) and exit code of one child process."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


@dataclass
class Lane:
    """Where one chain writes; the chain is traced when `spans_dir` is set."""

    out_dir: Path
    log_dir: Path
    spans_dir: Path | None = None


def run_chains(
    python: str, config: Path, lanes: list[Lane], env: dict, before_stage=None
) -> list[list[StageRun]]:
    """Run each stage in its own process, for every lane in turn, stage by stage.

    The lane that goes first alternates from stage to stage, so no lane
    always runs a stage just after another lane ran it. Stops at the first
    failure. `before_stage`, if given, is called before each stage.
    """
    for lane in lanes:
        lane.out_dir.mkdir(parents=True)
        lane.log_dir.mkdir(parents=True)
        if lane.spans_dir:
            lane.spans_dir.mkdir(parents=True)
    runs: list[list[StageRun]] = [[] for _ in lanes]
    for i, stage in enumerate(STAGES):
        if before_stage:
            before_stage()
        pairs = list(zip(lanes, runs))
        for lane, lane_runs in pairs if i % 2 == 0 else pairs[::-1]:
            cli_args = ["--jobs", "1", "--config", str(config), "--out-dir", str(lane.out_dir), stage]
            if lane.spans_dir is None:
                cmd = [python, "-m", "speechmotion.cli", *cli_args]
            else:
                spans = lane.spans_dir / f"{stage}.json"
                cmd = [python, str(BENCH_DIR / "tracer.py"), str(spans), *cli_args]
            log = lane.log_dir / f"{stage}.log"
            lane_runs.append(StageRun(stage, *run_process(cmd, log, env)))
            if lane_runs[-1].returncode != 0:
                sys.stderr.write(f"stage {stage} exited {lane_runs[-1].returncode}:\n")
                sys.stderr.write(log.read_text(errors="replace")[-2000:])
                return runs
    return runs


_SETUP_CODE = (
    "import sys\n"
    "from speechmotion.cli import Config\n"
    "Config.load(sys.argv[1])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def setup_probe(python: str, config: Path, env: dict) -> float:
    """Time from spawning an interpreter until the CLI is imported and the config read."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [python, "-c", _SETUP_CODE, str(config)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT,
    )
    timer = threading.Timer(STAGE_TIMEOUT_S, proc.kill)
    timer.start()
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.stdout.close()
    returncode = proc.wait()
    timer.cancel()
    if returncode != 0 or line != b"ready\n":
        raise RuntimeError("set-up probe failed to import speechmotion.cli")
    return elapsed


def run_metrics(chains: list[list[StageRun]], session_seconds: float) -> dict[str, float]:
    """End-to-end figures of complete chains.

    A stage's time is its fastest execution over the chains (best of N, as
    ``timeit`` reports it): contention from other tenants of the host only
    adds time, and comes in bursts of seconds that a median over a few
    chains does not remove. A stage's RSS is its median over the chains.
    """
    wall = {stage: min(r.wall_s for runs in chains for r in runs if r.stage == stage) for stage in STAGES}
    rss = {
        stage: statistics.median(r.rss_mib for runs in chains for r in runs if r.stage == stage)
        for stage in STAGES
    }
    pipeline = sum(wall.values())
    return {
        "pipeline_s": pipeline,
        "session_s_per_s": session_seconds / pipeline,
        "features_s": wall["features"],
        "align_s": wall["align"],
        "activeness_s": wall["activeness"],
        "map_s": wall["map"],
        "stats_report_s": wall["stats"] + wall["report"],
        "peak_rss_mib": max(rss.values()),
        "features_rss_mib": rss["features"],
        "map_rss_mib": rss["map"],
    }


# --- correctness --------------------------------------------------------------

def expected_outputs(workload) -> list[str]:
    per_session = ["aligned.csv", "aligned.meta.json", "activeness.csv", "summaries.csv"]
    if workload.audio:
        per_session += ["features.csv", "pca_model.json"]
    names = [f"s{i:02d}/{f}" for i in range(workload.n_sessions) for f in per_session]
    return names + [
        "coupling_report.csv", "anova.csv",
        "report/activeness_grid.svg", "report/coupling_grid.svg",
        "report/reference_comparison.csv",
    ]


def source_digest() -> str:
    return workloads.tree_digest(SRC / "speechmotion", (".py",))


def check_outputs(python, env, workload, seed, inputs, input_digest, out_dirs, failed) -> tuple[dict, dict]:
    """Named checks on a run's outputs, plus the accuracy figures they rest on."""
    checks: dict[str, bool] = {"error_rate_zero": failed == 0}
    info: dict[str, float] = {}
    if failed:
        return checks, info
    first = out_dirs[0]
    checks["outputs_present"] = all((first / name).is_file() for name in expected_outputs(workload))
    digests = [workloads.tree_digest(d, OUTPUT_SUFFIXES) for d in out_dirs]
    info["output_digest"] = digests[0]
    # byte-identical across the chains of this run and across earlier runs of
    # the same code on the same inputs in this checkout
    record_path = WORK / "output_digests.json"
    records = json.loads(record_path.read_text()) if record_path.exists() else {}
    key = f"{workload.name}:{seed}:{input_digest}:{source_digest()}"
    checks["outputs_deterministic"] = len(set(digests)) == 1 and records.get(key, digests[0]) == digests[0]
    if checks["outputs_deterministic"]:
        records[key] = digests[0]
        record_path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    info.update(json.loads(run_helper(python, ["accuracy", workload.name, str(inputs), str(first)], env)))
    if workload.audio:
        checks["f0_within_tolerance"] = info["f0_err_hz"] <= F0_TOLERANCE_HZ
        checks["voiced_share"] = info["voiced_share"] >= MIN_VOICED
    else:
        checks["r_within_tolerance"] = info["r_err_max"] <= R_TOLERANCE
    return checks, info


# --- traced run -------------------------------------------------------------

def _group(stage: str) -> str:
    return "stats_report" if stage in ("stats", "report") else stage


def layer_metrics(traced: list[StageRun], untraced: list[StageRun], spans_dir: Path) -> dict[str, float]:
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    covered_total = 0.0
    for run in untraced:
        values[f"cli.{_group(run.stage)}.wall_s"] += run.wall_s
    for run in traced:
        doc = json.loads((spans_dir / f"{run.stage}.json").read_text())
        layers, covered = tracer.summarize(doc)
        covered_total += covered
        values[f"cli.{_group(run.stage)}.self_s"] += run.wall_s - covered
        for name, st in layers.items():
            for suffix, value in (("self_s", st.self_s), ("calls", st.calls), ("failed", st.failed)):
                key = f"{name}.{suffix}"
                if key in values:
                    values[key] += value
        for key, value in doc["counters"].items():
            if key in values:
                values[key] += value
        for key, value in doc["peaks"].items():
            if key in values:
                values[key] = max(values[key], value)
    traced_s = sum(r.wall_s for r in traced)
    values["trace.overhead_s"] = traced_s - sum(r.wall_s for r in untraced)
    values["trace.coverage"] = covered_total / traced_s
    return {name: int(values[name]) if unit == "count" else values[name] for name, unit, _ in PER_LAYER}


# --- main -------------------------------------------------------------------

def sync_tree(root: Path) -> None:
    """Flush every file under `root` to disk now, so the kernel's delayed
    write-back of files written outside the timing does not land inside it."""
    for path in root.rglob("*"):
        if path.is_file():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def prepare_inputs(python: str, env: dict, workload, seed: int) -> tuple[Path, Path, str]:
    base = WORK / workload.name
    if base.exists():
        shutil.rmtree(base)
    inputs = base / "inputs"
    run_helper(python, ["generate", workload.name, str(seed), str(inputs)], env)
    sync_tree(inputs)
    return base, inputs / "config.json", workloads.tree_digest(inputs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "speechmotion" / "cli.py").is_file():
        print(f"error: no speechmotion sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = child_env()
    python = find_python(env)
    if python is None:
        print("error: no Python interpreter found that imports speechmotion.cli", file=sys.stderr)
        return 2
    base, config, input_digest = prepare_inputs(python, env, workload, args.seed)

    chains: list[list[StageRun]] = []
    out_dirs: list[Path] = []

    def chain(lanes: list[Lane], before_stage=None) -> list[list[StageRun]]:
        runs = run_chains(python, config, lanes, env, before_stage)
        for lane in lanes:
            sync_tree(lane.out_dir)
        chains.extend(runs)
        out_dirs.extend(lane.out_dir for lane in lanes)
        return runs

    def lane(label: str, traced: bool = False) -> Lane:
        return Lane(base / label / "out", base / label / "logs", base / label / "spans" if traced else None)

    setup_s = None
    if args.trace:
        # untraced and traced stages alternate, so each overhead is measured
        # against an untraced execution of the same stage moments earlier
        untraced, traced = chain([lane("untraced"), lane("traced", traced=True)])
    else:
        # set-up probes are spread over the first chain, one before each
        # stage, so their median does not hinge on one moment
        probes: list[float] = []

        def probe() -> None:
            probes.append(setup_probe(python, config, env))

        deadline = time.perf_counter() + args.seconds
        while True:
            started = time.perf_counter()
            (runs,) = chain([lane(f"chain{len(chains)}")], None if chains else probe)
            if runs[-1].returncode != 0:
                break
            # start no chain that would end after the deadline, once there are enough
            now = time.perf_counter()
            if len(chains) >= MIN_CHAINS and now + (now - started) > deadline:
                break
        setup_s = statistics.median(probes)

    attempted = sum(len(runs) for runs in chains)
    failed = sum(r.returncode != 0 for runs in chains for r in runs)
    checks, info = check_outputs(python, env, workload, args.seed, base / "inputs", input_digest, out_dirs, failed)
    correct = all(checks.values())

    if args.trace:
        spec = PER_LAYER
        metrics = layer_metrics(traced, untraced, base / "traced" / "spans") if correct else {}
    else:
        spec = END_TO_END
        metrics = {"setup_s": setup_s}
        if correct:
            bounded = {name for name, _, _ in END_TO_END}
            for name, value in run_metrics(chains, workload.session_seconds).items():
                # stage times are printed but not bounded; see README.md
                (metrics if name in bounded else info)[name] = value

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "input_digest": input_digest,
        "source_digest": source_digest(),
        "checks": checks,
        "info": info,
        "error_rate": failed / attempted,
        "chains": [[asdict(r) for r in runs] for runs in chains],
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, unit, better in spec:
        if name in metrics:
            print(f"{name:45s} {metrics[name]:>14.6g} {unit:6s} ({better} is better)")
    for name, value in info.items():
        print(f"{name:45s} {value}")
    print(f"{'error_rate':45s} {failed}/{attempted}")
    print(f"{'input_digest':45s} {input_digest}")
    for name, ok in checks.items():
        print(f"check {name:39s} {'ok' if ok else 'FAILED'}")
    print(f"record {record_path.relative_to(ROOT)}")
    if not correct:
        bad = [name for name, ok in checks.items() if not ok]
        print(f"error: failed checks: {', '.join(bad)}", file=sys.stderr)
    units = {name: unit for name, unit, _ in spec}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
