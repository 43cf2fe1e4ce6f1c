"""Batch command-line front end.

Subcommands mirror the pipeline stages: `features` (audio -> 18-column
speech features), `align` (all modalities -> one session table, plus the
native-rate region activeness), `activeness` (session table -> condition
summaries), `map` (AMMSE fits and
the coupling report), `stats` (repeated-measures ANOVA), `synth` (generate a
verification session) and `report` (heatmap grids, SVGs and reference
comparison tables). Every command is deterministic for identical inputs.

Exit codes: 0 success, 2 validation error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import sys
import warnings
from pathlib import Path

from . import coupling as coupling_mod
from . import ingest, motion, report, speech_features, stats, synth, timeline
from .errors import (
    DataError, IncompleteSubjectError, MissingUpstreamOutputError, PipelineError,
    SkippedSessionWarning, ValidationError,
)
from .frames import (
    check_fields, read_feature_csv, read_json_object, write_feature_csv, write_json,
)


def _one_of(values: tuple) -> tuple:
    return (lambda v: v in values, " or ".join(map(repr, values)))


_MAX = sys.float_info.max  # a number is a JSON int or float, not a bool, that a float holds
POSITIVE = (lambda v: type(v) in (int, float) and 0 < v <= _MAX, "a positive finite number")
NON_NEGATIVE = (lambda v: type(v) in (int, float) and 0 <= v <= _MAX, "a finite number >= 0")
FLAG = (lambda v: type(v) is bool, "true or false")
TEXT = (lambda v: type(v) is str and v != "", "a non-empty string")

# each stage parameter -> (default, rule, wording of a valid value), checked on load
PARAMS = {
    "target_rate_hz": (timeline.SESSION_RATE_HZ, *POSITIVE),
    "trim_head_s": (4.0, *NON_NEGATIVE),
    "pca_scope": ("session", *_one_of(("session", "corpus"))),
    "ridge_eps": (1e-8, *NON_NEGATIVE),
    "protocol": ("k_fold", *_one_of(coupling_mod.PROTOCOLS)),
    "n_folds": (5, lambda v: type(v) is int and v >= 2, "an integer >= 2"),
    "bin_policy": ("median_split", *_one_of(coupling_mod.BIN_POLICIES)),
    "affect_derivatives": (True, *FLAG),
    "min_cell_frames": (30, lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "anova_unit": ("session", *_one_of(("session", "segment"))),
    "segment_s": (10.0, *POSITIVE),
    "sphericity_correction": (False, *FLAG),
    "drop_incomplete_subjects": (True, *FLAG),
    "feature_sets": (
        list(coupling_mod.DEFAULT_FEATURE_SETS),
        lambda v: type(v) is list and v != []
        and all(f in coupling_mod.FEATURE_SETS for f in v) and len(set(v)) == len(v),
        f"a non-empty list of distinct names from {list(coupling_mod.FEATURE_SETS)}",
    ),
    "f0_min_hz": (50.0, *POSITIVE),
    "f0_max_hz": (500.0, *POSITIVE),
}

# The IEMOCAP convention, the one profile: the left-positioned speaker sits on
# the front-left channel in session 1 and front-right in sessions 2-5.
IEMOCAP_CHANNELS = {1: "left", 2: "right", 3: "right", 4: "right", 5: "right"}

CONFIG_FIELDS = {
    "out_dir": TEXT,
    "profile": _one_of(("iemocap",)),
    "params": (lambda v: type(v) is dict, "an object"),
    "sessions": (
        lambda v: type(v) is list and all(type(s) is dict for s in v), "a list of objects"
    ),
}
SESSION_FIELDS = {
    **dict.fromkeys(
        ("id", "audio", "speech_features", "markers", "transcript", "emotion", "region_map"),
        TEXT,
    ),
    "speaker": (ingest.is_speaker, ingest.SPEAKER_WORDING),
    "channel": _one_of((ingest.CHANNEL_LEFT, ingest.CHANNEL_RIGHT)),
    "session_index": (lambda v: type(v) is int and v in IEMOCAP_CHANNELS, "an integer 1 to 5"),
}


class Config:
    """Validated session configuration plus resolved stage parameters."""

    def __init__(self, doc: dict, base_dir: Path, out_dir: Path | None = None):
        check_fields(doc, CONFIG_FIELDS, "")
        self.base_dir = base_dir
        self.profile = doc.get("profile")
        self.params = {**{k: d for k, (d, *_) in PARAMS.items()}, **doc.get("params", {})}
        check_fields(self.params, PARAMS, "params")
        if not self.params["f0_min_hz"] < self.params["f0_max_hz"]:
            raise ValidationError("params.f0_min_hz must be below params.f0_max_hz; got "
                                  "{f0_min_hz!r} and {f0_max_hz!r}".format(**self.params))
        self.sessions = doc.get("sessions", [])
        for i, session in enumerate(self.sessions):
            check_fields(session, SESSION_FIELDS, f"sessions[{i}]", required=("id",))
        ids = [s["id"] for s in self.sessions]
        repeated = sorted({sid for sid in ids if ids.count(sid) > 1})
        if repeated:
            raise ValidationError(f"sessions: ids must be unique; got {repeated} more than once")
        self.out_dir = Path(out_dir) if out_dir else base_dir / doc.get("out_dir", "out")

    @classmethod
    def load(cls, path: str, out_dir: str | None = None) -> "Config":
        p = Path(path)
        doc = read_json_object(p)
        try:
            return cls(doc, p.parent.resolve(), Path(out_dir) if out_dir else None)
        except ValidationError as exc:
            raise type(exc)(f"{p}: {exc}") from None

    def path(self, session: dict, key: str) -> Path:
        if key not in session:
            raise MissingUpstreamOutputError(f"no {key!r} input")
        return self.base_dir / session[key]

    def session_dir(self, session: dict) -> Path:
        d = self.out_dir / session["id"]
        d.mkdir(parents=True, exist_ok=True)
        return d

    def channel_for(self, session: dict) -> str:
        by_index = IEMOCAP_CHANNELS if self.profile else {}
        return session.get("channel", by_index.get(session.get("session_index"), "left"))

    def region_map_for(self, session: dict):
        ref = session.get("region_map", "default")
        if ref == "default":
            return motion.default_region_map()
        path = self.base_dir / ref
        try:
            return motion.RegionMap.from_json(path)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def _unopenable(exc: OSError) -> DataError:
    """A file the OS cannot open or write (missing, a directory, unreadable), as
    a data error naming it: `<path>: <reason>`."""
    return DataError(f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc))


def _for_each_session(step, items: list, jobs: int = 1):
    """`step`'s result for each session (or group of sessions), in config order.

    The one per-session loop, and the one place that names a session: a
    PipelineError from `step`, or an OSError as :func:`_unopenable` words it,
    is re-raised as `session '<id>': <message>`, a group naming every id in
    it. `jobs` > 1 runs the steps on threads.
    """
    def named(item):
        try:
            return step(item)
        except (PipelineError, OSError) as exc:
            ids = ", ".join(repr(s["id"]) for s in (item if type(item) is list else [item]))
            error = _unopenable(exc) if isinstance(exc, OSError) else exc
            raise type(error)(f"session {ids}: {error}") from exc

    if jobs > 1 and len(items) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(named, items)
    else:
        yield from map(named, items)


def _upstream(config: Config, session: dict, name: str, stage: str) -> Path:
    """`<out_dir>/<id>/<name>`, which `stage` writes; raise if it is missing."""
    path = config.out_dir / session["id"] / name
    if not path.exists():
        raise MissingUpstreamOutputError(f"{name} missing; run `{stage}` first (looked at {path})")
    return path


def cmd_features(config: Config, jobs: int = 1) -> None:
    sessions = [s for s in config.sessions if "audio" in s]
    if not sessions:
        return
    f0_range = {"fmin": config.params["f0_min_hz"], "fmax": config.params["f0_max_hz"]}
    trim_s = config.params["trim_head_s"]
    # one PCA model per group: the whole corpus, or each session on its own
    groups = [sessions] if config.params["pca_scope"] == "corpus" else [[s] for s in sessions]

    def pre_pca(session: dict):
        path = config.path(session, "audio")
        clip = ingest.load_wav(path, channel=config.channel_for(session))
        try:
            return speech_features.pre_pca_tracks(ingest.trim_head(clip, trim_s), **f0_range)
        except PipelineError as exc:  # e.g. a trim longer than the clip
            raise type(exc)(f"{path}: {exc}") from None

    def features_for(group: list[dict]):
        # each clip is decoded once, and its pre-PCA columns freed once projected
        tracks = [pre_pca(s) for s in group]
        model = speech_features.fit_pca(*(spectral for _, spectral in tracks))
        project = speech_features.project_speech_features
        return model, [project(*tracks.pop(0), model) for _ in group]

    # written in config order as the groups come back, so a failed group
    # stops every write after it, on threads as on one; each track is freed
    # once written, before the next group is computed
    for group, (model, projected) in zip(groups, _for_each_session(features_for, groups, jobs)):
        for s in group:
            out = config.session_dir(s)
            write_feature_csv(projected.pop(0), out / "features.csv", memo=True)
            model.to_json(out / "pca_model.json")
    for s in sessions:
        print(f"features: wrote {config.session_dir(s) / 'features.csv'}")


def _speech_track_for(config: Config, session: dict):
    if "speech_features" in session:
        return read_feature_csv(config.path(session, "speech_features"))
    return read_feature_csv(_upstream(config, session, "features.csv", "features"))


def _native_activeness(config: Config, session: dict):
    return ingest.load_marker_activeness(
        config.path(session, "markers"), config.region_map_for(session)
    )


def _align_one(config: Config, session: dict) -> Path:
    speech = _speech_track_for(config, session)
    emotion = ingest.load_emotion_frames(config.path(session, "emotion"))
    activeness = _native_activeness(config, session)
    intervals = ingest.load_transcript_intervals(config.path(session, "transcript"))
    table = timeline.align_session(
        speech, emotion, activeness, intervals,
        target_speaker=session.get("speaker", "F"), target_rate_hz=config.params["target_rate_hz"],
    )
    out = config.session_dir(session)
    write_feature_csv(activeness, out / "activeness.csv")
    timeline.write_session_csv(table, out / "aligned.csv", out / "aligned.meta.json")
    return out


def cmd_align(config: Config) -> None:
    for out in _for_each_session(lambda s: _align_one(config, s), config.sessions):
        print(f"align: wrote {out / 'aligned.csv'} and activeness.csv")


def _table_paths(config: Config, session: dict) -> tuple[Path, Path]:
    return (
        _upstream(config, session, "aligned.csv", "align"),
        _upstream(config, session, "aligned.meta.json", "align"),
    )


def _read_table(config: Config, session: dict) -> timeline.SessionTable:
    return timeline.read_session_csv(*_table_paths(config, session))


def _session_summaries(config: Config) -> dict[str, list[motion.SummaryCell]]:
    """Each session's summaries.csv, which `activeness` writes; raise if one is missing."""
    def read(session: dict) -> list[motion.SummaryCell]:
        return motion.read_summary_csv(_upstream(config, session, "summaries.csv", "activeness"))

    return dict(zip([s["id"] for s in config.sessions], _for_each_session(read, config.sessions)))


def cmd_activeness(config: Config) -> None:
    def summarise(session: dict) -> Path:
        [cells] = motion.condition_summaries(
            _read_table(config, session), min_frames=config.params["min_cell_frames"]
        )
        path = config.session_dir(session) / "summaries.csv"
        motion.write_summary_csv(cells, path)
        return path

    for path in _for_each_session(summarise, config.sessions):
        print(f"activeness: wrote {path}")


def cmd_map(config: Config) -> None:
    params = config.params
    options = {key: params[key] for key in (
        "feature_sets", "protocol", "n_folds", "ridge_eps", "bin_policy", "affect_derivatives"
    )}
    # every table must exist before any is read, and nothing is written until all fit
    list(_for_each_session(lambda s: _table_paths(config, s), config.sessions))
    maps = []  # (path, AffineMap) for every session and feature set it can fit
    # the affine_<set>.json of every session and feature set it cannot fit or
    # this run does not fit
    stale = [config.out_dir / s["id"] / f"affine_{fs}.json" for s in config.sessions
             for fs in coupling_mod.FEATURE_SETS if fs not in params["feature_sets"]]

    def evaluate_one(session: dict) -> dict:
        evaluations = coupling_mod.evaluate_session(_read_table(config, session), **options)
        for fs in params["feature_sets"]:
            ev = evaluations[fs, "all", "all"]
            path = config.out_dir / session["id"] / f"affine_{fs}.json"
            if isinstance(ev, coupling_mod.MappingEvaluation):
                maps.append((path, ev.fit))
            else:
                stale.append(path)
                warnings.warn(f"session {session['id']!r}: feature set {fs!r} skipped, no "
                              f"affine_{fs}.json written: {ev}", SkippedSessionWarning)
        return evaluations

    # one session's evaluations are held at a time
    cells = coupling_mod.coupling_cells(_for_each_session(evaluate_one, config.sessions))
    coupling_mod.write_coupling_csv(cells, config.out_dir / "coupling_report.csv")
    write_json(config.out_dir / "coupling_report.meta.json", {
        "protocol": coupling_mod.protocol_label(params["protocol"], params["n_folds"]),
        "ridge_eps": params["ridge_eps"],
        "target": "region_mean_activeness",
        "pooled_dyads": False,
        "bin_policy": params["bin_policy"],
        "affect_derivatives": params["affect_derivatives"],
        "n_sessions": len(config.sessions),
    })
    for path, fitted in maps:
        fitted.to_json(path)
    for path in stale:  # an earlier run's map is not this run's
        path.unlink(missing_ok=True)
    print(f"map: wrote {config.out_dir / 'coupling_report.csv'}")


def cmd_stats(config: Config) -> None:
    params = config.params
    # subject -> condition summaries: each session's, or each segment_s run's
    if params["anova_unit"] == "segment":
        def segment_cells(session: dict) -> dict[str, list[motion.SummaryCell]]:
            runs = motion.condition_summaries(
                _read_table(config, session), params["min_cell_frames"], params["segment_s"]
            )
            return {f"{session['id']}:seg{k}": cells for k, cells in enumerate(runs)}

        subject_cells = {}
        for cells in _for_each_session(segment_cells, config.sessions):
            subject_cells.update(cells)
    else:
        subject_cells = _session_summaries(config)
    # every region any subject has, in order of first appearance, as `report` shows them
    regions = dict.fromkeys(c.region for cells in subject_cells.values() for c in cells)
    results: dict[str, stats.AnovaResult] = {}
    for region in regions:
        try:
            design = stats.design_from_summaries(
                subject_cells, region, params["drop_incomplete_subjects"]
            )
            results[region] = stats.rm_anova_two_way(
                design, sphericity_correction=params["sphericity_correction"]
            )
        except PipelineError as exc:
            hint = ("; set params.drop_incomplete_subjects to true to drop them"
                    if isinstance(exc, IncompleteSubjectError) else "")
            raise type(exc)(f"region {region!r}: {exc}{hint}") from exc
    stats.write_anova_csv(results, config.out_dir / "anova.csv")
    print(f"stats: wrote {config.out_dir / 'anova.csv'}")


def cmd_synth(spec_path: str, out_dir: str, seed_override: int | None = None) -> None:
    p = Path(spec_path)
    doc = read_json_object(p)
    if seed_override is not None:
        doc["seed"] = seed_override
    emit_tone = doc.pop("emit_tone_wav", False)
    if type(emit_tone) is not bool:
        raise ValidationError(f"{p}: emit_tone_wav must be true or false; got {emit_tone!r}")
    try:
        if "regions" in doc:
            regions = doc.pop("regions")
            if type(regions) is not dict or not all(type(rc) is dict for rc in regions.values()):
                raise ValidationError(f"regions must be an object of objects; got {regions!r}")
            spec = synth.SynthSpec(
                regions={name: synth.RegionCoupling(**rc) for name, rc in regions.items()}, **doc
            )
        else:
            spec = synth.default_spec(**doc)
        synth.write_session_dir(spec, out_dir, emit_tone_wav=emit_tone)
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{p}: bad synthesis spec: {exc}") from exc
    print(f"synth: wrote session to {out_dir}")


def cmd_report(config: Config) -> None:
    out = config.out_dir / "report"
    out.mkdir(parents=True, exist_ok=True)

    session_cells = {}
    # once any session has summaries every session must, as `stats` requires
    if any((config.out_dir / s["id"] / "summaries.csv").exists() for s in config.sessions):
        session_cells = _session_summaries(config)
    coupling_path = config.out_dir / "coupling_report.csv"
    coupling_cells = (
        coupling_mod.read_coupling_csv(coupling_path) if coupling_path.exists() else None
    )
    if not session_cells and coupling_cells is None:
        raise MissingUpstreamOutputError(
            f"nothing to report: no summaries under {config.out_dir} and no "
            f"{coupling_path}"
        )

    if session_cells:
        grid = report.activeness_grid(session_cells)
        report.write_grid_csv(grid, out / "activeness_grid.csv")
        report.render_svg(grid, out / "activeness_grid.svg")
    if coupling_cells:
        grid = report.coupling_grid(
            coupling_cells, feature_sets=tuple(config.params["feature_sets"])
        )
        report.write_grid_csv(grid, out / "coupling_grid.csv")
        report.render_svg(grid, out / "coupling_grid.svg")

    anova_path = config.out_dir / "anova.csv"
    anova_results = stats.read_anova_csv(anova_path) if anova_path.exists() else None
    if coupling_cells is None:
        protocol = coupling_mod.protocol_label(config.params["protocol"], config.params["n_folds"])
    else:  # the protocol `map` recorded beside its report, whatever the config says now
        meta_path = config.out_dir / "coupling_report.meta.json"
        protocol = read_json_object(meta_path).get("protocol")
        if type(protocol) is not str:
            raise ValidationError(f"{meta_path}: protocol must be a string; got {protocol!r}")
    rows = report.reference_comparison_rows(coupling_cells, anova_results, protocol)
    report.write_comparison_csv(rows, out / "reference_comparison.csv")
    print(f"report: wrote grids and comparison tables to {out}")


STAGES = {  # every stage command; `features` also takes the --jobs count
    "features": cmd_features, "align": cmd_align, "activeness": cmd_activeness,
    "map": cmd_map, "stats": cmd_stats, "report": cmd_report,
}


class _ArgumentError(Exception):
    """An argument error: (the parser or subparser that met it, argparse's message)."""


class _Parser(argparse.ArgumentParser):
    """argparse's parser, whose argument errors `main` words (its subparsers
    are of this class too)."""

    def error(self, message: str):
        raise _ArgumentError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="speechmotion",
        description="Speech-to-motion coupling analysis pipeline.",
        allow_abbrev=False,  # one spelling per flag, as main's `--error-json` check reads it
    )
    parser.add_argument("--config", help="session config JSON")
    parser.add_argument("--out-dir", help="override the config's output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sessions (features only)")
    parser.add_argument("--seed", type=int, default=None, help="seed override (synth)")
    parser.add_argument(
        "--error-json",
        action="store_true",
        help="emit machine-readable error JSON on stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        sub.add_parser(name)
    synth_p = sub.add_parser("synth")
    synth_p.add_argument("spec", help="synthesis spec JSON")
    return parser


def _report_error(error: PipelineError, error_json: bool) -> int:
    """Print `error` on stderr, as text or as one JSON line; return its exit code."""
    if error_json:
        print(json.dumps({"error": type(error).__name__, "message": str(error)}), file=sys.stderr)
    else:
        print(f"error: {error}", file=sys.stderr)
    return error.exit_code


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
    except _ArgumentError as exc:
        if "--error-json" not in argv:
            argparse.ArgumentParser.error(*exc.args)  # argparse's usage text, and exit 2
        return _report_error(ValidationError(exc.args[1]), error_json=True)
    try:
        if args.jobs < 1:
            raise ValidationError(f"--jobs must be an integer >= 1; got {args.jobs}")
        if args.command == "synth":
            out_dir = args.out_dir or "synth_session"
            cmd_synth(args.spec, out_dir, seed_override=args.seed)
            return 0
        if not args.config:
            raise ValidationError(f"`{args.command}` requires --config")
        config = Config.load(args.config, out_dir=args.out_dir)
        if not config.sessions:
            raise ValidationError(f"{args.config}: sessions is empty; `{args.command}` needs one")
        config.out_dir.mkdir(parents=True, exist_ok=True)
        if args.command == "features":
            cmd_features(config, args.jobs)
        else:
            STAGES[args.command](config)
        return 0
    except (PipelineError, OSError) as exc:  # OSError: a config, spec or output path
        error = _unopenable(exc) if isinstance(exc, OSError) else exc
        return _report_error(error, args.error_json)


if __name__ == "__main__":
    sys.exit(main())
