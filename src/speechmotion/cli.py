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
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import coupling as coupling_mod
from . import ingest, motion, report, speech_features, stats, synth, timeline
from .errors import MissingUpstreamOutputError, PipelineError, ValidationError
from .frames import (
    FeatureTrack, FrameGrid, check_fields, read_feature_csv, read_json_object, write_feature_csv,
    write_json,
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
        ["prosody", "mfcc", "arousal", "valence"],
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
        ("id", "audio", "speech_features", "markers", "transcript", "emotion", "region_map",
         "speaker"),
        TEXT,
    ),
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
        if not p.exists():
            raise MissingUpstreamOutputError(f"config file not found: {p}")
        doc = read_json_object(p)
        try:
            return cls(doc, p.parent.resolve(), Path(out_dir) if out_dir else None)
        except ValidationError as exc:
            raise type(exc)(f"{p}: {exc}") from None

    def path(self, session: dict, key: str) -> Path:
        if key not in session:
            raise MissingUpstreamOutputError(f"session {session['id']!r} has no {key!r} input")
        p = self.base_dir / session[key]
        if not p.exists():
            raise MissingUpstreamOutputError(f"input file not found: {p}")
        return p

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
        if not path.exists():
            raise MissingUpstreamOutputError(f"region map not found: {path}")
        try:
            return motion.RegionMap.from_json(path)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"{path}: {exc}") from exc


def _for_each_session(fn, items: list, jobs: int) -> None:
    """Call `fn` on every session (or group of sessions), on up to `jobs` threads."""
    if jobs > 1 and len(items) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            list(pool.map(fn, items))
    else:
        for item in items:
            fn(item)


def _upstream(config: Config, session: dict, name: str, stage: str) -> Path:
    """`<out_dir>/<id>/<name>`, which `stage` writes; raise if it is missing."""
    path = config.out_dir / session["id"] / name
    if not path.exists():
        raise MissingUpstreamOutputError(
            f"{name} missing for session {session['id']!r}; run `{stage}` first (looked at {path})"
        )
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
        except ValidationError as exc:  # e.g. a pitch range the clip's rate cannot resolve
            raise type(exc)(f"{path}: {exc}") from None

    def features_for(group: list[dict]) -> None:
        # each clip is decoded once, and freed once its pre-PCA columns are made
        tracks = [pre_pca(s) for s in group]
        model = speech_features.fit_pca_pooled([spectral for _, spectral in tracks])
        for s, (prosody, spectral) in zip(group, tracks):
            track = speech_features.project_speech_features(prosody, spectral, model)
            out = config.session_dir(s)
            write_feature_csv(track, out / "features.csv")
            model.to_json(out / "pca_model.json")

    _for_each_session(features_for, groups, jobs)
    for s in sessions:
        print(f"features: wrote {config.session_dir(s) / 'features.csv'}")


def _speech_track_for(config: Config, session: dict):
    if "speech_features" in session:
        return read_feature_csv(config.path(session, "speech_features"))
    return read_feature_csv(_upstream(config, session, "features.csv", "features"))


def _native_activeness(config: Config, session: dict):
    markers = ingest.load_markers(config.path(session, "markers"))
    displacements = motion.displacement_magnitudes(markers)
    return motion.region_activeness(displacements, config.region_map_for(session))


def _align_one(config: Config, session: dict) -> None:
    speech = _speech_track_for(config, session)
    emotion = ingest.load_emotion_frames(config.path(session, "emotion"))
    activeness = _native_activeness(config, session)
    intervals = ingest.load_transcript_intervals(config.path(session, "transcript"))
    table = timeline.align_session(
        speech,
        emotion,
        activeness,
        intervals,
        target_speaker=session.get("speaker", "F"),
        target_rate_hz=config.params["target_rate_hz"],
    )
    out = config.session_dir(session)
    write_feature_csv(activeness, out / "activeness.csv")
    provenance = {
        "speech_rate_hz": speech.grid.rate_hz,
        "emotion_rate_hz": emotion.grid.rate_hz,
        "activeness_rate_hz": activeness.grid.rate_hz,
        "speech_rule": "decimate_alternate+linear"
        if timeline.decimates(speech.grid.rate_hz, config.params["target_rate_hz"])
        else "linear",
        "emotion_rule": "linear+nearest_category",
        "activeness_rule": "linear",
        "target_speaker": session.get("speaker", "F"),
    }
    timeline.write_session_csv(table, out / "aligned.csv", out / "aligned.meta.json", provenance)


def cmd_align(config: Config, jobs: int = 1) -> None:
    _for_each_session(lambda s: _align_one(config, s), config.sessions, jobs)
    for s in config.sessions:
        print(f"align: wrote {config.session_dir(s) / 'aligned.csv'} and activeness.csv")


def _table_paths(config: Config, session: dict) -> tuple[Path, Path]:
    return (
        _upstream(config, session, "aligned.csv", "align"),
        _upstream(config, session, "aligned.meta.json", "align"),
    )


def cmd_activeness(config: Config) -> None:
    for session in config.sessions:
        table = timeline.read_session_csv(*_table_paths(config, session))
        cells = motion.condition_summaries(
            table.block("activeness"), table, min_frames=config.params["min_cell_frames"]
        )
        out = config.session_dir(session)
        motion.write_summary_csv(cells, out / "summaries.csv")
        print(f"activeness: wrote {out / 'summaries.csv'}")


def cmd_map(config: Config) -> None:
    params = config.params
    # every table must exist before any is read, and nothing is written until all fit
    paths = [_table_paths(config, s) for s in config.sessions]
    maps = []  # (path, AffineMap) for every session and feature set

    def read_and_fit(session: dict, csv_path: Path, meta_path: Path) -> timeline.SessionTable:
        table = timeline.read_session_csv(csv_path, meta_path)
        idx = np.flatnonzero(motion.condition_mask(table, "all"))
        y = _mask_track(table.block("activeness"), idx)
        for fs in params["feature_sets"]:
            x = coupling_mod.feature_set_track(table, fs, params["affect_derivatives"])
            fitted = coupling_mod.fit_ammse(_mask_track(x, idx), y, ridge_eps=params["ridge_eps"])
            maps.append((config.out_dir / session["id"] / f"affine_{fs}.json", fitted))
        return table

    cells = coupling_mod.coupling_report(
        (read_and_fit(s, *p) for s, p in zip(config.sessions, paths)),
        feature_sets=tuple(params["feature_sets"]),
        protocol=params["protocol"],
        n_folds=params["n_folds"],
        ridge_eps=params["ridge_eps"],
        bin_policy=params["bin_policy"],
        affect_derivatives=params["affect_derivatives"],
    )
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
    print(f"map: wrote {config.out_dir / 'coupling_report.csv'}")


def _mask_track(track, idx):
    grid = FrameGrid(rate_hz=track.grid.rate_hz, start_s=0.0, n_frames=len(idx))
    return FeatureTrack(grid, track.columns, track.values[idx])


def cmd_stats(config: Config) -> None:
    params = config.params
    drop = params["drop_incomplete_subjects"]
    # the unit only decides where each region's design comes from; it is
    # built inside the loop below, so its errors name the region too
    designs = {}
    if params["anova_unit"] == "segment":
        rows_by_region: dict[str, list] = {}
        for session in config.sessions:
            table = timeline.read_session_csv(*_table_paths(config, session))
            for region in table.block("activeness").columns:
                rows_by_region.setdefault(region, []).extend(
                    stats.segment_design_rows(
                        table, region, session["id"], segment_s=params["segment_s"]
                    )
                )
        for region, rows in rows_by_region.items():
            designs[region] = functools.partial(stats.RmDesign.from_rows, rows, drop)
    else:
        session_cells = {
            s["id"]: motion.read_summary_csv(_upstream(config, s, "summaries.csv", "activeness"))
            for s in config.sessions
        }
        for c in next(iter(session_cells.values()), []):
            designs[c.region] = functools.partial(
                stats.design_from_summaries, session_cells, c.region, drop
            )
    results: dict[str, stats.AnovaResult] = {}
    for region, design in designs.items():
        try:
            results[region] = stats.rm_anova_two_way(
                design(), sphericity_correction=params["sphericity_correction"]
            )
        except PipelineError as exc:
            raise type(exc)(f"region {region!r}: {exc}") from exc
    stats.write_anova_csv(results, config.out_dir / "anova.csv")
    print(f"stats: wrote {config.out_dir / 'anova.csv'}")


def cmd_synth(spec_path: str, out_dir: str, seed_override: int | None = None) -> None:
    p = Path(spec_path)
    if not p.exists():
        raise MissingUpstreamOutputError(f"spec file not found: {p}")
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
    except (TypeError, ValueError, ValidationError) as exc:
        raise ValidationError(f"{p}: bad synthesis spec: {exc}") from exc
    synth.write_session_dir(spec, out_dir, emit_tone_wav=emit_tone)
    print(f"synth: wrote session to {out_dir}")


def cmd_report(config: Config) -> None:
    out = config.out_dir / "report"
    out.mkdir(parents=True, exist_ok=True)

    session_cells = {}
    for session in config.sessions:
        path = config.out_dir / session["id"] / "summaries.csv"
        if path.exists():
            session_cells[session["id"]] = motion.read_summary_csv(path)
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
    protocol = coupling_mod.protocol_label(config.params["protocol"], config.params["n_folds"])
    rows = report.reference_comparison_rows(coupling_cells, anova_results, protocol)
    report.write_comparison_csv(rows, out / "reference_comparison.csv")
    print(f"report: wrote grids and comparison tables to {out}")


STAGES = {  # every stage command; `features` and `align` also take the --jobs count
    "features": cmd_features, "align": cmd_align, "activeness": cmd_activeness,
    "map": cmd_map, "stats": cmd_stats, "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechmotion",
        description="Speech-to-motion coupling analysis pipeline.",
    )
    parser.add_argument("--config", help="session config JSON")
    parser.add_argument("--out-dir", help="override the config's output directory")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sessions")
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            out_dir = args.out_dir or "synth_session"
            cmd_synth(args.spec, out_dir, seed_override=args.seed)
            return 0
        if not args.config:
            raise ValidationError(f"`{args.command}` requires --config")
        config = Config.load(args.config, out_dir=args.out_dir)
        config.out_dir.mkdir(parents=True, exist_ok=True)
        handler = STAGES[args.command]
        if handler in (cmd_features, cmd_align):
            handler(config, args.jobs)
        else:
            handler(config)
        return 0
    except PipelineError as exc:
        if args.error_json:
            payload = {"error": type(exc).__name__, "message": str(exc)}
            print(json.dumps(payload), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
