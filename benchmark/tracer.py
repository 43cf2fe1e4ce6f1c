"""Layer spans for the traced benchmark run, recorded from outside the package.

A :class:`Tracer` wraps chosen public functions of ``speechmotion`` modules.
Each wrapper replaces every binding of the original function object across
the loaded ``speechmotion`` modules, so calls made inside the package (``cli``
importing ``read_feature_csv`` by name, ``prosody_features`` reaching
``f0_contour`` through module globals) are caught too. A span records its
name, start, end, parent and the exception type that ended it, if any. Spans
stay in memory and are written once, when the stage exits. Per-value helpers
such as ``frames.format_value`` are deliberately left unwrapped: their time
lands in the caller's self time.

The tracer keeps one span stack, so it assumes the single-threaded
``--jobs 1`` chain the benchmark runs.

Run as a script, this is the launcher for one traced stage::

    python benchmark/tracer.py SPANS.json --jobs 1 --config CFG align

It installs the wrappers, calls ``speechmotion.cli.main`` with the remaining
arguments, writes the spans to SPANS.json and exits with the CLI's code.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Layer:
    """One wrapped function: ``<module>.<function>`` within ``speechmotion``.

    `counters` maps a metric name to a function of (args, kwargs, result)
    whose value is added on every successful call. `memory` turns tracemalloc
    on for the span and records its peak under ``<name>.peak_mib``.
    """

    name: str
    counters: dict[str, Callable] = field(default_factory=dict)
    memory: bool = False


def _mib(nbytes: float) -> float:
    return nbytes / 2**20


LAYERS = (
    Layer("ingest.load_wav"),
    Layer(
        "ingest.load_markers",
        {"ingest.load_markers.mib": lambda a, k, r: _mib(os.path.getsize(a[0]))},
    ),
    Layer("ingest.load_emotion_frames"),
    Layer("ingest.load_transcript_intervals"),
    Layer("frames.write_feature_csv", {"frames.write_feature_csv.rows": lambda a, k, r: a[0].n_frames}),
    Layer("frames.read_feature_csv", {"frames.read_feature_csv.rows": lambda a, k, r: r.n_frames}),
    Layer(
        "speech_features.f0_contour",
        {"speech_features.frames": lambda a, k, r: r.n_frames},
        memory=True,
    ),
    Layer("speech_features.mfcc", memory=True),
    Layer("speech_features.rms_energy"),
    Layer("speech_features.fit_pca"),
    Layer("speech_features.apply_pca"),
    Layer("speech_features.temporal_derivatives"),
    Layer("timeline.align_session"),
    Layer("timeline.resample_linear"),
    Layer("timeline.rasterize_intervals"),
    Layer(
        "timeline.write_session_csv",
        {"timeline.write_session_csv.rows": lambda a, k, r: a[0].grid.n_frames},
    ),
    Layer("timeline.read_session_csv"),
    Layer("motion.displacement_magnitudes"),
    Layer("motion.region_activeness"),
    Layer("motion.condition_summaries"),
    Layer("coupling.coupling_report"),
    Layer("coupling.evaluate_mapping", {"coupling.evaluate_mapping.frames": lambda a, k, r: r.n_frames}),
    Layer("coupling.fit_ammse"),
    Layer("coupling.pearson_r"),
    Layer("coupling.bin_affect"),
    Layer("coupling.feature_set_track"),
    Layer("coupling.write_coupling_csv"),
    Layer("stats.rm_anova_two_way"),
    Layer("stats.design_from_summaries"),
    Layer("report.render_svg"),
    Layer("report.write_grid_csv"),
)


class Tracer:
    """Records nested spans around wrapped functions, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, error]
        self.counters: Counter = Counter()
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [layer.name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
            self.spans.append(span)
            self._stack.append(index)
            if layer.memory:
                tracemalloc.start()
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = self.clock()
                if layer.memory:
                    peak = _mib(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    key = f"{layer.name}.peak_mib"
                    self.peaks[key] = max(self.peaks.get(key, 0.0), peak)
                self._stack.pop()
            for metric, count in layer.counters.items():
                self.counters[metric] += count(args, kwargs, result)
            return result

        return wrapper

    def install(self, layers=LAYERS) -> None:
        """Replace every binding of each layer's function in ``speechmotion``."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "speechmotion" or n.startswith("speechmotion.")
        ]
        for layer in layers:
            module_name, attr = layer.name.rsplit(".", 1)
            original = getattr(sys.modules[f"speechmotion.{module_name}"], attr)
            wrapper = self.wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters), "peaks": self.peaks}


@dataclass
class LayerStats:
    self_s: float = 0.0
    calls: int = 0
    failed: int = 0


def summarize(doc: dict) -> tuple[dict[str, LayerStats], float]:
    """Per-layer self time, calls and failures, plus the time spans cover.

    Self time is a span's duration minus the time its direct children cover;
    covered time is the summed duration of spans that have no parent.
    """
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            child_s[parent] += end - start
    layers: dict[str, LayerStats] = {}
    covered = 0.0
    for i, (name, start, end, parent, error) in enumerate(spans):
        st = layers.setdefault(name, LayerStats())
        st.self_s += (end - start) - child_s[i]
        st.calls += 1
        st.failed += error is not None
        if parent is None:
            covered += end - start
    return layers, covered


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    from speechmotion import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
