"""The benchmark's workloads and the digest of a file tree.

This module uses the standard library only, so ``run.py`` can import it in
an interpreter that lacks the package's dependencies. The inputs themselves
are written by ``corpus.py``, which runs as a child process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One benchmark corpus and the stage parameters it runs with."""

    name: str
    n_sessions: int
    duration_s: float
    spec_overrides: dict
    params: dict
    audio: bool
    profile: str | None = None

    @property
    def session_seconds(self) -> float:
        """Recorded seconds analysed: clip duration for audio, track duration otherwise."""
        return self.n_sessions * self.duration_s


WORKLOADS = {
    # Long clips: f0_contour cost, the features memory peak, large
    # features.csv / aligned.csv writes and dense marker parsing. The
    # generator's markers are random walks; at the default signal_scale of
    # 0.5 about one 300 s session in twenty walks past the 2 m plausibility
    # bound of MarkerTrack and cannot be generated. Half the step keeps every
    # walk far inside it and leaves theoretical_r unchanged.
    "audio_long": Workload(
        name="audio_long",
        n_sessions=2,
        duration_s=300.0,
        spec_overrides={"markers_per_region": 3, "signal_scale": 0.25},
        params={"trim_head_s": 0.0, "pca_scope": "session"},
        audio=True,
    ),
    # Short pooled clips under the IEMOCAP profile: MFCC-dominated features,
    # corpus PCA (every clip loaded twice), small marker files. Runnable by
    # name; left out of BENCHMARK.json to fit its run budget (see README.md).
    "audio_pooled": Workload(
        name="audio_pooled",
        n_sessions=8,
        duration_s=75.0,
        spec_overrides={"markers_per_region": 1},
        params={"pca_scope": "corpus"},
        audio=True,
        profile="iemocap",
    ),
    # Many short sessions entering through the synthetic feature CSV: no audio
    # front end, coupling-dominated map, and a closed-form answer per region.
    "oracle_many": Workload(
        name="oracle_many",
        n_sessions=16,
        duration_s=90.0,
        spec_overrides={"n_regions": 4, "markers_per_region": 1},
        params={
            "n_folds": 10,
            "feature_sets": ["all", "prosody", "mfcc", "arousal", "valence"],
        },
        audio=False,
    ),
}


def tree_digest(root: Path, suffixes: tuple[str, ...] | None = None) -> str:
    """sha256 over the relative paths and bytes of every file under `root`."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if not p.is_file() or (suffixes and p.suffix not in suffixes):
            continue
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        file_hash = hashlib.sha256()
        with open(p, "rb") as fh:
            while chunk := fh.read(1 << 20):
                file_hash.update(chunk)
        h.update(file_hash.digest())
    return h.hexdigest()
