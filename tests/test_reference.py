"""The `cli_workspace` chain against its committed reference outputs.

tests/reference/ holds each session's summaries.csv, coupling_report.csv,
report/reference_comparison.csv and anova.csv under the session and the
segment ANOVA unit, as the chain wrote them; its README gives the command
that regenerates them. Labels and integer cells must match
exactly and empty cells must stay empty; a float cell may move by 1e-9 of its
magnitude, far above BLAS and SIMD rounding (about 1e-15 relative) and far
below what any change to the analysis moves.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from speechmotion import cli
from speechmotion.errors import IncompleteSubjectWarning

REFERENCE = Path(__file__).parent / "reference"
SEGMENT_PARAMS = {"anova_unit": "segment", "segment_s": 30.0, "sphericity_correction": True}
REL_TOL = 1e-9


def chain_outputs(workspace: dict, scratch: Path) -> dict[str, Path]:
    """Reference file name -> the file the chain wrote; the segment-unit
    `stats` runs on a copy of the workspace's outputs under `scratch`."""
    out = workspace["out"]
    outputs = {f"{s['id']}_summaries.csv": out / s["id"] / "summaries.csv"
               for s in workspace["doc"]["sessions"]}
    outputs["anova.csv"] = out / "anova.csv"
    outputs["coupling_report.csv"] = out / "coupling_report.csv"
    outputs["reference_comparison.csv"] = out / "report" / "reference_comparison.csv"
    segment_out = scratch / "segment_out"
    shutil.copytree(out, segment_out)
    doc = {**workspace["doc"], "params": {**workspace["doc"]["params"], **SEGMENT_PARAMS}}
    config = workspace["base"] / "segment_config.json"
    config.write_text(json.dumps(doc, indent=2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IncompleteSubjectWarning)  # most runs miss a cell
        rc = cli.main([f"--config={config}", f"--out-dir={segment_out}", "stats"])
    assert rc == 0, "segment-unit stats failed"
    outputs["anova_segment.csv"] = segment_out / "anova.csv"
    return outputs


def _number(text: str) -> int | float | None:
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return None


def cell_differences(name: str, reference: Path, written: Path) -> list[str]:
    """Each cell of `written` that differs from `reference`, as `name:line:column`."""
    with open(reference, newline="") as fh:
        want = list(csv.reader(fh))
    with open(written, newline="") as fh:
        got = list(csv.reader(fh))
    if len(want) != len(got):
        return [f"{name}: {len(got)} lines, reference has {len(want)}"]
    header = want[0]
    diffs = []
    for line, (w_row, g_row) in enumerate(zip(want, got), start=1):
        if len(w_row) != len(g_row):
            diffs.append(f"{name}:{line}: {len(g_row)} cells, reference has {len(w_row)}")
            continue
        for col, (w, g) in enumerate(zip(w_row, g_row)):
            a, b = _number(w), _number(g)
            if isinstance(a, float) and isinstance(b, float):
                same = a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))
            else:  # labels, integers and empty cells
                same = w == g
            if not same:
                column = header[col] if col < len(header) else col
                diffs.append(f"{name}:{line}:{column}: {g!r}, reference {w!r}")
    return diffs


def test_chain_matches_its_reference_outputs(cli_workspace, tmp_path):
    outputs = chain_outputs(cli_workspace, tmp_path)
    assert sorted(outputs) == sorted(p.name for p in REFERENCE.glob("*.csv"))
    diffs = [d for name, path in outputs.items()
             for d in cell_differences(name, REFERENCE / name, path)]
    assert not diffs, "outputs differ from tests/reference:\n" + "\n".join(diffs)


def test_a_moved_float_or_label_is_a_difference(tmp_path):
    ref = tmp_path / "ref.csv"
    ref.write_text("region,mean,n,flag\nhead,1.0,3,\nmouth,2.5e-3,4,true\n")
    near = tmp_path / "near.csv"
    near.write_text("region,mean,n,flag\nhead,1.0000000001,3,\nmouth,0.0025,4,true\n")
    assert cell_differences("t", ref, near) == []
    far = tmp_path / "far.csv"
    far.write_text("region,mean,n,flag\nhead,1.00000001,3,0\nhands,0.0025,4.0,true\n")
    assert cell_differences("t", ref, far) == [
        "t:2:mean: '1.00000001', reference '1.0'",
        "t:2:flag: '0', reference ''",
        "t:3:region: 'hands', reference 'mouth'",
        "t:3:n: '4.0', reference '4'",
    ]


if __name__ == "__main__":
    # regenerate tests/reference from a fresh run of the chain
    from conftest import build_cli_workspace

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "cli_workspace"
        base.mkdir()
        workspace = build_cli_workspace(base)
        REFERENCE.mkdir(exist_ok=True)
        for name, path in chain_outputs(workspace, Path(tmp)).items():
            shutil.copyfile(path, REFERENCE / name)
            print(f"wrote {REFERENCE / name}", file=sys.stderr)
