#!/usr/bin/env python3
"""Compare two run records written by run.py to .bench/results/.

    python3 benchmark/compare.py BEFORE.json AFTER.json

The records must come from the same workload, trace mode and generated
inputs (equal input digests); otherwise the comparison is refused with exit
code 2, because a writer change in the package changes the inputs. The
output says whether the analysis outputs are byte-identical and lists each
metric of both records with the relative change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    for key in ("workload", "trace", "input_digest"):
        if before[key] != after[key]:
            print(
                f"error: records differ in {key} ({before[key]} vs {after[key]}); refusing to compare",
                file=sys.stderr,
            )
            return 2
    same = before["info"].get("output_digest") == after["info"].get("output_digest")
    print(f"outputs byte-identical: {'yes' if same else 'no'}")
    for name, old in before["metrics"].items():
        new = after["metrics"].get(name)
        if new is None:
            print(f"{name:45s} {old:>14.6g} {'missing':>14s}")
            continue
        change = f"{(new - old) / old:+.1%}" if old else "n/a"
        print(f"{name:45s} {old:>14.6g} {new:>14.6g} {change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
