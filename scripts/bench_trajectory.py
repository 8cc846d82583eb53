#!/usr/bin/env python3
"""Print the change-side medians of recorded benchmark pairs, file by file.

Reads the ``BENCH_pr<N>.json`` files that ``scripts/bench_pairs.py`` wrote
(by default every one at the root of the repository, in order of N) and,
per workload, prints one row per file: the change side's median of each
end-to-end metric that BENCHMARK.json lists.  A metric a file lacks prints
as ``-``.  Only the standard library is used:

    python3 scripts/bench_trajectory.py [BENCH_pr12.json BENCH_pr13.json ...]
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pr_number(path: Path) -> int:
    match = re.search(r"(\d+)", path.stem)
    return int(match.group(1)) if match else -1


def trajectory(paths: list[Path]) -> dict[str, list[tuple[str, dict[str, float]]]]:
    """Per workload, in order of first appearance: (file stem, change-side
    median of each summarized metric) for each file, in order of PR number."""
    out: dict[str, list[tuple[str, dict[str, float]]]] = {}
    for path in sorted(paths, key=pr_number):
        pairs = json.loads(path.read_text())["pairs"]
        for workload, entry in pairs.items():
            medians = {name: s["change_median"] for name, s in entry["summary"].items()}
            out.setdefault(workload, []).append((path.stem, medians))
    return out


def format_table(rows: list[tuple[str, dict[str, float]]], metrics: list[str]) -> str:
    width = max(len(stem) for stem, _ in rows)
    lines = ["  ".join([f"{'file':<{width}}", *(f"{m:>14}" for m in metrics)])]
    for stem, medians in rows:
        cells = [f"{medians[m]:>14.4g}" if m in medians else f"{'-':>14}" for m in metrics]
        lines.append("  ".join([f"{stem:<{width}}", *cells]))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path,
                        help="bench_pairs output files (default: BENCH_pr*.json at the root)")
    args = parser.parse_args(argv)
    paths = args.files or list(ROOT.glob("BENCH_pr*.json"))
    if not paths:
        sys.exit("no BENCH_pr*.json files")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    for i, (workload, rows) in enumerate(trajectory(paths).items()):
        print(("\n" if i else "") + workload)
        print(format_table(rows, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
