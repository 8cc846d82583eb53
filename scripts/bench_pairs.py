#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

For every workload that BENCHMARK.json lists, runs its command untraced
(``--trace 0``) in a parent and a change checkout, one run at a time, in
``--pairs`` pairs on seeds ``--first-seed``, ``--first-seed`` + 1, ...; the
side that runs first alternates from pair to pair.  It keeps each run's
last-line JSON and, per end-to-end metric, both sides' medians and
quartiles and the number of pairs the change won (ties count for neither
side).  Next to each checkout's commit it records a SHA-256 over its
``src/``, which ties a record to its code where the commit is unknown.
It also keeps the full seed-1 report of each side, untraced and
traced, as the benchmark writes it under ``.perfbench_out/``, and sets
each per-layer count metric of the two traced reports side by side under
``pairs[workload]["counts"]``.  The summary of ``peak_rss_mb`` also
holds, per side, a least-squares fit of that metric against the ops the
run attempted (``fit``: slope in KB per op, intercept in MB), since a
fixed-length run's peak RSS grows with the ops it completes.  The
benchmark scales its times by a host clock; each untraced run's row also
keeps the measured ``raw.op_ms_p50`` from its report, summarized like the
scaled metrics, with ``opposite_pairs``: the pairs whose raw and scaled
``op_ms_p50`` rank parent and change oppositely.  Everything goes into one
JSON file:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --out BENCH_change.json --pairs 10 --first-seed 101

A run that exits nonzero, computes a wrong result or fails an operation
stops the script with a message; no such run is summarized.

Only the standard library is used.  Both checkouts must hold the program
and the benchmark; the command, run length, workloads and metrics come
from this repository's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_SEED = 1
RAW = {"name": "raw.op_ms_p50", "better": "lower"}  # the unscaled op_ms_p50


def run(checkout: Path, command: list[str], workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One benchmark run; its last stdout line, parsed.  Exits unless the run
    finished, computed correct results and failed no operation."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=checkout, capture_output=True, text=True)
    where = f"{checkout}: {' '.join(args)}"
    if proc.returncode != 0:
        sys.exit(f"{where} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{where} printed nothing:\n{proc.stderr}")
    last = json.loads(lines[-1])
    if not last["correct"] or last["failed"]:
        sys.exit(f"{where}: correct={last['correct']}, {last['failed']} of "
                 f"{last['attempted']} operations failed")
    return last


def report(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    path = checkout / ".perfbench_out" / f"report-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def commit(checkout: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def src_hash(checkout: Path) -> str:
    """SHA-256 over the checkout's ``src/``: for each file, in sorted order of
    its path relative to ``src/``, that path, the file's length and its
    bytes.  Bytecode caches (``__pycache__``) are left out, so running the
    code keeps the hash."""
    src = checkout / "src"
    files = sorted(
        (p.relative_to(src).as_posix(), p)
        for p in src.rglob("*")
        if p.is_file() and "__pycache__" not in p.parts
    )
    h = hashlib.sha256()
    for rel, path in files:
        data = path.read_bytes()
        h.update(f"{rel}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, and the pairs the change won."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        by_pair: dict[int, dict[str, float]] = {}
        for r in runs:
            if name in r:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r[name]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        if not pairs:
            continue
        parent = [p["parent"] for p in pairs]
        change = [p["change"] for p in pairs]
        won = sum(
            (c < p) if lower else (c > p) for p, c in zip(parent, change)
        )
        p_med, c_med = statistics.median(parent), statistics.median(change)
        p_q1, p_q3 = quartiles(parent)
        c_q1, c_q3 = quartiles(change)
        out[name] = {
            "parent_median": p_med, "parent_q1": p_q1, "parent_q3": p_q3,
            "change_median": c_med, "change_q1": c_q1, "change_q3": c_q3,
            "change_vs_parent": c_med / p_med - 1 if p_med else None,
            "change_better_pairs": won, "pairs": len(pairs),
        }
    return out


def opposite_pairs(runs: list[dict]) -> list[int]:
    """The pairs whose scaled and raw ``op_ms_p50`` rank parent and change
    oppositely, one side ahead on each; a tie on either ranks neither."""
    scaled, raw = "op_ms_p50", RAW["name"]
    by_pair: dict[int, dict[str, dict]] = {}
    for r in runs:
        if scaled in r and raw in r:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
    out = []
    for pair, sides in sorted(by_pair.items()):
        if len(sides) == 2:
            parent, change = sides["parent"], sides["change"]
            if (change[scaled] - parent[scaled]) * (change[raw] - parent[raw]) < 0:
                out.append(pair)
    return out


def rss_fit(runs: list[dict]) -> dict:
    """Per side, the least-squares line of peak_rss_mb against attempted.

    A side with fewer than two distinct op counts has no line and is left out.
    """
    out = {}
    for side in ("parent", "change"):
        rows = [r for r in runs if r["side"] == side and "peak_rss_mb" in r]
        ops = [r["attempted"] for r in rows]
        if len(set(ops)) < 2:
            continue
        slope, intercept = statistics.linear_regression(ops, [r["peak_rss_mb"] for r in rows])
        out[side] = {"slope_kb_per_op": slope * 1024, "intercept_mb": intercept,
                     "runs": len(rows)}
    return out


def counts(traced: dict[str, dict], metrics: list[dict]) -> dict:
    """Per-layer ``count`` metrics of each side's traced report, by name."""
    return {
        m["name"]: {side: rep["metrics"][m["name"]]["value"] for side, rep in traced.items()}
        for m in metrics
        if m["unit"] == "count" and all(m["name"] in rep["metrics"] for rep in traced.values())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="change checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--workload", action="append", help="repeatable (default: all)")
    parser.add_argument("--description", default="", help="text kept in the output")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))

    out = {
        "description": args.description,
        "protocol": {
            "command": command, "seconds": seconds, "seeds": seeds,
            "report_seed": REPORT_SEED,
            "commits": {side: commit(path) for side, path in sides.items()},
            "src_sha256": {side: src_hash(path) for side, path in sides.items()},
        },
        "runs": [],
        "pairs": {},
    }
    for workload in workloads:
        traced = {}
        for side, path in sides.items():
            for trace in (0, 1):
                print(f"{workload} {side} seed {REPORT_SEED} trace {trace}", file=sys.stderr)
                run(path, command, workload, REPORT_SEED, seconds, trace)
                rep = report(path, workload, REPORT_SEED, trace)
                rep["meta"]["side"] = side
                out["runs"].append(rep)
                if trace:
                    traced[side] = rep
        runs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                last = run(sides[side], command, workload, seed, seconds, 0)
                row = {"pair": i + 1, "seed": seed, "side": side,
                       "correct": last["correct"], "attempted": last["attempted"],
                       "failed": last["failed"]}
                row.update({k: v["value"] for k, v in last["metrics"].items()})
                metrics = report(sides[side], workload, seed, 0)["metrics"]
                if RAW["name"] in metrics:
                    row[RAW["name"]] = metrics[RAW["name"]]["value"]
                runs.append(row)
                print(f"{workload} pair {i + 1} {side}: op_ms_p50 "
                      f"{row.get('op_ms_p50', float('nan')):.4f} raw "
                      f"{row.get(RAW['name'], float('nan')):.4f}", file=sys.stderr)
        summary = summarize(runs, bench["end_to_end"] + [RAW])
        if "peak_rss_mb" in summary:
            summary["peak_rss_mb"]["fit"] = rss_fit(runs)
        if RAW["name"] in summary:
            summary[RAW["name"]]["opposite_pairs"] = opposite_pairs(runs)
        out["pairs"][workload] = {
            "runs": runs, "summary": summary,
            "counts": counts(traced, bench["per_layer"]),
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")  # keep what is done
    return 0


if __name__ == "__main__":
    sys.exit(main())
