import importlib.util
import json
import shutil
from pathlib import Path

import pytest

path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", path)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_ms_p50", "better": "lower"},
    {"name": "ops_per_s", "better": "higher"},
]


def _rows(pair, parent, change):
    return [
        {"pair": pair, "side": side, **values}
        for side, values in (("parent", parent), ("change", change))
        if values is not None
    ]


def test_summarize_counts_wins_by_direction_and_drops_half_pairs():
    runs = [
        *_rows(1, {"op_ms_p50": 2.0, "ops_per_s": 10.0}, {"op_ms_p50": 2.0, "ops_per_s": 10.0}),
        *_rows(2, {"op_ms_p50": 2.0, "ops_per_s": 10.0}, {"op_ms_p50": 1.0, "ops_per_s": 12.0}),
        *_rows(3, {"op_ms_p50": 2.0, "ops_per_s": 10.0}, {"op_ms_p50": 3.0, "ops_per_s": 8.0}),
        *_rows(4, {"op_ms_p50": 9.0, "ops_per_s": 1.0}, None),  # no change run
        *_rows(5, None, {"op_ms_p50": 0.1, "ops_per_s": 99.0}),  # no parent run
    ]
    out = bench_pairs.summarize(runs, METRICS)
    lower, higher = out["op_ms_p50"], out["ops_per_s"]
    # pair 1 ties and counts for neither side; pairs 4 and 5 are dropped
    assert lower["pairs"] == higher["pairs"] == 3
    assert lower["change_better_pairs"] == 1  # pair 2: 1.0 ms < 2.0 ms
    assert higher["change_better_pairs"] == 1  # pair 2: 12/s > 10/s
    assert lower["parent_median"] == 2.0 and lower["change_median"] == 2.0
    assert higher["change_median"] == 10.0
    assert lower["change_vs_parent"] == 0.0


def test_summarize_skips_a_metric_no_pair_has():
    runs = _rows(1, {"op_ms_p50": 2.0}, {"op_ms_p50": 1.0})
    out = bench_pairs.summarize(runs, METRICS)
    assert list(out) == ["op_ms_p50"]
    assert out["op_ms_p50"]["change_vs_parent"] == pytest.approx(-0.5)


def test_counts_sets_the_traced_count_metrics_side_by_side():
    def report(**values):
        return {"metrics": {k: {"value": v} for k, v in values.items()}}

    traced = {"parent": report(mul=1752, us=4.8), "change": report(mul=1589, us=4.7, frob=1)}
    metrics = [
        {"name": "mul", "unit": "count"},
        {"name": "us", "unit": "us"},
        {"name": "frob", "unit": "count"},  # only in one report
    ]
    assert bench_pairs.counts(traced, metrics) == {"mul": {"parent": 1752, "change": 1589}}


def test_rss_fit_recovers_a_line_per_side():
    # parent: 20 MB plus 0.5 KB per op; change: 19 MB plus 1 KB per op
    runs = [
        {"side": "parent", "attempted": ops, "peak_rss_mb": 20 + ops * 0.5 / 1024}
        for ops in (1000, 2000, 4000)
    ] + [
        {"side": "change", "attempted": ops, "peak_rss_mb": 19 + ops / 1024}
        for ops in (3000, 5000)
    ]
    fit = bench_pairs.rss_fit(runs)
    assert fit["parent"]["slope_kb_per_op"] == pytest.approx(0.5)
    assert fit["parent"]["intercept_mb"] == pytest.approx(20)
    assert fit["parent"]["runs"] == 3
    assert fit["change"]["slope_kb_per_op"] == pytest.approx(1)
    assert fit["change"]["intercept_mb"] == pytest.approx(19)


def test_rss_fit_leaves_out_a_side_without_two_op_counts():
    runs = [
        {"side": "parent", "attempted": 500, "peak_rss_mb": 20.0},
        {"side": "parent", "attempted": 500, "peak_rss_mb": 20.5},
        {"side": "change", "attempted": 700, "peak_rss_mb": 21.0},
    ]
    assert bench_pairs.rss_fit(runs) == {}


def test_src_hash_follows_the_bytes_of_src(tmp_path):
    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(root / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    want = bench_pairs.src_hash(root)
    assert bench_pairs.src_hash(copy) == want
    cache = copy / "src" / "mst3sz" / "__pycache__"
    cache.mkdir()
    (cache / "scheme.cpython-311.pyc").write_bytes(b"left by a run")
    assert bench_pairs.src_hash(copy) == want  # bytecode caches are left out
    path = copy / "src" / "mst3sz" / "scheme.py"
    data = bytearray(path.read_bytes())
    data[0] ^= 1
    path.write_bytes(bytes(data))
    assert bench_pairs.src_hash(copy) != want


def test_raw_op_times_are_summarized_beside_the_scaled_ones():
    # pair 1: both rank the change ahead; pair 2: scaled says change, raw
    # says parent; pair 3: scaled says parent, raw says change; pair 4:
    # raw ties, so it ranks neither side; pair 5 lacks its raw times
    raw = bench_pairs.RAW["name"]
    runs = [
        *_rows(1, {"op_ms_p50": 2.0, raw: 3.0}, {"op_ms_p50": 1.0, raw: 2.0}),
        *_rows(2, {"op_ms_p50": 2.0, raw: 3.0}, {"op_ms_p50": 1.5, raw: 3.5}),
        *_rows(3, {"op_ms_p50": 2.0, raw: 3.0}, {"op_ms_p50": 2.5, raw: 2.5}),
        *_rows(4, {"op_ms_p50": 2.0, raw: 3.0}, {"op_ms_p50": 1.0, raw: 3.0}),
        *_rows(5, {"op_ms_p50": 2.0}, {"op_ms_p50": 1.0}),
    ]
    assert bench_pairs.opposite_pairs(runs) == [2, 3]
    out = bench_pairs.summarize(runs, METRICS + [bench_pairs.RAW])
    scaled, unscaled = out["op_ms_p50"], out[raw]
    assert scaled["pairs"] == 5 and unscaled["pairs"] == 4
    assert unscaled["parent_median"] == 3.0
    assert unscaled["change_median"] == pytest.approx(2.75)
    assert unscaled["change_better_pairs"] == 2  # pairs 1 and 3
    assert (unscaled["change_q1"], unscaled["change_q3"]) == pytest.approx((2.125, 3.375))


def test_main_keeps_each_untraced_runs_raw_op_time(tmp_path, monkeypatch):
    # fake runs: the change is faster by the scaled clock in both pairs,
    # but slower by the raw one in the second pair
    scaled = {("parent", 11): 2.0, ("change", 11): 1.0, ("parent", 12): 2.0, ("change", 12): 1.5}
    raw = {("parent", 11): 3.0, ("change", 11): 2.0, ("parent", 12): 3.0, ("change", 12): 3.5}
    sides = {tmp_path / "parent": "parent", tmp_path / "change": "change"}

    def run(checkout, command, workload, seed, seconds, trace):
        value = scaled.get((sides[checkout], seed), 9.0)
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"op_ms_p50": {"value": value}}}

    def report(checkout, workload, seed, trace):
        metrics = {}
        if (sides[checkout], seed) in raw:
            metrics["raw.op_ms_p50"] = {"value": raw[sides[checkout], seed]}
        return {"meta": {}, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run", run)
    monkeypatch.setattr(bench_pairs, "report", report)
    out = tmp_path / "out.json"
    for side in sides:
        side.mkdir()
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--out", str(out), "--pairs", "2", "--first-seed", "11", "--workload", "session-17",
    ]) == 0
    got = json.loads(out.read_text())["pairs"]["session-17"]
    assert [(r["side"], r["seed"], r["raw.op_ms_p50"]) for r in got["runs"]] == [
        ("parent", 11, 3.0), ("change", 11, 2.0), ("change", 12, 3.5), ("parent", 12, 3.0),
    ]
    summary = got["summary"]
    assert summary["op_ms_p50"]["change_better_pairs"] == 2
    assert summary["raw.op_ms_p50"]["change_better_pairs"] == 1
    assert summary["raw.op_ms_p50"]["opposite_pairs"] == [2]
