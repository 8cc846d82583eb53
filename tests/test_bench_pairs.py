import importlib.util
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
