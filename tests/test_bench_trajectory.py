import importlib.util
import json
from pathlib import Path

path = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"
spec = importlib.util.spec_from_file_location("bench_trajectory", path)
bench_trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_trajectory)


def _write(path, summaries):
    pairs = {
        workload: {"runs": [], "summary": {
            name: {"parent_median": 2 * value, "change_median": value}
            for name, value in metrics.items()
        }}
        for workload, metrics in summaries.items()
    }
    path.write_text(json.dumps({"description": "fixture", "pairs": pairs}))
    return path


def test_trajectory_orders_files_by_pr_number_and_reads_change_medians(tmp_path, capsys):
    # PR 9 sorts before PR 10 although "BENCH_pr10" < "BENCH_pr9" as text;
    # PR 9 has no attack-5 run and no peak_rss_mb
    late = _write(tmp_path / "BENCH_pr10.json", {
        "session-17": {"op_ms_p50": 0.75, "peak_rss_mb": 40.0},
        "attack-5": {"op_ms_p50": 0.5, "peak_rss_mb": 30.0},
    })
    early = _write(tmp_path / "BENCH_pr9.json", {"session-17": {"op_ms_p50": 0.8}})
    assert bench_trajectory.trajectory([late, early]) == {
        "session-17": [
            ("BENCH_pr9", {"op_ms_p50": 0.8}),
            ("BENCH_pr10", {"op_ms_p50": 0.75, "peak_rss_mb": 40.0}),
        ],
        "attack-5": [("BENCH_pr10", {"op_ms_p50": 0.5, "peak_rss_mb": 30.0})],
    }
    assert bench_trajectory.main([str(late), str(early)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "session-17" and out[5] == "attack-5"
    header, first, second = (line.split() for line in out[1:4])
    assert header[:4] == ["file", "setup_s", "ops_per_s", "op_ms_p50"]
    row = dict(zip(header, first))
    assert row["file"] == "BENCH_pr9" and row["op_ms_p50"] == "0.8"
    assert row["setup_s"] == row["peak_rss_mb"] == "-"
    assert dict(zip(header, second))["peak_rss_mb"] == "40"
    assert out[4] == "" and out[7].split()[0] == "BENCH_pr10"
