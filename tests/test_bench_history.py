"""BENCH_history.json, the record of accepted speed claims, against BENCHMARK.json."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_entries_name_benchmark_metrics_and_show_their_gain():
    history = json.loads((ROOT / "BENCH_history.json").read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    assert history["entries"]
    for entry in history["entries"]:
        assert entry["workload"] in workloads, entry
        assert entry["metric"] in better, entry
        parent, change = entry["parent"]["median"], entry["change"]["median"]
        assert change > parent if better[entry["metric"]] == "higher" else change < parent, entry
        assert 0 <= entry["pairs_won"] <= entry["pairs"], entry
        for side in (entry["parent"], entry["change"]):
            if side["q1"] is not None:
                assert side["q1"] <= side["median"] <= side["q3"], entry
        assert entry["commit"] and entry["host"], entry
