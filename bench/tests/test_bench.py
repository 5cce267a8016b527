"""Tests of the benchmark itself (not part of the package's suite).

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name](str(tmp_path))
    first = workload.inputs(3, 12)
    assert first == workload.inputs(3, 12)
    if workload.seeded:
        assert workload.inputs(4, 12) != first
        assert workload.inputs(3, 5) == first[:5]


def test_identity_cases_are_criterion_5_cases_in_seed_order(tmp_path):
    workload = workloads.ExactIdentities(str(tmp_path))
    a, b = workload.inputs(1, 10), workload.inputs(2, 10)
    assert a != b
    assert sorted(a, key=lambda case: case[0]) == sorted(b, key=lambda case: case[0])
    assert sorted(workload.reference_index(case, 0) for case in a) == list(range(10))


def test_probe_points_inside_a_case_are_subtracted():
    handler = signal.getsignal(signal.SIGALRM)
    speed = probe.SpeedProbe()
    speed.sample()
    with speed.inside():
        start = time.perf_counter_ns()
        while time.perf_counter_ns() - start < 200_000_000:
            pass
        end = time.perf_counter_ns()
    speed.sample()
    inner = [cost for t, cost in zip(speed.times, speed.costs) if start < t < end]
    assert len(inner) >= 2
    assert speed.busy_ns(start, end) == end - start - sum(inner)
    assert speed.scale(start, end) == pytest.approx(probe.REFERENCE_NS * len(speed.times) / sum(speed.kernel_ns))
    assert signal.getsignal(signal.SIGALRM) is handler


def _bindings() -> dict:
    return {
        (id(owner), name): value
        for owner in tracer._binding_owners()
        for name, value in vars(owner).items()
    }


def test_wrappers_patch_every_binding_and_restore_it():
    import schwarztri.cli as cli
    import schwarztri.rational as rational

    series = sys.modules["schwarztri.series"]
    monodromy_module = sys.modules["schwarztri.monodromy"]
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        patched = {(owner.__name__, name) for owner, name, _ in t.patched}
        for binding in [
            ("schwarztri.cli", "classify"),
            ("schwarztri.cli", "monodromy"),
            ("schwarztri.cli", "classify_projective"),
            ("schwarztri.series", "schwarz_pullback"),
            ("schwarztri", "monodromy"),
            ("schwarztri.monodromy", "_taylor_step"),
            ("Poly", "__mul__"),
            ("Poly", "__rmul__"),
            ("RatFunc", "__radd__"),
        ]:
            assert binding in patched, binding
        assert cli.classify is not before[(id(cli), "classify")]
        assert series.schwarz_pullback is not before[(id(series), "schwarz_pullback")]
        assert monodromy_module._taylor_step is not before[(id(monodromy_module), "_taylor_step")]
        rational.RatFunc.variable() * 2
    finally:
        t.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_partition_the_traced_time():
    from fractions import Fraction

    from schwarztri.triangle import AngleParams

    t = tracer.Tracer()
    t.install()
    try:
        params = AngleParams(Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
        sys.modules["schwarztri.monodromy"].monodromy(params)
    finally:
        t.remove()
    metrics = t.metrics(t.top_level_ns, overhead=0.0)
    modules = sum(metrics[f"{m}.self_us"] for m in tracer.MODULES)
    assert modules == pytest.approx(t.top_level_ns / 1e3)
    assert metrics["monodromy.continue_solution.calls"] == 2
    assert metrics["monodromy.taylor_step.calls"] > 0
    by_id = {span[0]: span for span in t.spans}
    for span_id, parent, _, _, start, end in t.spans:
        assert start <= end
        if parent is not None:
            assert by_id[parent][4] <= start and end <= by_id[parent][5]


def test_metric_names_match_benchmark_json():
    doc = _benchmark_json()
    assert [m["name"] for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in doc["per_layer"]] == tracer.metric_names()
    for m in doc["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in doc["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    doc = _benchmark_json()
    proc = _run("--workload", "point_queries", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "point_queries", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_a_sweep_disagreement_is_a_wrong_output(tmp_path):
    workload = workloads.OracleSweep(str(tmp_path))
    argv = workload.warmup_case([])
    output = workload.run(argv)
    assert all(o.ok and o.correct for o in workload.check(argv, output))
    code, stdout, lines = output
    record = json.loads(lines[0])
    record["agree"] = False
    outcomes = workload.check(argv, (code, stdout, [json.dumps(record), *lines[1:]]))
    assert not outcomes[0].ok and not outcomes[0].correct
