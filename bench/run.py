"""schwarztri benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, a closed loop with one client: the next
case starts when the previous one has returned.  A run repeats whole passes
over the seed's cases until the next pass would overrun ``--seconds``, so
every run measures the same case mix whatever the program's speed.

``--trace 0`` prints the end-to-end metrics; set-up time is the median of
five fresh processes that each import the package and build the inputs.
``--trace 1`` runs an untraced, a traced and another untraced pass over the
same cases, each about a third of the run, and prints the per-layer metrics;
spans go to ``.bench_out/``.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the run's details.  The
exit code is 1 when an exact output is wrong, 2 on a usage or set-up error.

    python3 bench/run.py --record-reference

records the exact outputs of every workload's default seed in
``bench/reference.json``.
"""

from __future__ import annotations

import os

# one thread: pin BLAS pools before numpy is imported, here and in children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_SAMPLES = 5
TRACE_PASSES = 3  # a traced run: untraced, traced, untraced
REFERENCE_CASES = {"oracle_sweep": 1, "oracle_shifted": 400, "exact_identities": 30, "point_queries": 1000}

sys.path.insert(0, BENCH_DIR)
import probe  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cases_per_s": ("1/s", "higher"),
    "case_ms_p50": ("ms", "lower"),
    "case_ms_tail": ("ms", "lower"),
    "ok_share": ("share", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    return "share" if name == "trace_overhead_share" else "count"


class SetupError(RuntimeError):
    pass


def _import_package() -> None:
    """Import ``schwarztri`` from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "schwarztri", "__init__.py")):
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, SRC)
    import schwarztri

    if os.path.dirname(os.path.dirname(os.path.abspath(schwarztri.__file__))) != SRC:
        raise SetupError(f"imported schwarztri from {schwarztri.__file__}, not {SRC}")


def digest(outcomes) -> str:
    text = "\n".join(o.exact for o in outcomes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def nearest_rank(sorted_values, p: float) -> float:
    k = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[k - 1]


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(cases_per_pass: int) -> float:
    """Highest of the usual percentiles with at least ten of a pass's cases
    beyond it; 100 (the maximum) when a pass has fewer than twenty cases."""
    for p in TAIL_PERCENTILES:
        if cases_per_pass * (100 - p) / 100 >= 10:
            return p
    return 100.0


class Tally:
    """Outcomes of checked cases, against the reference when it applies."""

    def __init__(self, reference: list | None):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def add(self, index: int, outcomes) -> None:
        """Count one case's outcomes; ``index`` is its reference entry."""
        self.attempted += len(outcomes)
        for o in outcomes:
            self.failed += not o.ok
            self.correct = self.correct and o.correct
            if o.detail:
                self._note(("" if o.correct else "WRONG ") + o.detail)
        if self.reference is not None and index < len(self.reference):
            if digest(outcomes) != self.reference[index]:
                self.correct = False
                self._note(f"WRONG case {index}: output differs from the reference")

    def _note(self, text: str) -> None:
        if len(self.notes) < 20:
            self.notes.append(text)


def _safe_check(workload, case, output):
    """The case's outcomes; a call or a check that raised is one wrong unit."""
    if not isinstance(output, Exception):
        try:
            return workload.check(case, output)
        except Exception as exc:  # malformed output: reported, the run goes on
            output = exc
    return [workloads.Outcome(False, False, "", f"{type(output).__name__}: {output}")]


def timed_call(workload, case, speed: probe.SpeedProbe | None = None):
    """Run one case, with the speed probe sampling inside it if given;
    returns its output (or the exception it raised) and the call's
    (start, end)."""
    clock = time.perf_counter_ns
    with speed.inside() if speed is not None else contextlib.nullcontext():
        start = clock()
        try:
            output = workload.run(case)
        except Exception as exc:  # a failed case is counted, the run goes on
            output = exc
        end = clock()
    return output, (start, end)


def timed_pass(workload, cases, tally: Tally, speed: probe.SpeedProbe, on_case=None):
    """Run every case once; returns per-case durations in ns, raw and scaled
    by the speed probe.  Checks run after the timed call, outside the
    measurement."""
    spans = []
    for index, case in enumerate(cases):
        speed.maybe_sample()
        if on_case is not None:
            on_case(index)
        output, span = timed_call(workload, case, speed)
        spans.append(span)
        tally.add(workload.reference_index(case, index), _safe_check(workload, case, output))
    speed.sample()
    raw = [speed.busy_ns(start, end) for start, end in spans]
    scaled = [speed.busy_ns(start, end) * speed.scale(start, end) for start, end in spans]
    return raw, scaled


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def measure_setup(args) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds from fresh processes: import plus input
    generation."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        raw, scaled = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(raw), float(scaled)))
    return samples


def setup_only(args) -> None:
    speed = probe.SpeedProbe()
    speed.sample()
    with speed.inside():
        start = time.perf_counter_ns()
        _import_package()
        workloads.setup(args.workload, args.seed, args.seconds, OUT_DIR)
        end = time.perf_counter_ns()
    speed.sample()
    busy = speed.busy_ns(start, end)
    print(busy / 1e9, busy * speed.scale(start, end) / 1e9)


def load_reference(workload, seed: int) -> list | None:
    """Reference digests for this seed's cases, if recorded."""
    with open(REFERENCE, encoding="utf-8") as fh:
        entry = json.load(fh)[workload.name]
    return entry["digests"] if entry["seed"] == seed or not workload.seeded else None


def run_untraced(args) -> tuple[dict, Tally, dict]:
    setup_samples = measure_setup(args)
    _import_package()
    workload, cases = workloads.setup(args.workload, args.seed, args.seconds, OUT_DIR)
    workload.run(workload.warmup_case(cases))
    tally = Tally(load_reference(workload, args.seed))
    speed = probe.SpeedProbe()
    budget_ns = args.seconds * 1_000_000_000
    raw: list[list[float]] = []  # per pass, per case
    scaled: list[list[float]] = []
    wall0, cpu0 = time.perf_counter_ns(), time.process_time()
    while True:
        pass_start = time.perf_counter_ns()
        pass_raw, pass_scaled = timed_pass(workload, cases, tally, speed)
        raw.append(pass_raw)
        scaled.append(pass_scaled)
        now = time.perf_counter_ns()
        if len(raw) >= workload.passes and now - wall0 + (now - pass_start) > budget_ns:
            break
    wall_s = (time.perf_counter_ns() - wall0) / 1e9
    cpu_s = time.process_time() - cpu0

    units = [workload.units(case) for case in cases]
    p_tail = tail_percentile(len(cases))

    def latency(passes):
        # a case's latency is the median of its times over the run's passes
        per_unit_ms = sorted(
            statistics.median(times) / u / 1e6 for times, u in zip(zip(*passes), units)
        )
        return {
            "cases_per_s": sum(units) * len(passes) / (sum(map(sum, passes)) / 1e9),
            "case_ms_p50": statistics.median(per_unit_ms),
            "case_ms_tail": nearest_rank(per_unit_ms, p_tail),
        }

    metrics = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        **latency(scaled),
        "ok_share": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "passes": len(raw),
        "cases_per_pass": len(cases),
        "tail_percentile": p_tail,
        "failed_share": tally.failed / tally.attempted,
        "raw": {"setup_s": statistics.median(r for r, _ in setup_samples), **latency(raw)},
        "setup_samples_s": setup_samples,
        "probe_ms_median": statistics.median(speed.kernel_ns) / 1e6,
        "probe_points": len(speed.times),
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "busy_s": sum(map(sum, raw)) / 1e9,
        "case_ms": [[d / 1e6 for d in times] for times in raw],
        "scaled_case_ms": [[d / 1e6 for d in times] for times in scaled],
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()}, tally, details


def run_traced(args) -> tuple[dict, Tally, dict]:
    _import_package()
    workload, cases = workloads.setup(args.workload, args.seed, args.seconds, OUT_DIR, passes=TRACE_PASSES)
    workload.run(workload.warmup_case(cases))
    tally = Tally(load_reference(workload, args.seed))
    speed = probe.SpeedProbe(inside=False)  # no probe time inside a span
    # untraced, traced, untraced: the traced pass is compared with the mean of
    # the passes around it, so that warm-up and drift do not read as overhead
    before = timed_pass(workload, cases, tally, speed)
    t = tracer.Tracer()
    t.install()
    try:
        traced = timed_pass(workload, cases, tally, speed, on_case=lambda i: setattr(t, "case_id", i))
    finally:
        t.remove()
    after = timed_pass(workload, cases, tally, speed)
    spans_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
    t.write_spans(spans_path)
    untraced_ns = (sum(before[1]) + sum(after[1])) / 2
    metrics = t.metrics(sum(traced[0]), overhead=sum(traced[1]) / untraced_ns - 1)
    details = {
        "cases_per_pass": len(cases),
        "untraced_s": [sum(before[0]) / 1e9, sum(after[0]) / 1e9],
        "traced_s": sum(traced[0]) / 1e9,
        "spans": len(t.spans),
        "spans_path": os.path.relpath(spans_path, ROOT),
    }
    return {k: {"value": v, "unit": per_layer_unit(k)} for k, v in metrics.items()}, tally, details


def record_reference() -> int:
    """Record the exact outputs of each workload's default seed."""
    _import_package()
    reference = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(OUT_DIR)
        cases = workload.inputs(workload.default_seed, REFERENCE_CASES[name])
        tally = Tally(None)
        digests = [""] * len(cases)
        for position, case in enumerate(cases):
            outcomes = _safe_check(workload, case, timed_call(workload, case)[0])
            index = workload.reference_index(case, position)
            tally.add(index, outcomes)
            digests[index] = digest(outcomes)
        if not tally.correct:
            print(f"{name}: wrong outputs, nothing recorded: {tally.notes}", file=sys.stderr)
            return 1
        reference[name] = {"seed": workload.default_seed, "digests": digests}
        print(f"{name}: {len(cases)} cases, {tally.attempted} units, {tally.failed} failed", file=sys.stderr)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0)
        fh.write("\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="schwarztri benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed is None and args.workload is not None:
        args.seed = workloads.WORKLOADS[args.workload].default_seed
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        if args.record_reference:
            return record_reference()
        if args.setup_only:
            setup_only(args)
            return 0
        runner = run_traced if args.trace else run_untraced
        metrics, tally, details = runner(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **details, **environment(), "notes": tally.notes,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"details": details, "metrics": metrics}, fh)
    details.pop("case_ms", None)
    details.pop("scaled_case_ms", None)
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
