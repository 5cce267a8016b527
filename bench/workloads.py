"""The four benchmark workloads.

Each workload turns a seed into a list of cases, runs one case through the
package's public calls, and checks the outputs.  A check yields one
:class:`Outcome` per attempted unit: a sweep call yields one per exponent
triple, every other case yields one.

``ok`` false marks a failed unit: an oracle disagreement, an inconclusive
oracle, an exception or a nonzero exit.  ``correct`` false marks a wrong
exact output: a witness that does not verify, an identity that does not
hold, a ``verify`` that does not pass, an unexpected exit code.  ``exact``
is the text compared with the recorded reference.

The package is imported inside :func:`setup`, so that set-up time covers the
import.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Outcome:
    ok: bool
    correct: bool
    exact: str
    detail: str = ""


def _pkg(module: str):
    return importlib.import_module(f"schwarztri.{module}")


def _witness_from_record(record: dict):
    minimality = _pkg("minimality")
    if record["kind"] == "condition1":
        return minimality.Condition1Witness(signs=tuple(record["signs"]), value=record["value"])
    return minimality.Condition2Witness(
        row=record["row"],
        signs=tuple(record["signs"]),
        permutation=tuple(record["permutation"]),
        shifts=(record["l"], record["m"], record["n"]),
        parity_used=record["parity_used"],
    )


def _verdict_consistent(params, verdict_record: dict) -> bool:
    """The witness (present exactly for non-minimal verdicts) verifies."""
    witness = verdict_record["witness"]
    if (verdict_record["verdict"] == "not_strongly_minimal") != (witness is not None):
        return False
    if witness is None:
        return True
    e = _pkg("triangle").exponent_differences(params)
    return _witness_from_record(witness).verify(e)


def _exponent_params(t0: Fraction, t1: Fraction, t2: Fraction):
    # exponent differences at 0, 1 and infinity, placed as the sweep places them
    return _pkg("triangle").AngleParams(e_alpha=t2, e_beta=t0, e_gamma=t1)


def _agreement(verdict, rep) -> tuple[bool, str]:
    monodromy = _pkg("monodromy")
    try:
        oracle = monodromy.classify_projective(rep)
    except monodromy.InconclusiveError:
        return False, "oracle inconclusive"
    integrable = oracle.kind in ("finite", "dihedral", "triangularizable")
    if integrable == (not verdict.strongly_minimal):
        return True, ""
    return False, f"oracle says {oracle.kind}, classifier says {verdict.verdict.value}"


def _canonical(record) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class Workload:
    name = ""
    default_seed = 1
    seeded = True  # whether the seed changes the set of inputs, not only their order
    cases_per_second = 1.0  # measured when the benchmark was defined; sizes the passes
    passes = 1  # fewest passes in a run

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def units(self, case) -> int:
        return 1

    def reference_index(self, case, position: int) -> int:
        """Index of the case's entry in the recorded reference."""
        return position

    def warmup_case(self, cases: list):
        return cases[0]


# -- oracle_sweep ----------------------------------------------------------------


class OracleSweep(Workload):
    """``schwarztri sweep --max-den 4``: every unordered reduced exponent
    triple in (0, 1) with denominators <= 4, 35 triples, one call.

    A full enumeration, so the seed changes nothing.  Latency samples are the
    mean time per triple of each call, since a batch call exposes no
    per-triple timing.  A call takes under a second: the host's speed drifts
    within longer calls, which the speed probe between calls cannot follow."""

    name = "oracle_sweep"
    default_seed = 1
    seeded = False
    max_den = 4
    cases_per_second = 1.4

    def _argv(self, max_den: int) -> list:
        return ["sweep", "--max-den", str(max_den), "--out", os.path.join(self.out_dir, "sweep.ndjson")]

    def inputs(self, seed: int, count: int) -> list:
        return [self._argv(self.max_den)] * count

    def warmup_case(self, cases: list):
        return self._argv(2)

    def run(self, argv):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = _pkg("cli").main(argv)
        with open(argv[-1], encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return code, stdout.getvalue(), lines

    def units(self, argv) -> int:
        n = len(_pkg("cli").exponent_values(int(argv[2])))
        return math.comb(n + 2, 3)

    def check(self, argv, output) -> list[Outcome]:
        code, stdout, lines = output
        summary = json.loads(stdout.splitlines()[-1])["result"]
        records = [json.loads(line) for line in lines]
        expected = self.units(argv)
        outcomes = []
        for rec in records:
            t0, t1, t2 = (Fraction(x) for x in rec["triple"])
            verdict = {"verdict": rec["verdict"], "witness": rec["witness"]}
            correct = _verdict_consistent(_exponent_params(t0, t1, t2), verdict)
            exact = _canonical({"triple": rec["triple"], **verdict})
            agree = rec["agree"] is True
            detail = "" if agree else f"{rec['triple']}: oracle {rec['oracle']['kind']}"
            # the recorded reference has the oracle agree on every triple of
            # the sweep, so a disagreement here is a wrong output, not only a
            # failed unit
            outcomes.append(Outcome(agree, correct and agree, exact, detail))
        disagreements = sum(rec["agree"] is False for rec in records)
        if (
            len(records) != expected
            or summary["cases"] != expected
            or code != (0 if disagreements == 0 else 1)
        ):
            outcomes.append(Outcome(False, False, "", f"sweep summary {summary}, exit {code}"))
        return outcomes


# -- oracle_shifted --------------------------------------------------------------


class OracleShifted(Workload):
    """Exponent differences p/q, q in 2..5, |p/q| <= 6, non-integer; one
    classify -> monodromy -> classify_projective chain per triple."""

    name = "oracle_shifted"
    default_seed = 1
    cases_per_second = 38.0

    @staticmethod
    def _exponent(rng: random.Random) -> Fraction:
        q = rng.randint(2, 5)
        while True:
            p = rng.randint(-6 * q, 6 * q)
            if math.gcd(p, q) == 1:
                return Fraction(p, q)

    def inputs(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        return [tuple(self._exponent(rng) for _ in range(3)) for _ in range(count)]

    def run(self, triple):
        params = _exponent_params(*triple)
        verdict = _pkg("minimality").classify(params)
        rep = _pkg("monodromy").monodromy(params)
        agree, detail = _agreement(verdict, rep)
        return params, verdict, agree, detail

    def check(self, triple, output) -> list[Outcome]:
        params, verdict, agree, detail = output
        record = verdict.to_record()
        correct = _verdict_consistent(params, record)
        exact = _canonical({"triple": [str(x) for x in triple], **record})
        return [Outcome(agree, correct, exact, f"{[str(x) for x in triple]}: {detail}" if detail else "")]


# -- exact_identities --------------------------------------------------------------


class ExactIdentities(Workload):
    """Criterion-5 cases: cocycle and pullback identities, exact equality.

    The cases are the first ones of the criterion-5 generator (seed 97,
    degrees <= 6, coefficients in [-4, 4]); the seed only orders them.  A
    case takes from 0.01 s to 2 s, set by its degrees and coefficients, and a
    run holds a few dozen, so cases drawn afresh per seed would move the
    median by 15% between seeds and measure the draw rather than the code.
    A fixed set also keeps every case under the reference check."""

    name = "exact_identities"
    default_seed = 97
    seeded = False
    cases_per_second = 1.8
    # One case is one to two seconds of big-integer work, and a single
    # measurement of it varies by 10 to 20% on a shared host.  Three passes
    # spread over the run give each case a median of three.
    passes = 3

    def inputs(self, seed: int, count: int) -> list:
        rational = _pkg("rational")
        rng = random.Random(97)

        def rand_poly():
            deg = rng.randint(0, 6)
            cs = [rng.randint(-4, 4) for _ in range(deg + 1)]
            if all(c == 0 for c in cs):
                cs[-1] = rng.choice([-2, -1, 1, 2])
            if cs[-1] == 0:
                cs[-1] = 1
            return rational.Poly(cs)

        def rand_ratfunc(nonconstant=False):
            while True:
                f = rational.RatFunc(rand_poly(), rand_poly())
                if not nonconstant or not f.is_constant:
                    return f

        cases = [
            (index, rand_ratfunc(True), rand_ratfunc(True), rand_ratfunc(), rand_ratfunc(True))
            for index in range(count)
        ]
        random.Random(seed).shuffle(cases)
        return cases

    def reference_index(self, case, position: int) -> int:
        return case[0]

    def run(self, case):
        rational = _pkg("rational")
        _, f, g, r, phi = case
        dg = rational.derivative(g)
        lhs = rational.schwarzian(rational.compose(f, g))
        rhs = rational.compose(rational.schwarzian(f), g) * dg * dg + rational.schwarzian(g)
        pb_lhs = rational.schwarz_pullback(rational.schwarz_pullback(r, phi), g)
        pb_rhs = rational.schwarz_pullback(r, rational.compose(phi, g))
        return lhs, rhs, pb_lhs, pb_rhs

    def check(self, case, output) -> list[Outcome]:
        lhs, rhs, pb_lhs, pb_rhs = output
        holds = lhs == rhs and pb_lhs == pb_rhs
        exact = lhs.to_text() + "|" + pb_lhs.to_text()
        return [Outcome(holds, holds, exact, "" if holds else "identity does not hold")]


# -- point_queries -----------------------------------------------------------------

# maps with phi(1/2) not in {0, 1, inf} and phi'(1/2) != 0, so that the
# pulled-back equation is regular at the default base point
PHIS = (
    "y^2",
    "y^3",
    "y^2+y",
    "(y-1)/(y+1)",
    "2*y/(y+1)",
    "1/(y+2)",
    "y*(y+1)/3",
    "(2*y+1)/(y+3)",
)


class PointQueries(Workload):
    """In-process ``cli.main(argv)`` calls with stdout captured.

    The shares follow the command examples of the README, the only record of
    how the commands are used: classify-equation, classify-group and verify
    in the ratio 3:2:3, the three verify kinds in equal parts, one
    classify-equation query in three ``generic`` and one group entry in six
    ``inf``.  Within those, values are drawn uniformly: exponents p/q with q
    in 1..7 and |p/q| <= 3 (so integers and negative values occur), group
    entries in 2..50, verify at order 40 with ``--phi`` from :data:`PHIS`.
    Values go as ``--inv-angles=v``: with the separate form argparse takes a
    leading minus for an option."""

    name = "point_queries"
    default_seed = 1
    cases_per_second = 380.0

    @staticmethod
    def _value(rng: random.Random) -> Fraction:
        q = rng.randint(1, 7)
        while True:
            p = rng.randint(-3 * q, 3 * q)
            if math.gcd(p, q) == 1:
                return Fraction(p, q)

    def _angles(self, rng: random.Random) -> str:
        return ",".join(str(self._value(rng)) for _ in range(3))

    @staticmethod
    def _entry(rng: random.Random) -> str:
        return "inf" if rng.randrange(6) == 0 else str(rng.randint(2, 50))

    def inputs(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        out = []
        for _ in range(count):
            u = rng.randrange(8)
            if u < 3:
                angles = "generic" if rng.randrange(3) == 0 else self._angles(rng)
                out.append(["classify-equation", f"--inv-angles={angles}"])
            elif u < 5:
                sig = ",".join(self._entry(rng) for _ in range(3))
                out.append(["classify-group", f"--sig={sig}"])
            else:
                kind = rng.choice(("principal", "riccati", "pullback"))
                argv = ["verify", kind, f"--inv-angles={self._angles(rng)}", "--order", "40"]
                if kind == "pullback":
                    argv.append(f"--phi={rng.choice(PHIS)}")
                out.append(argv)
        return out

    def run(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = _pkg("cli").main(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def check(self, argv, output) -> list[Outcome]:
        code, stdout, stderr = output
        if code != 0:
            return [Outcome(False, False, "", f"{argv}: exit {code}: {stderr.strip()}")]
        result = json.loads(stdout)["result"]
        command = argv[0]
        value = argv[-1].split("=", 1)[1] if command != "verify" else None
        if command == "classify-equation":
            params = _pkg("triangle").AngleParams.parse(value)
            if params.is_generic:
                correct = result == {"verdict": "generic_strongly_minimal", "witness": None}
            else:
                correct = _verdict_consistent(params, result)
            exact = _canonical(result)
        elif command == "classify-group":
            correct = _group_consistent(value, result)
            exact = _canonical(result)
        else:
            correct = result["passed"] is True
            exact = _canonical({k: result[k] for k in ("equation", "phi", "passed")})
        return [Outcome(True, correct, exact, "" if correct else f"{argv}: {result}")]


def _group_consistent(text: str, result: dict) -> bool:
    """Geometry from the exact angle sum, and the report fields' definitions."""
    groups = _pkg("groups")
    sig = groups.Signature.parse(text)
    s = sig.angle_sum()
    geometry = "hyperbolic" if s < 1 else "euclidean" if s == 1 else "spherical"
    if result["geometry"] != geometry or result["signature"] != sig.as_text():
        return False
    if geometry != "hyperbolic":
        return result["maximal"] is None and result["arithmetic"] is None
    special = (
        "infinitely_many" if result["arithmetic"]
        else "none" if result["maximal"]
        else "finitely_constrained"
    )
    return (
        result["in_m"] == (not result["maximal"])
        and result["in_w"] == (result["in_m"] or result["arithmetic"])
        and result["special_polynomials"] == special
    )


WORKLOADS = {cls.name: cls for cls in (OracleSweep, OracleShifted, ExactIdentities, PointQueries)}


def case_count(workload, seconds: int, passes: int | None = None) -> int:
    """Cases in one pass: ``passes`` passes (by default the workload's
    fewest) fill about four fifths of the run at the measured rate, so that
    a run completes whole passes and every run sees the same mix."""
    return max(1, round(workload.cases_per_second * seconds * 0.8 / (passes or workload.passes)))


def setup(name: str, seed: int, seconds: int, out_dir: str, passes: int | None = None):
    """Import the package and build the inputs; the measured set-up.  The
    command-line module is imported too, and with it every other module."""
    importlib.import_module("schwarztri")
    _pkg("cli")
    workload = WORKLOADS[name](out_dir)
    return workload, workload.inputs(seed, case_count(workload, seconds, passes))
