"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is also part of the default ``pytest`` run.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import numpy as np
from definitions import den8_params, shifted_params

from schwarztri.cli import sweep_records
from schwarztri.groups import ARITHMETIC_SIGNATURES, INF, Geometry, Signature, geometry, is_maximal
from schwarztri.minimality import Verdict, classify
from schwarztri.monodromy import LoopSpec, continue_solution, monodromy
from schwarztri.rational import (
    Poly,
    RatFunc,
    compose,
    derivative,
    schwarz_pullback,
    schwarzian,
)
from schwarztri.series import (
    residual_inverse,
    residual_principal,
    residual_riccati,
    series_solve_linear,
    verify_pullback,
)
from schwarztri.triangle import AngleParams, build_r, exponent_differences


def _report(criterion: str, detail: str):
    print(f"[PASS] {criterion}: {detail}")


def test_criterion_1_classifier_oracle_agreement():
    """Exact classifier vs monodromy oracle over all reduced exponent triples
    with denominators <= 8; no disagreements, inconclusive < 5%."""
    records, summary = sweep_records(den8_params())
    assert summary["disagreements"] == 0, [r for r in records if r["agree"] is False][:5]
    assert summary["inconclusive"] < 0.05 * summary["cases"]
    _report(
        "criterion 1 (oracle agreement, den <= 8)",
        f"{summary['cases']} cases, {summary['agreements']} agree, "
        f"{summary['inconclusive']} inconclusive",
    )


def test_criterion_2_hyperbolic_corpus_strongly_minimal():
    """Every hyperbolic integer signature with entries <= 50 or infinity is
    strongly minimal (exact arithmetic)."""
    entries = list(range(2, 51)) + [math.inf]
    n = 0
    for k, l, m in itertools.combinations_with_replacement(entries, 3):
        s = sum(F(0) if e == math.inf else F(1, int(e)) for e in (k, l, m))
        if s >= 1:
            continue
        v = classify(AngleParams.from_signature_entries(k, l, m))
        assert v.verdict is Verdict.STRONGLY_MINIMAL, (k, l, m)
        n += 1
    _report("criterion 2 (hyperbolic corpus)", f"{n} signatures all strongly minimal")


def test_criterion_3_arithmetic_table_counts():
    """The embedded arithmetic table has 85 signatures: 76 cocompact, 9 cusped."""
    cusped = {s for s in ARITHMETIC_SIGNATURES if INF in s}
    assert len(ARITHMETIC_SIGNATURES) == 85
    assert len(cusped) == 9
    assert len(ARITHMETIC_SIGNATURES) - len(cusped) == 76
    for key in ARITHMETIC_SIGNATURES:
        assert geometry(Signature(*key)) is Geometry.HYPERBOLIC
    _report("criterion 3 (arithmetic table)", "85 signatures = 76 cocompact + 9 cusped")


def test_criterion_4_maximality_patterns():
    """is_maximal is false exactly on (2,l,2l), (3,l,3l), (k,l,l) in any
    order, for all signatures with entries <= 30 or infinity."""

    def reference(tri):
        def times(f, x):
            return INF if x == INF else f * x

        for a, b, c in itertools.permutations(tri):
            if b == c or (a == 2 and c == times(2, b)) or (a == 3 and c == times(3, b)):
                return False
        return True

    entries = list(range(2, 31)) + [INF]
    n = 0
    for tri in itertools.combinations_with_replacement(entries, 3):
        assert is_maximal(Signature(*tri)) == reference(tri), tri
        n += 1
    _report("criterion 4 (maximality patterns)", f"{n} signatures match the pattern predicate")


def test_criterion_5_exact_cocycle_and_pullback_identities():
    """Cocycle and pullback identities as exact rational-function equalities
    on 200 randomized cases with degrees <= 6; zero tolerance."""
    rng = random.Random(97)

    def rand_poly():
        deg = rng.randint(0, 6)
        cs = [rng.randint(-4, 4) for _ in range(deg + 1)]
        if all(c == 0 for c in cs):
            cs[-1] = rng.choice([-2, -1, 1, 2])
        if cs[-1] == 0:
            cs[-1] = 1
        return Poly(cs)

    def rand_ratfunc(nonconstant=False):
        while True:
            f = RatFunc(rand_poly(), rand_poly())
            if not nonconstant or not f.is_constant:
                return f

    for case in range(200):
        f = rand_ratfunc(nonconstant=True)
        g = rand_ratfunc(nonconstant=True)
        r = rand_ratfunc()
        phi = rand_ratfunc(nonconstant=True)
        dg = derivative(g)
        lhs = schwarzian(compose(f, g))
        rhs = compose(schwarzian(f), g) * dg * dg + schwarzian(g)
        assert lhs == rhs, f"cocycle case {case}"
        assert schwarz_pullback(schwarz_pullback(r, phi), g) == schwarz_pullback(
            r, compose(phi, g)
        ), f"pullback case {case}"
    _report("criterion 5 (exact identities)", "200 cocycle+pullback cases, exact equality")


def test_criterion_6_numerical_residuals():
    """Order-40 series at base 1/2: principal, Riccati and inverted-equation
    residuals below 1e-8 for the (2,3,7) and cusp parameter triples, and the
    pullback check along y^2 passes at 1e-8."""
    lines = []
    for label, p in [
        ("1/2,1/3,1/7", AngleParams(F(1, 2), F(1, 3), F(1, 7))),
        ("0,0,0", AngleParams(F(0), F(0), F(0))),
    ]:
        r = build_r(p)
        rp = residual_principal(r, F(1, 2), 40).max_abs_residual
        rr = residual_riccati(r, F(1, 2), 40).max_abs_residual
        ri = residual_inverse(r, F(1, 2), 40).max_abs_residual
        assert rp < 1e-8 and rr < 1e-8 and ri < 1e-8, (label, rp, rr, ri)
        lines.append(f"{label}: principal {rp:.2e}, riccati {rr:.2e}, inverse {ri:.2e}")
    y = RatFunc.variable()
    pb = verify_pullback(build_r(AngleParams(F(0), F(0), F(0))), y * y, F(1, 2), 40)
    assert pb.max_abs_residual < 1e-8
    lines.append(f"pullback y^2: {pb.max_abs_residual:.2e}")
    _report("criterion 6 (series residuals, order 40)", "; ".join(lines))


def test_criterion_7_monodromy_trace_law():
    """|trace| matches |2 cos(pi e)| at both singularities to 1e-6 over a
    20-triple sweep; determinants within 1e-8 of 1; halving the loop radii
    moves entries by less than 1e-8."""
    rng = random.Random(5)
    triples = set()
    while len(triples) < 20:
        triples.add(
            tuple(F(rng.randint(1, 7), rng.randint(2, 8)) for _ in range(3))
        )
    worst_trace = worst_det = 0.0
    for a, b, c in triples:
        p = AngleParams(a, b, c)
        rep = monodromy(p)
        e = exponent_differences(p)
        for m, x in ((rep.m0, e.at0), (rep.m1, e.at1)):
            err = abs(abs(np.trace(m)) - abs(2 * math.cos(math.pi * float(x))))
            worst_trace = max(worst_trace, err)
            worst_det = max(worst_det, abs(np.linalg.det(m) - 1))
    assert worst_trace < 1e-6
    assert worst_det < 1e-8
    p = AngleParams(F(1, 2), F(1, 3), F(1, 7))
    rep = monodromy(p)
    halved = (continue_solution(build_r(p), LoopSpec(center=c, radius=0.125).polyline()) for c in (0j, 1 + 0j))
    drift = max(float(np.max(np.abs(m - h))) for m, h in zip((rep.m0, rep.m1), halved))
    assert drift < 1e-8
    _report(
        "criterion 7 (monodromy traces)",
        f"20 triples: worst trace err {worst_trace:.2e}, worst det err {worst_det:.2e}, "
        f"radius-halving drift {drift:.2e}",
    )


def test_criterion_8_wronskian_constancy():
    """Unit Wronskian through the truncation order for 50 random admissible
    (R, base) pairs: exact coefficients for rational bases, 1e-12 for
    floating bases kept a unit distance from the poles."""
    rng = random.Random(6)

    def rand_params():
        return AngleParams(*[F(rng.randint(0, 6), rng.randint(1, 6)) for _ in range(3)])

    for case in range(25):
        r = build_r(rand_params())
        base = F(rng.randint(1, 9), 10)
        if r.den(base) == 0:
            base = F(1, 2)
        psi1, psi2 = series_solve_linear(r, base, 12)
        w = psi1 * psi2.derivative() - psi2 * psi1.derivative()
        assert w.coefficients[0] == 1, case
        assert all(c == 0 for c in w.coefficients[1:]), case

    for case in range(25):
        r = build_r(rand_params())
        # stay a unit distance away from the poles at 0 and 1
        base = complex(rng.uniform(-0.5, 1.5), rng.uniform(1.0, 2.0))
        psi1, psi2 = series_solve_linear(r, base, 24)
        w = psi1 * psi2.derivative() - psi2 * psi1.derivative()
        assert abs(w.coefficients[0] - 1) < 1e-12, case
        assert all(abs(c) < 1e-12 for c in w.coefficients[1:]), case
    _report(
        "criterion 8 (Wronskian constancy)",
        "25 exact rational pairs + 25 floating pairs, unit Wronskian",
    )


def _possible_finite_order(order: int, local: list[int]) -> bool:
    """Whether a finite subgroup of PSL2(C) of this order is generated by
    a0, a1 with a0, a1 and a0 a1 of the projective orders ``local``: cyclic
    of order their lcm (in an abelian group each of the three orders divides
    the lcm of the other two), dihedral of order 2n from orders (2, 2, n), or
    tetrahedral (12), octahedral (24) or icosahedral (60)."""
    q = sorted(local)
    cyclic = all(math.lcm(*q[:i], *q[i + 1 :]) % q[i] == 0 for i in range(3))
    polyhedral = {12: {2, 3}, 24: {2, 3, 4}, 60: {2, 3, 5}}.get(order, set())
    return (
        (cyclic and order == math.lcm(*q))
        or (q[:2] == [2, 2] and order == 2 * q[2])
        or set(q) <= polyhedral
    )


def test_criterion_9_shifted_exponent_agreement():
    """Exact classifier vs monodromy oracle on 400 seeded triples of
    integer-shifted and negative exponent differences p/q, q in 2..5,
    |p/q| <= 6, non-integer: no disagreements, nothing inconclusive, and
    every finite order is that of a finite subgroup of PSL2(C) generated by
    elements of the local orders q."""
    records, summary = sweep_records(shifted_params())
    disagreements = [r for r in records if r["agree"] is False]
    inconclusive = [r for r in records if r["agree"] is None]
    impossible = [
        r for r in records
        if r["oracle"]["kind"] == "finite"
        and not _possible_finite_order(r["oracle"]["order"], [F(t).denominator for t in r["triple"]])
    ]
    assert not disagreements, disagreements[:5]
    assert not inconclusive, inconclusive[:5]
    assert not impossible, impossible[:5]
    kinds = Counter(r["oracle"]["kind"] for r in records)
    _report(
        "criterion 9 (oracle agreement, shifted and negative exponents)",
        f"{summary['cases']} cases, all agree; kinds {dict(sorted(kinds.items()))}",
    )


def test_criterion_10_batched_oracle_with_cusps_and_integer_exponents():
    """Exact classifier vs the batched monodromy oracle on all 18,424
    unordered triples of exponents in [0, 1] with denominators <= 12, cusps
    (0) and integer exponents (1) included, in one ``monodromy`` call: no
    disagreements and nothing inconclusive."""
    values = sorted({F(p, q) for q in range(1, 13) for p in range(q + 1)})
    triples = list(itertools.combinations_with_replacement(values, 3))
    assert len(triples) == 18424
    records, summary = sweep_records([AngleParams.from_exponent_differences(*t) for t in triples])
    assert summary["disagreements"] == 0, [r for r in records if r["agree"] is False][:5]
    assert summary["inconclusive"] == 0, [r for r in records if r["agree"] is None][:5]
    worst = max(r["oracle"]["tolerance_used"] for r in records)
    _report(
        "criterion 10 (batched oracle agreement, den <= 12 with cusps)",
        f"{summary['cases']} cases, all agree; largest tolerance used {worst:.2e}",
    )


def test_criterion_11_signed_trace_law():
    """The loop matrices obey the trace law with its sign: tr M0, tr M1 and
    tr M0 M1 are -2cos(pi e) at 0, 1 and infinity, each within 1e-7, on
    every reduced triple with denominators <= 8 and on the 400 triples of
    criterion 9, drawn as it draws them."""
    sweep, shifted = den8_params(), shifted_params()
    worst = {}
    for label, ps in (("den <= 8", sweep), ("criterion 9", shifted)):
        defects = []
        for p, rep in zip(ps, monodromy(ps)):
            e = exponent_differences(p)
            for m, x in zip((rep.m0, rep.m1, rep.m0 @ rep.m1), e.as_tuple()):
                defects.append((abs(np.trace(m) + 2 * math.cos(math.pi * x)), p))
        worst[label] = max(defects, key=lambda d: d[0])
        assert worst[label][0] < 1e-7, worst[label]
    _report(
        "criterion 11 (signed trace law)",
        f"{len(sweep)} + {len(shifted)} triples; worst signed defect "
        + ", ".join(f"{label} {d:.2e}" for label, (d, _) in worst.items()),
    )
