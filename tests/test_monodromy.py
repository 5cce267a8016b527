"""Tests for the numerical monodromy oracle."""

import cmath
import importlib
import itertools
import math
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from schwarztri.cli import exponent_values
from schwarztri.monodromy import (
    _CHUNK,
    InconclusiveError,
    LoopSpec,
    MonodromyRep,
    _MIN_STEP,
    _POLE_CLEARANCE,
    _STEP_FACTOR,
    _TAYLOR_ORDER,
    _cached_step_plan,
    _det,
    _normalize,
    _step_plan,
    _taylor_step,
    classify_projective,
    continue_solution,
    monodromy,
)
from schwarztri.rational import RatFunc
from schwarztri.series import _shift_coeffs, poles, series_solve_linear
from schwarztri.triangle import AngleParams, build_r, exponent_differences


# the package re-exports the function ``monodromy`` under the module's name
monodromy_module = importlib.import_module("schwarztri.monodromy")


def params(a, b, c):
    return AngleParams(F(a), F(b), F(c))


# -- reference: the per-step continuation that the batched one replaced, kept
# word for word but for the names


def _reference_taylor_step(r: RatFunc, z: complex, h: complex) -> np.ndarray:
    columns = []
    for s in series_solve_linear(r, z, _TAYLOR_ORDER + 2):
        value = slope = 0j
        for c in reversed(s.coefficients):
            slope = slope * h + value
            value = value * h + c
        columns.append((value, slope))
    return np.array(columns).T


def _reference_continue_solution(r, path):
    pole_list = poles(r)
    transfer = np.eye(2, dtype=complex)
    for a, b in zip(path, path[1:]):
        a, b = complex(a), complex(b)
        seg = b - a
        length = abs(seg)
        if length == 0:
            continue
        direction = seg / length
        s = 0.0
        while s < length:
            z = a + direction * s
            dist = min((abs(p - z) for p in pole_list), default=math.inf)
            if dist < _POLE_CLEARANCE:
                raise RuntimeError(f"path passes within {_POLE_CLEARANCE} of a pole near {z}")
            h = min(length - s, dist * _STEP_FACTOR, 0.5)
            if h < _MIN_STEP:
                raise RuntimeError(
                    f"step size underflow at {z}: path passes too close to a pole"
                )
            transfer = _reference_taylor_step(r, z, direction * h) @ transfer
            s += h
    return transfer


# -- reference: the batched Taylor step with the element-wise recurrence and
# the Horner pass that the two-call recurrence and the power matrix
# replaced, kept word for word but for the names


def _reference_solve_recurrence(ns: list, ds: list, order: int, c0, c1) -> list:
    # the recurrence divided by 2 d_0, as (i, d_i / d_0) and (i, n_i / 2 d_0)
    d_terms = [(i, d / ds[0]) for i, d in enumerate(ds)][1:]
    n_terms = [(i, n / (2 * ds[0])) for i, n in enumerate(ns)]
    zero = c0 * 0
    c, e = [c0, c1], [zero, zero]
    # e_j and c_j from the x^(j-2) coefficient; only i <= j - 2 contribute,
    # since e_0 = e_1 = 0.  The sums are rebound, never added to in place:
    # with array entries an in-place add would write into ``zero``.
    for j in range(2, order + 1):
        s = zero
        for i, d in d_terms:
            if i > j - 2:
                break
            s = s + d * e[j - i]
        for i, n in n_terms:
            if i > j - 2:
                break
            s = s + n * c[j - 2 - i]
        e.append(-s)
        c.append(-s / (j * (j - 1)))
    return c


def _reference_batched_taylor_step(r, z, h) -> np.ndarray:
    rs = [r] if isinstance(r, RatFunc) else r
    # a trailing axis of length 2 runs the pair side by side, a leading one
    # the equations; every operand gets the full shape, as broadcasting
    # costs numpy more than the arithmetic
    z = np.asarray(z, dtype=complex)
    shape = (len(rs),) + z.shape + (2,)
    z = z[..., None] + np.zeros(shape)
    h = np.asarray(h, dtype=complex)[..., None] + np.zeros(shape)
    # the numerators' coefficients, padded with zeros to one length, each a
    # column over the equations
    width = max(len(f.num.coeffs) for f in rs)
    num = np.zeros((width, len(rs)) + (1,) * (z.ndim - 1), dtype=complex)
    for k, f in enumerate(rs):
        for i, c in enumerate(f.num.coeffs):
            num[i, k] = c.numerator / c.denominator
    den = [complex(c.numerator / c.denominator) for c in rs[0].den.coeffs]
    ns, ds = _shift_coeffs(list(num), z), _shift_coeffs(den, z)
    if np.any(ds[0] == 0):
        raise ZeroDivisionError("a step center is a pole")
    coefficients = _reference_solve_recurrence(
        ns, ds, _TAYLOR_ORDER + 2, z * 0 + [1, 0], z * 0 + [0, 1]
    )
    value = slope = 0j
    for c in reversed(coefficients):
        slope = slope * h + value
        value = value * h + c
    stack = np.stack([value, slope], axis=-2)
    return stack[0] if isinstance(r, RatFunc) else stack


def _non_resonant_triples(seed: int, count: int) -> list[AngleParams]:
    """Seeded triples of exponent differences p/q with q in 2..5 and
    |p/q| <= 6, none an integer."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        values = []
        for _ in range(3):
            q = rng.randint(2, 5)
            values.append(F(rng.randint(-6 * q, 6 * q), q))
        if all(v.denominator > 1 for v in values):
            out.append(AngleParams(*values))
    return out


def _conditioning(r: RatFunc, path) -> float:
    """max_k |T_k|^2 over the partial transfers T_k along the path (max-abs
    norm).  T_k is unimodular, so |T_k^-1| = |T_k|: a relative rounding
    error made at step k reaches the end of the path amplified by up to
    |T_k| |T_k^-1| = |T_k|^2."""
    transfer, worst = np.eye(2, dtype=complex), 1.0
    for m in _taylor_step([r], *_step_plan(r, path))[0]:
        transfer = m @ transfer
        worst = max(worst, float(np.max(np.abs(transfer))) ** 2)
    return worst


class TestLoopSpec:
    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            LoopSpec(center=0j, radius=0.6)
        with pytest.raises(ValueError):
            LoopSpec(center=0j, radius=0.0)

    def test_base_outside_circle(self):
        # every loop starts at 1/2, which must lie outside its circle
        with pytest.raises(ValueError):
            LoopSpec(center=0.4 + 0j, radius=0.25)
        with pytest.raises(ValueError):
            LoopSpec(center=0.5 + 0.1j, radius=0.1)

    def test_polyline_closes_at_base(self):
        path = LoopSpec(center=0j).polyline()
        assert path[0] == path[-1] == 0.5 + 0j


class TestContinuation:
    def test_trivial_equation_identity_loop(self):
        m = continue_solution(RatFunc.constant(0), LoopSpec(center=0j).polyline())
        assert np.max(np.abs(m - np.eye(2))) < 1e-10

    def test_segment_transport_matches_series(self):
        # transport along a pole-free segment equals direct series evaluation;
        # 0.5 -> 0.6 is one step, 0.5 -> 0.7 two, so there the product of the
        # transfer matrices is compared
        r = build_r(params("1/2", "1/3", "1/7"))
        psi1, psi2 = series_solve_linear(r, 0.5 + 0j, 40)
        for end in (0.6, 0.7):
            m = continue_solution(r, [0.5 + 0j, end + 0j])
            expected = np.array(
                [
                    [psi1(end), psi2(end)],
                    [psi1.derivative()(end), psi2.derivative()(end)],
                ]
            )
            assert np.max(np.abs(m - expected)) < 1e-11

    def test_taylor_step_matches_series_evaluation(self):
        # the one-pass values and derivatives equal evaluating the series and
        # their derivative series at z + h, and the transfer matrix is unimodular
        r = build_r(params("1/2", "1/3", "1/7"))
        steps = ((0.5, 0.1), (0.5, 0.125j), (0.25, -0.0875), (0.7 - 0.2j, 0.05 + 0.05j))
        for z, h in steps:
            m = _taylor_step([r], np.array([z]), np.array([h]))[0, 0]
            pair = series_solve_linear(r, z, _TAYLOR_ORDER + 2)
            w = z + h
            expected = np.array([[s(w) for s in pair], [s.derivative()(w) for s in pair]])
            assert np.max(np.abs(m - expected)) <= 1e-14 * np.max(np.abs(expected)), (z, h)
            assert abs(np.linalg.det(m) - 1) < 1e-13, (z, h)

    def test_batched_steps_match_scalar_steps(self):
        # one array call gives the stack of the one-step calls' matrices
        r = build_r(params("1/2", "1/3", "1/7"))
        zs, hs = _step_plan(r, LoopSpec(center=1 + 0j).polyline())
        zs = np.concatenate([zs, [0.5, 0.5, 0.25, 0.7 - 0.2j]])
        hs = np.concatenate([hs, [0.1, 0.125j, -0.0875, 0.05 + 0.05j]])
        stack = _taylor_step([r], zs, hs)
        assert stack.shape == (1, len(zs), 2, 2)
        for z, h, m in zip(zs, hs, stack[0]):
            single = _taylor_step([r], np.array([z]), np.array([h]))
            assert single.shape == (1, 1, 2, 2)
            single = single[0, 0]
            assert np.max(np.abs(m - single)) <= 1e-14 * np.max(np.abs(single)), (z, h)

    def test_taylor_step_over_equations_matches_one_equation(self):
        # a sequence of equations with one denominator adds a leading axis;
        # each slice is bit for bit the single equation's stack, a numerator
        # of lower degree (exponent 1 at infinity) included
        triples = (("1/2", "1/3", "1/7"), (1, "1/3", "1/7"), ("1/4", "1/4", "1/4"))
        rs = [build_r(params(*t)) for t in triples]
        assert len({r.den for r in rs}) == 1 and rs[1].num.degree < rs[0].num.degree
        zs, hs = _step_plan(rs[0], LoopSpec(center=0j).polyline())
        stack = _taylor_step(rs, zs, hs)
        assert stack.shape == (3, len(zs), 2, 2)
        for r, got in zip(rs, stack):
            assert np.array_equal(got, _taylor_step([r], zs, hs)[0])

    def test_taylor_step_matches_elementwise_reference(self):
        # the two-call recurrence and the power matrix against the
        # element-wise recurrence and Horner pass they replaced, on shifted
        # triples and the step plans of the default and of radius-0.125
        # loops, one equation at a time and as one chunk of equations: each
        # step matrix within 1e-14 of the reference's size (they agree to
        # 3.4e-16 of it)
        triples = _non_resonant_triples(seed=13, count=_CHUNK)
        rs = [build_r(p) for p in triples]
        assert len({r.den for r in rs}) == 1
        for radius in (0.25, 0.125):
            for center in (0j, 1 + 0j):
                zs, hs = _step_plan(rs[0], LoopSpec(center=center, radius=radius).polyline())
                expected = _reference_batched_taylor_step(rs, zs, hs)
                singles = np.stack([_taylor_step([r], zs, hs)[0] for r in rs])
                for got in (_taylor_step(rs, zs, hs), singles):
                    assert got.shape == expected.shape == (_CHUNK, len(zs), 2, 2)
                    diff = np.max(np.abs(got - expected), axis=(-2, -1))
                    size = np.max(np.abs(expected), axis=(-2, -1))
                    assert np.all(diff <= 1e-14 * size), (radius, center, np.max(diff / size))

    def test_batched_continuation_matches_per_step_reference(self):
        # the batched continuation against the per-step one it replaced, on
        # the default loops and on radius-0.125 loops.  The two round
        # differently (numpy's complex multiply and divide round otherwise
        # than Python's), so they are compared relative to the path's
        # conditioning, at least 1: 1e-13 of it is 1e-11 on paths whose
        # partial transfers stay below 10 in size, and the two agree to
        # 7e-16 of it on these triples (plain relative: up to 9e-11)
        for p in _non_resonant_triples(seed=9, count=24):
            r = build_r(p)
            for radius in (0.25, 0.125):
                for center in (0j, 1 + 0j):
                    path = LoopSpec(center=center, radius=radius).polyline()
                    expected = _reference_continue_solution(r, path)
                    got = continue_solution(r, path)
                    rel = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
                    assert rel <= 1e-13 * _conditioning(r, path), (p, radius, center, rel)

    def test_step_rounding_short_of_segment_end(self):
        # 0.35 * 0.2 falls one ulp short of the segment's length 0.07: the
        # remainder, far below the smallest step, is taken by the last step
        r = build_r(params("1/2", "1/3", "1/7"))
        zs, hs = _step_plan(r, [0.2 + 0j, 0.27 + 0j])
        assert zs[-1] + hs[-1] == 0.27
        m = continue_solution(r, [0.2 + 0j, 0.27 + 0j])
        psi1, psi2 = series_solve_linear(r, 0.2 + 0j, 40)
        expected = np.array(
            [[psi1(0.27), psi2(0.27)], [psi1.derivative()(0.27), psi2.derivative()(0.27)]]
        )
        assert np.max(np.abs(m - expected)) < 1e-11

    def test_segment_shorter_than_min_step(self):
        # far from any pole, a segment shorter than _MIN_STEP is one step
        r = build_r(params("1/2", "1/3", "1/7"))
        m = continue_solution(r, [0.5 + 0j, 0.5 + 1e-13])
        assert np.max(np.abs(m - np.eye(2))) < 1e-12
        m = continue_solution(r, [0.5 + 0j, 0.5 + 5e-13, 0.7 + 0j])
        expected = continue_solution(r, [0.5 + 0j, 0.7 + 0j])
        assert np.max(np.abs(m - expected)) < 1e-12 * np.max(np.abs(expected))

    def test_non_finite_node_rejected(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(ValueError):
            continue_solution(r, [0.5 + 0j, complex("nan")])
        with pytest.raises(ValueError):
            monodromy(params("1/2", "1/3", "1/7"), loop0=LoopSpec(center=complex("inf")))

    def test_path_through_pole_raises(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(RuntimeError):
            continue_solution(r, [0.5 + 0j, -0.5 + 0j])  # crosses the pole at 0

    def test_cached_plan_is_a_fresh_plan(self):
        # the cache returns, bit for bit, what planning afresh gives, in
        # arrays that cannot be written
        r = build_r(params("1/2", "1/3", "1/7"))
        for loop in (LoopSpec(center=0j), LoopSpec(center=1 + 0j, radius=0.125)):
            path = loop.polyline()
            fresh = _cached_step_plan.__wrapped__(r.den, tuple(path))
            for _ in range(2):
                plan = _step_plan(r, path)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(plan, fresh))
                for a in plan:
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0

    def test_plan_cache_keys_on_the_denominator(self):
        # an exponent of 1 at 0 leaves the poles at 0 and 1 but makes the
        # one at 0 simple: a new denominator, so a plan of its own
        exponents = (AngleParams(F(1, 5), F(1, 2), F(1, 3)), AngleParams(F(1, 5), F(1), F(1, 3)))
        assert exponent_differences(exponents[1]).at0 == 1
        double, simple = (build_r(p) for p in exponents)
        assert double.den != simple.den
        path = LoopSpec(center=1 + 0j).polyline()
        _cached_step_plan.cache_clear()
        plan = _step_plan(double, path)
        other = _step_plan(simple, path)
        assert other is not plan
        assert _cached_step_plan.cache_info().misses == _cached_step_plan.cache_info().currsize == 2
        fresh = _cached_step_plan.__wrapped__(simple.den, tuple(path))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(other, fresh))
        assert _step_plan(double, path) is plan

    def test_path_through_pole_raises_on_every_call(self):
        # a failed plan is not cached
        r = build_r(params("1/2", "1/3", "1/7"))
        for _ in range(3):
            with pytest.raises(RuntimeError):
                _step_plan(r, [0.5 + 0j, -0.5 + 0j])

    def test_continuation_over_equations_returns_a_stack(self):
        rs = [build_r(params(*t)) for t in (("1/2", "1/3", "1/7"), ("1/3", "2/5", "1/7"))]
        path = LoopSpec(center=1 + 0j).polyline()
        stack = continue_solution(rs, path)
        assert stack.shape == (2, 2, 2)
        for r, m in zip(rs, stack):
            assert np.array_equal(m, continue_solution(r, path))
        assert continue_solution([], path).shape == (0, 2, 2)

    def test_mixed_denominators_match_one_at_a_time(self):
        # an exponent of 1 at 1 makes the pole there simple, one at 0 the
        # pole at 0, and r = 0 has the denominator 1: interleaved with more
        # equations of the common denominator than one chunk holds, each
        # matrix comes back in input order, bit for bit its own
        special = [params("1/3", "2/5", 1), params("1/2", 1, "1/5"), params(1, 1, 1)]
        common = [params(F(1, a), F(1, b), F(2, 7)) for a in (2, 3, 4, 5) for b in (3, 4, 5, 6)]
        rs = [build_r(p) for p in common[:3] + special[:2] + common[3:9] + special[2:] + common[9:]]
        assert len({r.den for r in rs}) == 4 and len(common) > _CHUNK
        for center in (0j, 1 + 0j):
            path = LoopSpec(center=center).polyline()
            stack = continue_solution(rs, path)
            assert stack.shape == (len(rs), 2, 2)
            for r, m in zip(rs, stack):
                assert m.tobytes() == continue_solution(r, path).tobytes()

    def test_hurwitz_loop_trace(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        m0 = continue_solution(r, LoopSpec(center=0j).polyline())
        assert abs(np.trace(m0) - (-2 * math.cos(math.pi / 3))) < 1e-6


class TestMonodromy:
    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            monodromy(AngleParams.generic())

    def test_trace_law_hurwitz(self):
        rep = monodromy(params("1/2", "1/3", "1/7"))
        assert abs(np.trace(rep.m0) - (-2 * math.cos(math.pi / 3))) < 1e-6
        assert abs(np.trace(rep.m1) - (-2 * math.cos(math.pi / 7))) < 1e-6
        assert not rep.resonant_warning

    def test_cusp_parabolic(self):
        rep = monodromy(params(0, 0, 0))
        for m in (rep.m0, rep.m1):
            assert abs(abs(np.trace(m)) - 2) < 1e-6
            assert np.max(np.abs(m - np.eye(2))) > 1e-3  # not the identity
        assert rep.resonant_warning

    def test_determinants_within_estimated_error(self):
        rep = monodromy(params("1/3", "2/5", "1/7"))
        for m in (rep.m0, rep.m1):
            assert abs(np.linalg.det(m) - 1) <= rep.estimated_error
        assert rep.estimated_error < 1e-8

    def test_one_determinant_for_defects_and_normalization(self):
        rep = monodromy(params("1/3", "2/5", "1/7"))
        for m in (rep.m0, rep.m1):
            assert abs(_det(m) - 1) <= rep.estimated_error
            assert abs(_det(m) - np.linalg.det(m)) <= 1e-14 * np.max(np.abs(m)) ** 2
            assert abs(_det(_normalize(m)) - 1) < 1e-14

    def test_loop_radius_independence(self):
        p = params("1/2", "1/3", "1/7")
        rep1 = monodromy(p)
        rep2 = monodromy(
            p,
            loop0=LoopSpec(center=0j, radius=0.125),
            loop1=LoopSpec(center=1 + 0j, radius=0.125),
        )
        assert np.max(np.abs(rep1.m0 - rep2.m0)) < 1e-8
        assert np.max(np.abs(rep1.m1 - rep2.m1)) < 1e-8

    def test_loops_with_rounding_short_of_nodes(self):
        # on radius-0.325 loops a step rounds one ulp short of a node; the
        # trace law holds as on the default loops
        p = params("1/2", "1/3", "1/7")
        rep = monodromy(
            p,
            loop0=LoopSpec(center=0j, radius=0.325),
            loop1=LoopSpec(center=1 + 0j, radius=0.325),
        )
        default = monodromy(p)
        assert np.max(np.abs(rep.m0 - default.m0)) < 1e-8
        assert np.max(np.abs(rep.m1 - default.m1)) < 1e-8
        assert rep.estimated_error < 1e-12

    def test_record_round_trip(self):
        rec = monodromy(params("1/2", "1/2", "1/2")).to_record()
        assert set(rec) == {"m0", "m1", "estimated_error", "resonant_warning"}


def _same_rep(a: MonodromyRep, b: MonodromyRep) -> bool:
    return (
        a.m0.tobytes() == b.m0.tobytes()
        and a.m1.tobytes() == b.m1.tobytes()
        and a.estimated_error == b.estimated_error
        and a.resonant_warning == b.resonant_warning
    )


class TestBatchedMonodromy:
    def test_matches_one_triple_at_a_time_on_the_sweep(self):
        # every reduced triple with denominators <= 8, as the sweep places
        # them: one denominator, so 148 chunks in each of two calls
        values = exponent_values(8)
        ps = [
            AngleParams(e_alpha=t2, e_beta=t0, e_gamma=t1)
            for t0, t1, t2 in itertools.combinations_with_replacement(values, 3)
        ]
        reps = monodromy(ps)
        assert len(reps) == len(ps) == 1771
        assert all(_same_rep(rep, monodromy(p)) for p, rep in zip(ps, reps))

    def test_matches_one_triple_at_a_time_on_a_mixed_list(self, monkeypatch):
        # exponents of 1 that make a pole of r simple (at 0, at 1) or only
        # lower the numerator's degree (at infinity), the triple with r = 0,
        # cusps, and more triples of the common denominator than one chunk
        # holds
        special = [
            params(1, "1/3", "1/7"),
            params("1/2", 1, "1/5"),
            params("1/3", "2/5", 1),
            params(1, 1, 1),
            params(0, 0, 0),
            params(0, "1/2", 1),
        ]
        assert build_r(params(1, 1, 1)).is_zero
        common = [params(F(1, a), F(1, b), F(2, 7)) for a in (2, 3, 4, 5) for b in (3, 4, 5, 6)]
        ps = common[:5] + special + common[5:]
        assert len(common) > _CHUNK
        calls, plans, chunks = [], [], []
        original = monodromy_module.continue_solution
        original_plan = monodromy_module._step_plan
        original_step = monodromy_module._taylor_step

        def counted(r, path):
            calls.append(len(r))
            return original(r, path)

        def planned(r, path):
            plans.append(r.den)
            return original_plan(r, path)

        def stepped(rs, zs, hs):
            assert len({f.den for f in rs}) == 1
            chunks.append((rs[0].den, len(rs)))
            return original_step(rs, zs, hs)

        monkeypatch.setattr(monodromy_module, "continue_solution", counted)
        monkeypatch.setattr(monodromy_module, "_step_plan", planned)
        monkeypatch.setattr(monodromy_module, "_taylor_step", stepped)
        # one plan a loop and denominator, and each denominator's equations
        # in chunks of at most _CHUNK, for each of the two loops
        sizes = Counter(build_r(p).den for p in ps)
        assert len(sizes) == 4
        expected = Counter()
        for den, n in sizes.items():
            for start in range(0, n, _CHUNK):
                expected[den, min(_CHUNK, n - start)] += 2
        loops = {
            "loop0": LoopSpec(center=0j, radius=0.2),
            "loop1": LoopSpec(center=1 + 0j, radius=0.3),
        }
        for kwargs in ({}, loops):
            calls.clear()
            plans.clear()
            chunks.clear()
            reps = monodromy(ps, **kwargs)
            assert calls == [len(ps), len(ps)]
            assert Counter(plans) == {den: 2 for den in sizes}
            assert Counter(chunks) == expected
            assert all(_same_rep(rep, monodromy(p, **kwargs)) for p, rep in zip(ps, reps))

    def test_input_order_and_empty_input(self):
        ps = [params("1/2", "1/3", "1/7"), params(1, "1/3", "1/7"), params("1/2", "1/2", "1/2")]
        forward, backward = monodromy(ps), monodromy(ps[::-1])
        assert all(_same_rep(a, b) for a, b in zip(forward, backward[::-1]))
        assert [classify_projective(rep).kind for rep in forward] == [
            classify_projective(monodromy(p)).kind for p in ps
        ]
        assert monodromy([]) == []
        assert isinstance(monodromy(ps[0]), MonodromyRep)

    def test_generic_in_a_batch_rejected(self):
        with pytest.raises(ValueError):
            monodromy([params("1/2", "1/3", "1/7"), AngleParams.generic()])


def _rep(m0, m1):
    return MonodromyRep(
        m0=np.array(m0, dtype=complex),
        m1=np.array(m1, dtype=complex),
        estimated_error=1e-13,
    )


class TestClassifyProjective:
    def test_identity_pair_is_trivial_group(self):
        cls = classify_projective(_rep(np.eye(2), np.eye(2)))
        assert cls.kind == "finite" and cls.order == 1

    def test_diagonal_infinite_order(self):
        a = cmath.exp(1j * 0.7)  # irrational rotation angle
        m = [[a, 0], [0, 1 / a]]
        cls = classify_projective(_rep(m, m))
        assert cls.kind == "triangularizable"

    def test_infinite_dihedral(self):
        a = cmath.exp(1j * 0.7)
        rot = [[a, 0], [0, 1 / a]]
        swap = [[0, 1], [-1, 0]]
        cls = classify_projective(_rep(rot, swap))
        assert cls.kind == "dihedral"

    def test_klein_four_is_finite(self):
        rep = monodromy(params("1/2", "1/2", "1/2"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 4

    def test_icosahedral_order(self):
        rep = monodromy(params("1/2", "1/3", "1/5"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 60

    def test_hurwitz_dense(self):
        rep = monodromy(params("1/2", "1/3", "1/7"))
        assert classify_projective(rep).kind == "dense"

    def test_unitary_regime_dense(self):
        rep = monodromy(params("3/4", "1/4", "1/4"))
        assert classify_projective(rep).kind == "dense"

    def test_reducible_euclidean_triangularizable(self):
        rep = monodromy(params("1/2", "1/3", "1/6"))
        assert classify_projective(rep).kind == "triangularizable"

    def test_finite_order_cap_respected(self):
        # a dihedral group of order 2q is finite up to the cap of 120 only
        swap = [[0, 1], [-1, 0]]
        for q, expected in ((60, ("finite", 120)), (61, ("dihedral", None))):
            a = cmath.exp(1j * math.pi / q)
            cls = classify_projective(_rep([[a, 0], [0, 1 / a]], swap))
            assert (cls.kind, cls.order) == expected

    def test_inconclusive_raises_not_misreports(self):
        # an icosahedral rep whose estimated error is too large to separate
        # the loci must raise rather than report dense
        rep = monodromy(params("1/2", "1/3", "1/5"))
        assert classify_projective(replace(rep, estimated_error=4e-8)).order == 60
        for err in (1e-7, 1e-3):
            with pytest.raises(InconclusiveError):
                classify_projective(replace(rep, estimated_error=err))

    def test_finite_dihedral_pair(self):
        a = cmath.exp(1j * math.pi / 5)
        cls = classify_projective(_rep([[a, 0], [0, 1 / a]], [[0, 1], [-1, 0]]))
        assert cls.kind == "finite" and cls.order == 10

    def test_parabolic_is_not_finite(self):
        cls = classify_projective(_rep([[1, 1], [0, 1]], np.eye(2)))
        assert cls.kind == "triangularizable"

    def test_shifted_icosahedral_regression(self):
        # exponent differences 1/2 at 0, 13/3 at 1 and 1/5 at infinity: the
        # loop matrices have entries above 5e3, and the group is icosahedral
        rep = monodromy(params("1/5", "1/2", "13/3"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 60

    def test_record_reports_tolerance_and_margin(self):
        cls = classify_projective(monodromy(params("1/2", "1/3", "1/7")))
        rec = cls.to_record()
        assert set(rec) == {"kind", "order", "tolerance_used", "margin"}
        assert rec["margin"] > 1000 * rec["tolerance_used"]
