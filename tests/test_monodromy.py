"""Tests for the numerical monodromy oracle."""

import cmath
import importlib
import math
import random
import warnings
from collections import Counter
from dataclasses import asdict, fields, replace
from fractions import Fraction as F

import numpy as np
import pytest
from definitions import convolution_solve_linear, den8_params, shifted_params

from schwarztri.monodromy import (
    _CHUNK,
    _DEGREES,
    _LOOPS,
    _MAX_GROUP_ORDER,
    _T5,
    _TAYLOR_ORDER,
    _TOL_FACTOR,
    _TOL_FLOOR,
    _TOL_MAX,
    InconclusiveError,
    LoopSpec,
    MonodromyRep,
    ProjectiveClass,
    _det,
    _normalize,
    _step_plan,
    _StepPlan,
    _taylor_step,
    classify_projective,
    continue_solution,
    monodromy,
)
from schwarztri.rational import RatFunc
from schwarztri.series import _den_terms, _shift_coeffs, _solve_recurrence, poles
from schwarztri.triangle import AngleParams, build_r, exponent_differences


# the package re-exports the function ``monodromy`` under the module's name
monodromy_module = importlib.import_module("schwarztri.monodromy")


def params(a, b, c):
    return AngleParams(F(a), F(b), F(c))


# -- reference: the continuation end to end, its step constants written out:
# steps of 0.35 times the distance to the nearest pole, at most 1/2 and what
# is left of the segment, and a step that would leave less than 1e-12 runs to
# the segment's end; the Taylor step that compiled step plans replaced, kept
# word for word but for the names, the recurrence's call and the conversion
# of the coefficients to complex, by the integer ratio; and the pairwise
# product of the step matrices, padded with identities to a power of two


def _complex_coeffs(coeffs) -> list[complex]:
    return [complex(c.numerator / c.denominator) for c in coeffs]


def _reference_uncompiled_taylor_step(rs, zs: np.ndarray, hs: np.ndarray) -> np.ndarray:
    # the numerators' coefficients, padded with zeros to one length, each a
    # column over the equations; at least one, which carries the equations'
    # axis when every r is 0
    width = max(1, max(len(f.num.coeffs) for f in rs))
    num = np.zeros((width, len(rs), 1), dtype=complex)
    for k, f in enumerate(rs):
        num[: len(f.num.coeffs), k, 0] = _complex_coeffs(f.num.coeffs)
    ns = _shift_coeffs(list(num), zs)
    ds = _shift_coeffs(_complex_coeffs(rs[0].den.coeffs), zs)
    if np.any(ds[0] == 0):
        raise ZeroDivisionError("a step center is a pole")
    coefficients = _solve_recurrence(*_den_terms(ds), ns, _TAYLOR_ORDER + 2)
    # h^0, h^1, ... by a running product, and m h^(m-1) from them
    powers = np.empty(hs.shape + (2, _TAYLOR_ORDER + 3), dtype=complex)
    powers[..., 0, 0] = 1
    powers[..., 0, 1:] = hs[..., None]
    np.cumprod(powers[..., 0, :], axis=-1, out=powers[..., 0, :])
    powers[..., 1, 0] = 0
    np.multiply(powers[..., 0, :-1], _DEGREES, out=powers[..., 1, 1:])
    # summed from the highest power down, the smallest terms first, which
    # rounds less than summing up
    return np.matmul(powers[..., ::-1], coefficients[..., ::-1, :])


def _reference_continuation(rs, path) -> tuple[np.ndarray, np.ndarray]:
    """The step matrices (T, steps, 2, 2) and the loop matrices (T, 2, 2) of
    the T equations ``rs``, which share a denominator, along ``path``."""
    pole_list = poles(rs[0])
    zs, hs = [], []
    for a, b in zip(path, path[1:]):
        seg = b - a
        length = abs(seg)
        if length == 0:
            continue
        direction = seg / length
        s = 0.0
        while True:
            z = a + direction * s
            dist = min((abs(p - z) for p in pole_list), default=math.inf)
            h = min(length - s, dist * 0.35, 0.5)
            zs.append(z)
            if length - s - h < 1e-12:
                hs.append(b - z)
                break
            hs.append(direction * h)
            s += h
    steps = _reference_uncompiled_taylor_step(rs, np.array(zs), np.array(hs))
    pad = (1 << (len(zs) - 1).bit_length()) - len(zs)
    product = np.concatenate([steps, np.broadcast_to(np.eye(2, dtype=complex), (len(rs), pad, 2, 2))], axis=1)
    while product.shape[1] > 1:
        product = product[:, 1::2] @ product[:, ::2]
    return steps, product[:, 0]


# -- reference: the projective classification on numpy 2x2 matrices that
# the Python complex arithmetic replaced, kept word for word but for the
# names

_REFERENCE_IDENTITY = np.eye(2, dtype=complex)


def _reference_det(m: np.ndarray) -> complex:
    """The determinant ad - bc of a 2x2 matrix."""
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]


def _reference_normalize(m: np.ndarray) -> np.ndarray:
    return m / cmath.sqrt(_reference_det(m))


def _reference_norm(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


def _reference_order(a: np.ndarray, cap: int) -> tuple[int, float]:
    """The projective order q <= ``cap`` nearest to that of the
    unit-determinant ``a``, and the distance of ``a`` from having order q."""
    t = np.trace(a)
    theta = math.acos(min(max(t.real / 2, -1.0), 1.0)) / math.pi
    angle = F(theta).limit_denominator(cap)
    dist = abs(t - 2 * math.cos(math.pi * angle))
    if angle.denominator == 1:
        # of trace +-2 only the scalars have finite order, not the parabolics
        dist = max(dist, _reference_norm(a - t / 2 * _REFERENCE_IDENTITY) / _reference_norm(a))
    return angle.denominator, dist


def _reference_classify_projective(rep: MonodromyRep) -> ProjectiveClass:
    """Classify the projectivized group generated by the loop matrices by the
    trace rule of the module docstring.  Raises ``InconclusiveError`` when
    the tolerance from ``rep.estimated_error`` cannot separate the loci."""
    tol = max(_TOL_FACTOR * rep.estimated_error, _TOL_FLOOR)
    if tol > _TOL_MAX:
        raise InconclusiveError(
            f"tolerance {tol:.2e} from estimated error {rep.estimated_error:.2e} "
            f"exceeds {_TOL_MAX:.0e}, beyond which the loci are not separated"
        )
    a0 = _reference_normalize(rep.m0.astype(complex))
    a1 = _reference_normalize(rep.m1.astype(complex))
    mats = (a0, a1, a0 @ a1)
    x, y, z = (np.trace(m) for m in mats)
    kappa = x * x + y * y + z * z - x * y * z - 2
    missed: list[float] = []

    def holds(dist: float) -> bool:
        if dist > tol:
            missed.append(float(dist))
        return dist <= tol

    def result(kind: str, order=None) -> ProjectiveClass:
        return ProjectiveClass(kind, order, tol, min(missed, default=None))

    if holds(abs(kappa - 2)):
        (q0, d0), (q1, d1) = (_reference_order(a, _MAX_GROUP_ORDER) for a in (a0, a1))
        commutator = _reference_norm(a0 @ a1 - a1 @ a0) / (_reference_norm(a0) * _reference_norm(a1))
        if holds(max(commutator, d0, d1)) and math.lcm(q0, q1) <= _MAX_GROUP_ORDER:
            return result("finite", math.lcm(q0, q1))
        return result("triangularizable")
    if holds(sorted(map(abs, (x, y, z)))[1]):
        # the two matrices of trace 0 are involutions: dihedral of twice the
        # order q of the third
        q, dist = _reference_order(max(mats, key=lambda m: abs(np.trace(m))), _MAX_GROUP_ORDER // 2)
        return result("finite", 2 * q) if holds(dist) else result("dihedral")
    nearest = [min((abs(t - v), n) for v, n in _T5) for t in (x, y, z, x * y - z, kappa)]
    if holds(max(nearest)[0]):
        return result("finite", {5: 60, 4: 24}.get(max(n for _, n in nearest[:4]), 12))
    return result("dense")


def plan_of(r: RatFunc, path) -> _StepPlan:
    """The cached step plan of ``r``'s denominator along ``path``."""
    return _step_plan(r._d, tuple(map(complex, path)))


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


def _seed9_group() -> list[RatFunc]:
    return [build_r(p) for p in _non_resonant_triples(seed=9, count=24)]


def _plan_groups() -> list[list[RatFunc]]:
    """Two chunks of _CHUNK shifted triples (seeds 16 and 13), and the
    denominators of an exponent 1 at 0 and at 1, the lower-degree numerator
    of an exponent 1 at infinity, and r = 0, one equation each."""
    chunks = [[build_r(p) for p in _non_resonant_triples(seed=seed, count=_CHUNK)] for seed in (16, 13)]
    special = [params("1/3", 1, "1/5"), params("1/3", "2/5", 1), params(1, "1/3", "1/7"), params(1, 1, 1)]
    return chunks + [[build_r(p)] for p in special]


def _loops() -> list[tuple[complex, ...]]:
    """The default and radius-0.125 loops around 0 and 1."""
    return [LoopSpec(center=c, radius=radius).polyline() for radius in (0.25, 0.125) for c in (0j, 1 + 0j)]


def _assert_matches_reference(groups, paths) -> None:
    """Each group's step matrices and loop matrices along each path equal
    ``_reference_continuation``'s byte for byte, shapes included; a chunk of
    _CHUNK also one equation at a time."""
    assert all(len({r._d for r in rs}) == 1 for rs in groups)
    for rs in groups:
        for path in paths:
            plan = plan_of(rs[0], path)
            steps, loops = _reference_continuation(rs, path)
            got = _taylor_step(rs, plan)
            assert got.shape == steps.shape == (len(rs), len(plan.zs), 2, 2)
            assert got.tobytes() == steps.tobytes(), (rs[0], path)
            got = continue_solution(rs, path)
            assert got.shape == loops.shape == (len(rs), 2, 2)
            assert got.tobytes() == loops.tobytes(), (rs[0], path)
            if len(rs) == _CHUNK:
                for r, want_steps, want in zip(rs, steps, loops):
                    assert _taylor_step([r], plan)[0].tobytes() == want_steps.tobytes()
                    assert continue_solution(r, path).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("center", [complex("inf"), complex("nan"), complex(math.nan, 0)], ids=str)
    def test_non_finite_center_rejected(self, center):
        # such a center would give nan nodes, which fail only later, in
        # continue_solution, with a message that names no loop
        with pytest.raises(ValueError) as info:
            LoopSpec(center=center)
        assert str(info.value) == f"loop center must be finite, not {center}"


class TestContinuation:
    def test_trivial_equation_identity_loop(self):
        m = continue_solution(RatFunc.constant(0), LoopSpec(center=0j).polyline())
        assert np.max(np.abs(m - np.eye(2))) < 1e-10

    def test_segment_transport_matches_series(self):
        # transport along a pole-free segment equals direct series evaluation;
        # 0.5 -> 0.6 is one step, 0.5 -> 0.7 two, so there the product of the
        # transfer matrices is compared
        r = build_r(params("1/2", "1/3", "1/7"))
        psi1, psi2 = convolution_solve_linear(r, 0.5 + 0j, 40)
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
            m = _taylor_step([r], _StepPlan.compile(r, [z], [h]))[0, 0]
            pair = convolution_solve_linear(r, z, _TAYLOR_ORDER + 2)
            w = z + h
            expected = np.array([[s(w) for s in pair], [s.derivative()(w) for s in pair]])
            assert np.max(np.abs(m - expected)) <= 1e-14 * np.max(np.abs(expected)), (z, h)
            assert abs(np.linalg.det(m) - 1) < 1e-13, (z, h)

    def test_step_center_at_a_pole_rejected(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(ZeroDivisionError, match="is a pole"):
            _StepPlan.compile(r, [0.25, 1.0], [0.1, 0.1])

    def test_batched_steps_match_scalar_steps(self):
        # one array call gives the stack of the one-step calls' matrices
        r = build_r(params("1/2", "1/3", "1/7"))
        plan = plan_of(r, LoopSpec(center=1 + 0j).polyline())
        zs = np.concatenate([plan.zs, [0.5, 0.5, 0.25, 0.7 - 0.2j]])
        hs = np.concatenate([plan.hs, [0.1, 0.125j, -0.0875, 0.05 + 0.05j]])
        stack = _taylor_step([r], _StepPlan.compile(r, zs, hs))
        assert stack.shape == (1, len(zs), 2, 2)
        for z, h, m in zip(zs, hs, stack[0]):
            single = _taylor_step([r], _StepPlan.compile(r, [z], [h]))
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
        plan = plan_of(rs[0], LoopSpec(center=0j).polyline())
        stack = _taylor_step(rs, plan)
        assert stack.shape == (3, len(plan.zs), 2, 2)
        for r, got in zip(rs, stack):
            assert np.array_equal(got, _taylor_step([r], plan)[0])

    def test_batched_continuation_matches_per_step_reference(self):
        # the seed-9 set of 24 triples on the default and radius-0.125 loops
        _assert_matches_reference([_seed9_group()], _loops())

    def test_interleaved_batch_sizes_match_reference(self):
        # batches of 1, _CHUNK, a remainder and _CHUNK plus a remainder, on
        # both default loops in turn, then the first again: each solve
        # reuses the recurrence workspace of its shape, which another shape
        # may have used since, and every matrix is still the reference's
        group = _seed9_group()
        batches = [group[:1], group[:_CHUNK], group[_CHUNK : _CHUNK + 5], group[3 : _CHUNK + 8], group[:1]]
        got = [(rs, path, continue_solution(rs, path)) for rs in batches for path in _LOOPS]
        for rs, path, loops in got:
            assert loops.tobytes() == _reference_continuation(rs, path)[1].tobytes(), (len(rs), path)

    def test_continuation_matches_reference_bit_for_bit(self):
        # every group of the two reference tests along a path whose steps
        # reach the cap of 1/2 and a segment whose first step leaves 5e-11
        groups = [_seed9_group(), *_plan_groups()]
        cap, remainder = (0.5 + 0j, 0.5 + 3j, 0.5 + 0j), (0.5 + 0j, 0.675 + 5e-11 + 0j)
        assert np.abs(plan_of(groups[0][0], cap).hs).max() == 0.5
        assert len(plan_of(groups[0][0], remainder).hs) == 2
        _assert_matches_reference(groups, [cap, remainder])

    def test_step_rounding_short_of_segment_end(self):
        # 0.35 * 0.2 falls one ulp short of the segment's length 0.07: the
        # remainder, far below the smallest step, is taken by the last step
        r = build_r(params("1/2", "1/3", "1/7"))
        plan = plan_of(r, [0.2 + 0j, 0.27 + 0j])
        assert plan.zs[-1] + plan.hs[-1] == 0.27
        m = continue_solution(r, [0.2 + 0j, 0.27 + 0j])
        psi1, psi2 = convolution_solve_linear(r, 0.2 + 0j, 40)
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

    def test_degenerate_segments_are_skipped(self):
        # a repeated node is a zero-length segment, which takes no step: the
        # path without it gives the same matrix, bit for bit, and a path of
        # no segment of positive length gives the identity
        r = build_r(params("1/2", "1/3", "1/7"))
        path = LoopSpec(center=0j).polyline()
        repeated = path[:3] + path[2:]
        assert continue_solution(r, repeated).tobytes() == continue_solution(r, path).tobytes()
        for path in ([], [0.5], [0.5, 0.5]):
            assert continue_solution(r, path).tobytes() == np.eye(2, dtype=complex).tobytes(), path

    def test_non_finite_node_rejected(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(ValueError):
            continue_solution(r, [0.5 + 0j, complex("nan")])
        with pytest.raises(ValueError):
            continue_solution(r, [0.5 + 0j, complex("inf"), 0.5 + 0j])

    def test_path_through_pole_raises(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(RuntimeError):
            continue_solution(r, [0.5 + 0j, -0.5 + 0j])  # crosses the pole at 0

    def test_cached_plan_is_a_fresh_plan(self):
        # the cache returns, bit for bit, what compiling afresh gives, in
        # arrays that cannot be written
        r = build_r(params("1/2", "1/3", "1/7"))
        for loop in (LoopSpec(center=0j), LoopSpec(center=1 + 0j, radius=0.125)):
            path = loop.polyline()
            fresh = _step_plan.__wrapped__(r._d, path)
            for _ in range(2):
                plan = plan_of(r, path)
                for field in fields(_StepPlan):
                    a, b = getattr(plan, field.name), getattr(fresh, field.name)
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
                    assert not a.flags.writeable
                    with pytest.raises(ValueError):
                        a[0] = 0

    def test_plan_cache_keys_on_the_denominator(self):
        # an exponent of 1 at 0 leaves the poles at 0 and 1 but makes the
        # one at 0 simple: a new denominator, so a plan of its own
        exponents = (AngleParams(F(1, 5), F(1, 2), F(1, 3)), AngleParams(F(1, 5), F(1), F(1, 3)))
        assert exponent_differences(exponents[1]).at0 == 1
        double, simple = (build_r(p) for p in exponents)
        assert double._d != simple._d
        path = LoopSpec(center=1 + 0j).polyline()
        _step_plan.cache_clear()
        plan = plan_of(double, path)
        other = plan_of(simple, path)
        assert other is not plan
        assert _step_plan.cache_info().misses == _step_plan.cache_info().currsize == 2
        fresh = _step_plan.__wrapped__(simple._d, path)
        for field in fields(_StepPlan):
            assert getattr(other, field.name).tobytes() == getattr(fresh, field.name).tobytes()
        assert plan_of(double, path) is plan

    def test_path_through_pole_raises_on_every_call(self):
        # a failed plan is not cached
        r = build_r(params("1/2", "1/3", "1/7"))
        for _ in range(3):
            with pytest.raises(RuntimeError):
                plan_of(r, [0.5 + 0j, -0.5 + 0j])

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


class TestMonodromy:
    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            monodromy(AngleParams.generic())

    def test_trace_law_hurwitz(self):
        rep = monodromy(params("1/2", "1/3", "1/7"))
        assert abs(np.trace(rep.m0) - (-2 * math.cos(math.pi / 3))) < 1e-6
        assert abs(np.trace(rep.m1) - (-2 * math.cos(math.pi / 7))) < 1e-6

    def test_cusp_parabolic(self):
        rep = monodromy(params(0, 0, 0))
        for m in (rep.m0, rep.m1):
            assert abs(abs(np.trace(m)) - 2) < 1e-6
            assert np.max(np.abs(m - np.eye(2))) > 1e-3  # not the identity

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

    def test_loops_with_rounding_short_of_nodes(self):
        # on radius-0.325 loops a step rounds one ulp short of a node; the
        # trace law holds as on the default loops
        p = params("1/2", "1/3", "1/7")
        m0, m1 = (continue_solution(build_r(p), LoopSpec(center=c, radius=0.325).polyline()) for c in (0j, 1 + 0j))
        default = monodromy(p)
        assert np.max(np.abs(m0 - default.m0)) < 1e-8
        assert np.max(np.abs(m1 - default.m1)) < 1e-8
        # the determinant and signed trace-law defects that make up an
        # estimated error
        defects = [abs(np.linalg.det(m) - 1) for m in (m0, m1)]
        for m, x in zip((m0, m1, m0 @ m1), exponent_differences(p).as_tuple()):
            defects.append(abs(np.trace(m) + 2 * math.cos(math.pi * x)))
        assert max(defects) < 1e-12

    def test_trace_law_checks_the_sign(self, monkeypatch):
        # a loop matrix of the wrong sign has the right |trace| and
        # determinant, so only the signed law tr M = -2cos(pi e) sees it
        p = params("1/2", "1/3", "1/7")
        rep = monodromy(p)
        e = exponent_differences(p)
        for m, x in zip((rep.m0, rep.m1, rep.m0 @ rep.m1), e.as_tuple()):
            assert abs(np.trace(m) + 2 * math.cos(math.pi * x)) <= rep.estimated_error
        original = monodromy_module.continue_solution
        calls = []

        def flipped(r, path):
            stack = original(r, path)
            calls.append(path)
            return -stack if len(calls) == 1 else stack

        monkeypatch.setattr(monodromy_module, "continue_solution", flipped)
        bad = monodromy(p)
        assert bad.m0.tobytes() == (-rep.m0).tobytes()
        assert abs(abs(np.trace(bad.m0)) - 2 * math.cos(math.pi * e.at0)) < 1e-12
        assert bad.estimated_error > 1
        with pytest.raises(InconclusiveError):
            classify_projective(bad)

    def test_overflowing_loop_matrices_are_inconclusive(self):
        # exponent difference 401/2 at 0: the loop matrices overflow to inf
        # and nan, without a numpy warning, and the oracle gives no verdict
        # rather than "dense"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = monodromy(AngleParams(F(1, 3), F(401, 2), F(1, 2)))
            assert not np.isfinite(rep.m0).all()
            assert rep.estimated_error == math.inf
            with pytest.raises(InconclusiveError):
                classify_projective(rep)
        assert not caught, [str(w.message) for w in caught]

    def test_nan_in_the_second_loop_matrix_gives_an_infinite_error(self, monkeypatch):
        # max() keeps a nan only in first place: a nan in m1 alone, whose
        # defects come after m0's, still makes the error infinite
        p = params("1/2", "1/3", "1/7")
        rep = monodromy(p)
        m1 = rep.m1.copy()
        m1[0, 0] = complex("nan")
        original = monodromy_module.continue_solution
        calls = []

        def spoiled(r, path):
            calls.append(path)
            return original(r, path) if len(calls) == 1 else m1[None]

        monkeypatch.setattr(monodromy_module, "continue_solution", spoiled)
        bad = monodromy([p])[0]
        assert bad.m0.tobytes() == rep.m0.tobytes()
        assert bad.estimated_error == math.inf
        with pytest.raises(InconclusiveError):
            classify_projective(bad)


def _same_rep(a: MonodromyRep, b: MonodromyRep) -> bool:
    return (
        a.m0.tobytes() == b.m0.tobytes()
        and a.m1.tobytes() == b.m1.tobytes()
        and a.estimated_error == b.estimated_error
    )


class TestBatchedMonodromy:
    def test_matches_one_triple_at_a_time_on_the_sweep(self):
        # every reduced triple with denominators <= 8: one denominator, so
        # 148 chunks in each of two calls
        ps = den8_params()
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

        def planned(den, path):
            plans.append(den)
            return original_plan(den, path)

        def stepped(rs, plan):
            assert len({f._d for f in rs}) == 1
            chunks.append((rs[0]._d, len(rs)))
            return original_step(rs, plan)

        monkeypatch.setattr(monodromy_module, "continue_solution", counted)
        monkeypatch.setattr(monodromy_module, "_step_plan", planned)
        monkeypatch.setattr(monodromy_module, "_taylor_step", stepped)
        # one plan a loop and denominator, and each denominator's equations
        # in chunks of at most _CHUNK, for each of the two loops
        sizes = Counter(build_r(p)._d for p in ps)
        assert len(sizes) == 4
        expected = Counter()
        for den, n in sizes.items():
            for start in range(0, n, _CHUNK):
                expected[den, min(_CHUNK, n - start)] += 2
        reps = monodromy(ps)
        assert calls == [len(ps), len(ps)]
        assert Counter(plans) == {den: 2 for den in sizes}
        assert Counter(chunks) == expected
        assert all(_same_rep(rep, monodromy(p)) for p, rep in zip(ps, reps))
        # as on other loops, which ``monodromy`` continues through the same
        # ``continue_solution``
        rs = [build_r(p) for p in ps]
        for loop in (LoopSpec(center=0j, radius=0.2), LoopSpec(center=1 + 0j, radius=0.3)):
            path = loop.polyline()
            plans.clear()
            chunks.clear()
            stack = original(rs, path)
            assert Counter(plans) == {den: 1 for den in sizes}
            assert Counter(chunks) == {key: n // 2 for key, n in expected.items()}
            assert all(m.tobytes() == original(r, path).tobytes() for r, m in zip(rs, stack))

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

    def test_tolerance_that_is_not_finite_raises(self):
        # a nan estimated error gives a nan tolerance, which must fail the
        # check against _TOL_MAX rather than pass it
        rep = monodromy(params("1/2", "1/3", "1/7"))
        for err in (math.nan, math.inf):
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
        # the fields in their order, as dataclasses.asdict gives them
        assert list(rec.items()) == list(asdict(cls).items())
        assert list(rec) == ["kind", "order", "tolerance_used", "margin"]
        assert rec["margin"] > 1000 * rec["tolerance_used"]

    @pytest.mark.parametrize("kind", ["finite", "dihedral", "triangularizable", "dense"])
    def test_integrable_kinds(self, kind):
        # proper subgroups of PSL2(C) are integrable, the Zariski dense group not
        assert ProjectiveClass(kind, None, 1e-9, None).integrable is (kind != "dense")

    def test_inconclusive_record(self):
        record = InconclusiveError("loci not separated").to_record()
        assert record == {"kind": "inconclusive", "detail": "loci not separated"}


class TestCompiledPlanMatchesReference:
    def test_step_matrices_bit_for_bit(self):
        # compiled plans against the uncompiled Taylor step, through the one
        # continuation reference: two chunks, also one equation at a time,
        # and four special denominators, on the default and radius-0.125 loops
        groups = _plan_groups()
        assert len({rs[0]._d for rs in groups}) == 4
        _assert_matches_reference(groups, _loops())


def _same_class(rep: MonodromyRep, rounding: float = 0.0) -> None:
    """classify_projective agrees with the numpy reference on ``rep``: the
    same kind and order, or both inconclusive, tolerance_used within 1e-12
    relative, and margin within 1e-12 relative or within ``rounding``."""
    try:
        want = _reference_classify_projective(rep)
    except InconclusiveError:
        with pytest.raises(InconclusiveError):
            classify_projective(rep)
        return
    got = classify_projective(rep)
    assert (got.kind, got.order) == (want.kind, want.order)
    assert got.tolerance_used == pytest.approx(want.tolerance_used, rel=1e-12, abs=0)
    if want.margin is None:
        assert got.margin is None
    else:
        assert abs(got.margin - want.margin) <= max(1e-12 * want.margin, rounding), rep


class TestClassifyProjectiveMatchesReference:
    def test_on_the_sweep(self):
        for rep in monodromy(den8_params()):
            _same_class(rep)

    def test_on_shifted_exponents(self):
        # the 400 triples of acceptance criterion 9
        for rep in monodromy(shifted_params()):
            # loop matrices with entries up to 7e4: z = tr A0 A1 sums
            # products of that size, which numpy rounds otherwise (its
            # complex division, and fused multiply-adds in the BLAS matmul),
            # so the margins may differ by the rounding of that sum
            # (measured: up to 6.8e-16 times |M0| |M1|, or 3.9e-12 of the
            # margin)
            size = np.max(np.abs(rep.m0)) * np.max(np.abs(rep.m1))
            _same_class(rep, rounding=16 * np.finfo(float).eps * size)

    def test_on_hand_built_cases(self):
        a = cmath.exp(1j * 0.7)
        swap = [[0, 1], [-1, 0]]
        cases = [
            (np.eye(2), np.eye(2)),
            ([[a, 0], [0, 1 / a]], [[a, 0], [0, 1 / a]]),
            ([[a, 0], [0, 1 / a]], swap),
            ([[1, 1], [0, 1]], np.eye(2)),
        ]
        for q in (5, 60, 61):
            b = cmath.exp(1j * math.pi / q)
            cases.append(([[b, 0], [0, 1 / b]], swap))
        reps = [_rep(m0, m1) for m0, m1 in cases]
        for triple in (("1/2", "1/2", "1/2"), ("1/2", "1/3", "1/5"), ("1/2", "1/3", "1/6"), ("1/5", "1/2", "13/3")):
            rep = monodromy(params(*triple))
            reps += [replace(rep, estimated_error=err) for err in (rep.estimated_error, 4e-8, 1e-7)]
        for rep in reps:
            _same_class(rep)
