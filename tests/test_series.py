"""Tests for the truncated power-series machinery."""

import cmath
import functools
import math
import random
import warnings
from fractions import Fraction as F
from math import comb

import mpmath
import numpy as np
import pytest
from definitions import bits, convolution_solve_linear, deriv, horner

from schwarztri.cli import parse_phi
from schwarztri.monodromy import _CHUNK, _TAYLOR_ORDER, LoopSpec, _step_plan
from schwarztri.rational import MobiusMap, Poly, RatFunc, _complex_parts, schwarz_pullback
from schwarztri.series import (
    _QUIET,
    PowerSeries,
    ResidualReport,
    _coerce_base,
    _den_roots,
    _den_terms,
    _shift_coeffs,
    _shifted,
    _solve_recurrence,
    _table,
    default_disk_radius,
    poles,
    residual_inverse,
    residual_principal,
    residual_riccati,
    schwarz_map,
    series_compose,
    series_invert,
    series_schwarzian,
    series_solve_linear,
    taylor_coefficients,
    verify_pullback,
)
from schwarztri.triangle import AngleParams, build_r

Y = RatFunc.variable()
R_HURWITZ = build_r(AngleParams(F(1, 2), F(1, 3), F(1, 7)))
R_CUSP = build_r(AngleParams(F(0), F(0), F(0)))


def rand_ratfunc(rng, max_deg=3):
    def poly():
        cs = [rng.randint(-3, 3) for _ in range(rng.randint(1, max_deg + 1))]
        if all(c == 0 for c in cs):
            cs[-1] = 1
        return Poly(cs)

    return RatFunc(poly(), poly())


class TestTaylor:
    def test_exact_geometric(self):
        cs = taylor_coefficients(1 / (1 - Y), F(0), 5)
        assert cs == [F(1)] * 6

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            taylor_coefficients(1 / Y, F(0), 4)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_base_times_denominator(self, seed):
        # at an exact base b, the series of N/D times D(b + x) is N(b + x)
        # exactly through the order, for denominators of degree 2 to 6
        rng = random.Random(seed)

        def shifted(p, b):  # coefficients of p(b + x)
            return [sum(c * comb(i, k) * b ** (i - k) for i, c in enumerate(p) if i >= k)
                    for k in range(len(p))]

        def rand_coeffs(n):
            return [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)]

        for deg in range(2, 7):
            num = rand_coeffs(rng.randint(1, 5))
            den = rand_coeffs(deg) + [F(rng.randint(1, 5))]
            base = F(rng.randint(-6, 6), rng.randint(1, 5))
            while shifted(den, base)[0] == 0:
                base += 1
            order = deg + rng.randint(1, 6)
            cs = taylor_coefficients(RatFunc(Poly(num), Poly(den)), base, order)
            ns, ds = shifted(num, base), shifted(den, base)
            for k in range(order + 1):
                product = sum(ds[j] * cs[k - j] for j in range(min(k, deg) + 1))
                assert product == (ns[k] if k < len(ns) else 0)

    def test_matches_evaluation(self):
        f = (Y * Y - 2) / (Y + 3)
        s = PowerSeries(0.5 + 0j, taylor_coefficients(f, 0.5 + 0j, 30))
        z = 0.6 + 0.05j
        assert abs(s(z) - f(z)) < 1e-12


class TestBoolBasePoint:
    """A bool is no base point, as it is no exact scalar (``as_fraction``):
    every function that takes a base rejects it, rather than expanding at 1
    or 0, or reporting a pole there in floating point."""

    CALLS = {
        "taylor_coefficients": lambda r, b: taylor_coefficients(r, b, 3),
        "series_solve_linear": lambda r, b: series_solve_linear(r, b, 12),
        "schwarz_map": lambda r, b: schwarz_map(r, b, 12),
        "default_disk_radius": lambda r, b: default_disk_radius(r, b),
        "residual_principal": lambda r, b: residual_principal(r, b, 10),
        "residual_riccati": lambda r, b: residual_riccati(r, b, 10),
        "verify_pullback": lambda r, b: verify_pullback(r, Y * Y + Y, b, 10),
    }

    @pytest.mark.parametrize("base", [True, False])
    @pytest.mark.parametrize("r", [1 / (Y + 3), R_HURWITZ], ids=["regular", "poles"])
    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_rejected(self, call, r, base):
        with pytest.raises(TypeError, match="^booleans are not base points$"):
            self.CALLS[call](r, base)


class TestPolesCache:
    @pytest.mark.parametrize(
        "f",
        [
            RatFunc(Poly([1]), Poly([0, 0, 2, -4, 2])),
            RatFunc(Poly([1, 2]), Poly([3, 0, F(1, 7)])),
            RatFunc(Poly([5])),
        ],
    )
    def test_same_list_before_and_after_the_cache_fills(self, f):
        _den_roots.cache_clear()
        first = poles(f)
        assert _den_roots.cache_info().misses == 1
        second = poles(f)
        assert _den_roots.cache_info().hits == 1
        assert first == second and first is not second
        # bit for bit the uncached roots of the complex denominator
        assert first == [complex(r) for r in np.roots(_complex_parts(f)[1][::-1])]

    def test_a_returned_list_is_the_callers(self):
        f = RatFunc(Poly([1]), Poly([0, -1, 1]))
        first = poles(f)
        expected = list(first)
        first.append(7j)
        first[0] = 0j
        assert poles(f) == expected


class TestSeriesOps:
    def test_mul_truncates_to_min_order(self):
        a = PowerSeries(F(0), [F(1), F(1), F(1)])
        b = PowerSeries(F(0), [F(1), F(-1)])
        assert (a * b).coefficients == (F(1), F(0))

    def test_base_point_mismatch(self):
        with pytest.raises(ValueError):
            PowerSeries(F(0), [F(1)]) + PowerSeries(F(1), [F(1)])

    def test_equal_series_hash_equal(self):
        a = PowerSeries(F(1, 2), [F(1), F(2), F(3)])
        b = PowerSeries(F(1, 2), (1, 2, 3))
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_base_point_and_length_distinguish(self):
        a = PowerSeries(F(1, 2), [1, 2, 3])
        assert a != PowerSeries(F(1, 3), [1, 2, 3])
        assert a != PowerSeries(F(1, 2), [1, 2])
        assert a != PowerSeries(F(1, 2), [1, 2, 3, 0])

    def test_not_equal_to_a_tuple(self):
        a = PowerSeries(F(1, 2), [1, 2])
        assert (a == (F(1, 2), (1, 2))) is False
        assert (a == (1, 2)) is False

    def test_reflected_subtraction(self):
        assert 3 - PowerSeries(F(1, 2), [1, 2, F(1, 3)]) == PowerSeries(F(1, 2), [2, -2, F(-1, 3)])
        assert 3 - PowerSeries(0j, [1j, 2.5]) == PowerSeries(0j, [3 - 1j, -2.5])

    def test_reciprocal_exact(self):
        s = PowerSeries(F(0), [F(1), F(2), F(3), F(4)])
        r = s.reciprocal()
        assert (s * r).coefficients == (F(1), F(0), F(0), F(0))

    def test_error_messages(self):
        with pytest.raises(ValueError, match="^a power series needs at least its constant term$"):
            PowerSeries(F(0), [])
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            PowerSeries(F(0), [1, 2]).truncate(-1)
        with pytest.raises(ZeroDivisionError, match="^series has a zero constant term$"):
            PowerSeries(F(0), [1, 2]) / PowerSeries(F(0), [0, 1])
        with pytest.raises(ValueError, match="^order too small for a meaningful Schwarzian$"):
            series_schwarzian(PowerSeries(F(0), [0, 1, 0, 0]))

    def test_repr(self):
        assert repr(PowerSeries(F(1, 2), [1, 2, 3, 4, 5])) == "PowerSeries(base=1/2, [1, 2, 3, 4, ...], order=4)"
        assert repr(PowerSeries(0j, [1.5, 2j])) == "PowerSeries(base=0j, [1.5, 2j], order=1)"


def reference_equations(seed, count):
    """r = 0, seeded build_r triples and their pullbacks along polynomial maps
    of degree 2 to 4, whose denominators reach degree 12 and above."""
    rng = random.Random(seed)
    maps = (Y * Y, 3 * Y * Y - 2 * Y * Y * Y, 2 * Y * Y * Y - Y * Y * Y * Y)
    out = [RatFunc.constant(0)]
    for _ in range(count):
        p = AngleParams(*(F(rng.randint(-12, 12), rng.randint(1, 6)) for _ in range(3)))
        r = build_r(p)
        out += [r, schwarz_pullback(r, rng.choice(maps))]
    return out


def exact_base(r: RatFunc, rng) -> F:
    """A seeded exact base point that is not a pole of ``r``."""
    base = F(rng.randint(1, 9), 10)
    while r.den(base) == 0:
        base += F(1, 7)
    return base


class TestLinearSolver:
    def test_zero_potential(self):
        psi1, psi2 = series_solve_linear(RatFunc.constant(0), F(0), 5)
        assert psi1.coefficients == (F(1),) + (F(0),) * 5
        assert psi2.coefficients == (F(0), F(1)) + (F(0),) * 4

    def test_pole_base_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_solve_linear(R_HURWITZ, F(0), 10)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            series_solve_linear(R_CUSP, F(1, 2), 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_convolution_solver(self, seed):
        # the recurrence of the cleared equation gives the same series as the
        # convolution with the Taylor coefficients of r: equal on exact bases,
        # within 1e-12 relative a coefficient on floating ones
        rng = random.Random(100 + seed)
        degrees = set()
        for r in reference_equations(seed, 6):
            degrees.add(r.den.degree)
            for order in range(2, 15):
                base = exact_base(r, rng)
                assert series_solve_linear(r, base, order) == convolution_solve_linear(
                    r, base, order
                ), (r, base, order)
            z = complex(rng.uniform(0.1, 0.9), rng.uniform(-0.3, 0.3))
            new = series_solve_linear(r, z, 14)
            old = convolution_solve_linear(r, z, 14)
            for a, b in zip(new, old):
                for x, y in zip(a.coefficients, b.coefficients):
                    assert abs(x - y) <= 1e-12 * abs(y), (r, z)
        # some denominators have degree above most of the orders
        assert max(degrees) >= 12 and 0 in degrees

    def test_coefficient_types(self):
        # Fractions on exact bases, Python complex numbers on floating ones
        for base, kind in ((F(1, 2), F), (0.5 + 0.1j, complex)):
            for s in series_solve_linear(R_HURWITZ, base, 12):
                assert all(type(c) is kind for c in s.coefficients), base
            j = series_invert(schwarz_map(R_HURWITZ, base, 12))
            for s in (j, series_compose(PowerSeries(base, taylor_coefficients(Y * Y, base, 12)), j)):
                assert all(type(c) is kind for c in s.coefficients), base

    def test_overflow_runs_on_without_warning(self):
        # coefficients past the float range become inf and nan, which the
        # residual reports reject, and numpy warns of nothing on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi1, _ = series_solve_linear(R_HURWITZ, 0.001 + 0j, 120)
        assert not all(cmath.isfinite(c) for c in psi1.coefficients)

    def test_exact_wronskian(self):
        psi1, psi2 = series_solve_linear(R_HURWITZ, F(1, 2), 14)
        w = psi1 * psi2.derivative() - psi2 * psi1.derivative()
        assert w.coefficients[0] == 1
        assert all(c == 0 for c in w.coefficients[1:])

    def test_floating_wronskian(self):
        psi1, psi2 = series_solve_linear(R_CUSP, 0.5 + 0.1j, 30)
        w = psi1 * psi2.derivative() - psi2 * psi1.derivative()
        assert abs(w.coefficients[0] - 1) < 1e-12
        # the cancellation is exact relative to the size of the products
        scale = max(abs(c) for c in psi1.coefficients) * max(
            abs(c) for c in psi2.derivative().coefficients
        )
        assert all(abs(c) < 1e-12 * scale for c in w.coefficients[1:])


class TestSchwarzMap:
    def test_zero_potential_gives_shift(self):
        t = schwarz_map(RatFunc.constant(0), F(1, 4), 6)
        assert t.coefficients == (F(0), F(1)) + (F(0),) * 5

    def test_unit_derivative_at_base(self):
        t = schwarz_map(R_HURWITZ, 0.5 + 0j, 20)
        assert t.coefficients[1] == 1

    def test_principal_residual(self):
        report = residual_principal(R_HURWITZ, F(1, 2), 40)
        assert report.max_abs_residual < 1e-8
        assert report.truncation_order == 40

    def test_residual_decreases_with_order(self):
        floor = 1e-13
        residuals = [
            residual_principal(R_HURWITZ, F(1, 2), n).max_abs_residual
            for n in (8, 12, 16, 20, 24)
        ]
        for lo, hi in zip(residuals[1:], residuals):
            assert lo < hi or lo < floor


@pytest.mark.parametrize("order", [-5, 0, 3])
def test_principal_residual_minimum_order(order):
    with pytest.raises(ValueError, match="order must be at least 4 to form the principal residual"):
        residual_principal(R_HURWITZ, F(1, 2), order)


class TestSeriesSchwarzian:
    def test_linear_series(self):
        t = PowerSeries(0j, [2.0 + 0j, 3.0 + 0j] + [0j] * 8)
        s = series_schwarzian(t)
        assert all(abs(c) < 1e-15 for c in s.coefficients)

    def test_matches_exact_schwarzian(self):
        from schwarztri.rational import schwarzian

        f = Y * Y
        t = PowerSeries(1.0 + 0j, taylor_coefficients(f, 1.0 + 0j, 20))
        s = series_schwarzian(t)
        exact = taylor_coefficients(schwarzian(f), 1.0 + 0j, s.truncation_order)
        assert all(
            abs(a - b) < 1e-12 for a, b in zip(s.coefficients, exact)
        )

    def test_vanishing_derivative_rejected(self):
        t = PowerSeries(0j, [1.0 + 0j, 0j, 1.0 + 0j, 0j, 0j])
        with pytest.raises(ZeroDivisionError):
            series_schwarzian(t)

    def test_mobius_freeness(self):
        # postcomposing with a Mobius map leaves the series Schwarzian unchanged
        rng = random.Random(11)
        t = schwarz_map(R_HURWITZ, 0.5 + 0j, 24)
        s0 = series_schwarzian(t)
        for _ in range(5):
            while True:
                a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
                if a * d - b * c != 0:
                    break
            num = t * a + b
            den = t * c + d
            if abs(den.coefficients[0]) < 1e-9:
                continue
            s1 = series_schwarzian(num / den)
            # agreement to 1e-10 relative to the coefficient scale
            assert all(
                abs(x - y) < 1e-10 * (1 + abs(x))
                for x, y in zip(s0.coefficients, s1.coefficients)
            )


class TestInversion:
    def test_affine(self):
        t = PowerSeries(F(3), [F(5), F(1)])  # t(y) = 5 + (y - 3)
        j = series_invert(t)
        assert j.base_point == F(5)
        assert j.coefficients == (F(3), F(1))

    def test_exact_round_trip(self):
        rng = random.Random(12)
        for _ in range(10):
            cs = [F(rng.randint(-3, 3)) for _ in range(8)]
            cs[1] = F(rng.choice([1, -1, 2, -2]))
            t = PowerSeries(F(0), cs)
            j = series_invert(t)
            rt = series_compose(j, t)
            assert rt.coefficients[0] == F(0)
            assert rt.coefficients[1] == F(1)
            assert all(c == 0 for c in rt.coefficients[2:])

    def test_floating_round_trip(self):
        t = schwarz_map(R_HURWITZ, 0.5 + 0j, 24)
        j = series_invert(t)
        rt = series_compose(j, t)
        assert abs(rt.coefficients[1] - 1) < 1e-10
        assert all(abs(c) < 1e-10 for c in rt.coefficients[2:])

    def test_vanishing_derivative_rejected(self):
        with pytest.raises(ZeroDivisionError):
            series_invert(PowerSeries(F(0), [F(1), F(0), F(1)]))

    def test_inverse_solves_third_order_equation(self):
        report = residual_inverse(R_HURWITZ, F(1, 2), 40)
        assert report.max_abs_residual < 1e-8


class TestRiccati:
    def test_zero_potential_residual_zero(self):
        report = residual_riccati(RatFunc.constant(0), F(1, 2), 10)
        assert report.max_abs_residual == 0.0

    def test_minimum_order_enforced(self):
        with pytest.raises(ValueError):
            residual_riccati(R_CUSP, F(1, 2), 3)


class TestPullback:
    def test_mobius_coordinate_change(self):
        phi = MobiusMap(1, 1, 0, 2).as_ratfunc()  # (y + 1)/2
        report = verify_pullback(R_CUSP, phi, F(1, 2), 40)
        assert report.max_abs_residual < 1e-8

    def test_ramified_base_rejected(self):
        with pytest.raises(ValueError):
            verify_pullback(R_CUSP, Y * Y, F(0), 20)

    def test_constant_phi_rejected(self):
        with pytest.raises(ValueError):
            verify_pullback(R_CUSP, RatFunc.constant(2), F(1, 2), 20)

    @pytest.mark.parametrize("order", [2, 3])
    def test_minimum_order_enforced(self, order):
        # below order 4 the third derivative of J is constant
        with pytest.raises(ValueError):
            verify_pullback(R_CUSP, Y, F(1, 2), order)
        with pytest.raises(ValueError):
            residual_inverse(R_CUSP, F(1, 2), order)
        assert verify_pullback(R_CUSP, Y, F(1, 2), 4).truncation_order == 4

    def test_report_record_shape(self):
        rec = verify_pullback(R_CUSP, Y * Y, F(1, 2), 20).to_record()
        assert set(rec) == {"sample_points", "max_abs_residual", "truncation_order"}
        assert len(rec["sample_points"]) == 16


# -- the series kernels against the earlier loops ------------------------------
#
# Each product, division, reversion and composition had a loop of its own
# before they were written over one product (``_mul``) and one division
# (``_divide``); those loops, kept word for word, are the references here,
# and the division's recurrence is stated once, in ``reference_divide``.


def reference_mul(self, other) -> "PowerSeries":
    if not isinstance(other, PowerSeries):
        return PowerSeries(self.base_point, [c * other for c in self.coefficients])
    self._check_base(other)
    n = min(len(self.coefficients), len(other.coefficients))
    a, b = self.coefficients, other.coefficients
    out = [self.coefficients[0] * 0 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return PowerSeries(self.base_point, out)


def reference_divide(a, b) -> list:
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("series has a zero constant term")
    out = []
    for k in range(len(a)):
        acc = a[k]
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b0)
    return out


def reference_reciprocal(self) -> "PowerSeries":
    one = [c * 0 for c in self.coefficients]
    one[0] += 1
    return PowerSeries(self.base_point, reference_divide(one, self.coefficients))


def reference_truediv(self, other) -> "PowerSeries":
    self._check_base(other)
    n = min(len(self.coefficients), len(other.coefficients))
    return PowerSeries(self.base_point, reference_divide(self.coefficients[:n], other.coefficients))


def reference_taylor_coefficients(f: RatFunc, base, order: int) -> list:
    ns, ds = _shifted(f, _coerce_base(base))
    return reference_divide((ns + [ds[0] * 0] * (order + 1))[: order + 1], ds)


def reference_series_invert(t: PowerSeries) -> PowerSeries:
    c = t.coefficients
    if len(c) < 2 or c[1] == 0:
        raise ZeroDivisionError("series has vanishing first derivative; not invertible")
    n = t.truncation_order
    zero = c[0] * 0
    w = [zero] + list(c[1:])
    # triangular solve of sum_k d_k W^k = (x - base) against the powers of W
    powers = [None, w]
    for j in range(2, n + 1):
        prev = powers[j - 1]
        nxt = [zero] * (n + 1)
        for i in range(j - 1, n + 1):
            pi = prev[i]
            if pi == 0:
                continue
            for k in range(1, n + 1 - i):
                nxt[i + k] += pi * w[k]
        powers.append(nxt)
    d = [zero] * (n + 1)
    d[1] = 1 / c[1]
    for m in range(2, n + 1):
        acc = zero
        for j in range(1, m):
            acc += d[j] * powers[j][m]
        d[m] = -acc / powers[m][m]
    coeffs = [t.base_point] + d[1:]
    return PowerSeries(c[0], coeffs)


def reference_series_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    shift = inner.coefficients[0] - outer.base_point
    if isinstance(inner.base_point, F) and isinstance(outer.base_point, F):
        if shift != 0:
            raise ValueError("inner series does not map its base to the outer base point")
    elif abs(complex(shift)) > 1e-9 * (1.0 + abs(complex(outer.base_point))):
        raise ValueError("inner series does not map its base to the outer base point")
    n = min(outer.truncation_order, inner.truncation_order)
    w = PowerSeries(inner.base_point, [shift] + list(inner.coefficients[1 : n + 1]))
    acc = PowerSeries(inner.base_point, [outer.coefficients[n]] + [shift * 0] * n)
    for k in range(n - 1, -1, -1):
        acc = reference_mul(acc, w) + outer.coefficients[k]
    return acc


def rand_triple(rng) -> AngleParams:
    """Exponent differences p/q in (0, 1) with q <= 9."""
    return AngleParams(*(F(rng.randint(1, q - 1), q) for q in (rng.randint(2, 9) for _ in range(3))))


def assert_close(new: PowerSeries, old: PowerSeries, rel: float = 1e-12):
    """Equal lengths and base points, every coefficient within ``rel`` times
    the largest coefficient of ``old``."""
    assert new.base_point == old.base_point
    assert len(new.coefficients) == len(old.coefficients)
    scale = max(abs(c) for c in old.coefficients)
    assert all(abs(x - y) <= rel * scale for x, y in zip(new.coefficients, old.coefficients))


def complex_map_cases(seed: int):
    """Eight seeded equations, each with a floating base point near 1/2."""
    rng = random.Random(400 + seed)
    for _ in range(8):
        r = build_r(rand_triple(rng))
        yield r, complex(0.5 + rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))


def inversion_error(j: PowerSeries, t: PowerSeries) -> float:
    """The largest coefficient error of ``j`` against a 50-digit reversion of
    ``t``, relative to the largest coefficient of that reversion."""
    with mpmath.workdps(50):
        exact = reference_series_invert(
            PowerSeries(t.base_point, [mpmath.mpc(c) for c in t.coefficients])
        )
        scale = max(abs(c) for c in exact.coefficients)
        errors = (abs(mpmath.mpc(x) - y) for x, y in zip(j.coefficients, exact.coefficients))
        return float(max(errors) / scale)


@functools.cache
def loop_inversion_error() -> float:
    """The reference loop's worst ``inversion_error`` over the maps of every
    seed of ``test_complex_schwarz_maps``."""
    return max(
        inversion_error(reference_series_invert(t), t)
        for seed in range(3)
        for t in (schwarz_map(r, z, 24) for r, z in complex_map_cases(seed))
    )


# -- reference: the recurrence, which pins its rounding, and the Schwarzian
# by two divisions, before it became q' - q^2/2, kept word for word but for
# the names


def reference_solve_recurrence(den_terms: np.ndarray, twice_d0, ns: list, order: int) -> np.ndarray:
    zero = F(0) if den_terms.dtype == object else 0j
    shape = np.broadcast_shapes(den_terms.shape[:-1], *(np.shape(n) for n in ns))
    # at least 1: an empty product of object arrays is the int 0, not a Fraction
    width = 2 * max(den_terms.shape[-1] // 2, len(ns), 1)
    k = np.full(shape + (1, width), zero, dtype=den_terms.dtype)
    k[..., 0, : den_terms.shape[-1]] = den_terms
    for i, n in enumerate(ns):
        k[..., 0, 2 * i + 1] = -(n / twice_d0)
    size = math.prod(shape)
    k = k.reshape(size, 1, width)
    # rows outermost in memory, so that a row and the rows below it are
    # disjoint blocks, which numpy sees without copying
    rows = np.full((width + 2 * (order + 1), size, 2), zero, dtype=k.dtype)
    rows[width + 1, :, 0] = rows[width + 3, :, 1] = zero + 1
    history = rows.transpose(1, 0, 2)
    with np.errstate(**_QUIET):
        for j in range(2, order + 1):
            e = width + 2 * j
            np.matmul(k, history[:, e - 2 : e - 2 - width : -1], out=history[:, e : e + 1])
            np.divide(rows[e], j * (j - 1), out=rows[e + 1])
    return history[:, width + 1 :: 2].reshape(shape + (order + 1, 2))


def reference_series_schwarzian(t: PowerSeries) -> PowerSeries:
    if t.truncation_order < 4:
        raise ValueError("order too small for a meaningful Schwarzian")
    d1 = t.derivative()
    if d1.coefficients[0] == 0:
        raise ZeroDivisionError("series has vanishing first derivative at its base point")
    d2 = d1.derivative()
    d3 = d2.derivative()
    n = t.truncation_order - 3
    d1 = d1.truncate(n)
    ratio = d2.truncate(n) / d1
    return d3.truncate(n) / d1 - (ratio * ratio) * 3 / 2


def assert_recurrence_matches_reference(den_terms, twice_d0, ns, order):
    got = _solve_recurrence(den_terms, twice_d0, ns, order)
    want = reference_solve_recurrence(den_terms, twice_d0, ns, order)
    assert got.dtype == want.dtype and np.array_equal(got, want)


class TestKernelsMatchReference:
    @pytest.mark.parametrize("seed", range(3))
    def test_exact_series_ops(self, seed):
        rng = random.Random(200 + seed)

        def rand_series(n, base):
            return PowerSeries(base, [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)])

        for order in range(6, 17):
            base = F(rng.randint(-3, 3), rng.randint(1, 3))
            a, b = rand_series(order + 1, base), rand_series(rng.randint(order - 3, order + 3), base)
            b = b + (1 if b.coefficients[0] == 0 else 0)
            assert a * b == reference_mul(a, b)
            assert a / b == reference_truediv(a, b)
            assert b.reciprocal() == reference_reciprocal(b)
            t = a - a.coefficients[0] + rng.randint(-2, 2)
            if t.coefficients[1] != 0:
                assert series_invert(t) == reference_series_invert(t)
            inner = PowerSeries(F(0), [base] + list(rand_series(order, base).coefficients[1:]))
            assert series_compose(a, inner) == reference_series_compose(a, inner)
            # trailing zeros of the outer series are dropped before summing
            poly = PowerSeries(base, list(a.coefficients[:3]) + [F(0)] * (order - 2))
            assert series_compose(poly, inner) == reference_series_compose(poly, inner)

    @pytest.mark.parametrize("seed", range(2))
    def test_exact_schwarz_maps(self, seed):
        rng = random.Random(300 + seed)
        for r in reference_equations(seed, 3):
            base = exact_base(r, rng)
            order = rng.randint(6, 12)
            assert taylor_coefficients(r, base, order) == reference_taylor_coefficients(r, base, order)
            t = schwarz_map(r, base, order)
            j = series_invert(t)
            assert j == reference_series_invert(t)
            assert series_compose(j, t) == reference_series_compose(j, t)
            outer = PowerSeries(base, taylor_coefficients(3 * Y * Y - 2 * Y * Y * Y, base, order))
            assert series_compose(outer, j) == reference_series_compose(outer, j)

    @pytest.mark.parametrize("seed", range(3))
    def test_complex_schwarz_maps(self, seed):
        # identical inputs: *, reciprocal and taylor_coefficients round as
        # before; / and series_compose sum in another order.  series_invert
        # solves against a matrix of powers, rounding otherwise than the
        # loop: both sit some 1e-9 from the true reversion, so it must be no
        # less accurate than the loop on these maps.  The outer series of a
        # composition is a map phi's, as in verify_pullback: J∘t itself
        # cancels terms some 1e6 times larger than its coefficients.
        for r, z in complex_map_cases(seed):
            psi1, psi2 = series_solve_linear(r, z, 24)
            t = schwarz_map(r, z, 24)
            assert taylor_coefficients(r, z, 24) == reference_taylor_coefficients(r, z, 24)
            assert psi1 * psi2 == reference_mul(psi1, psi2)
            assert t * t.derivative() == reference_mul(t, t.derivative())
            j = series_invert(t)
            assert inversion_error(j, t) <= loop_inversion_error()
            assert_close(psi2 / psi1, reference_truediv(psi2, psi1))
            assert_close(t.derivative() / psi1, reference_truediv(t.derivative(), psi1))
            assert psi1.reciprocal() == reference_reciprocal(psi1)
            for phi in ((2 * Y + 1) / (Y + 3), Y * Y * Y):
                outer = PowerSeries(z, taylor_coefficients(phi, z, 24))
                assert_close(series_compose(outer, j), reference_series_compose(outer, j))
            # a floating shift inside the tolerance of 1e-9
            shifted = PowerSeries(j.base_point, [z + 3e-10] + list(j.coefficients[1:]))
            assert_close(series_compose(outer, shifted), reference_series_compose(outer, shifted))

    def test_shift_beyond_tolerance_rejected(self):
        t = schwarz_map(R_HURWITZ, 0.5 + 0j, 10)
        j = series_invert(t)
        outer = PowerSeries(0.5 + 0j, taylor_coefficients(Y * Y, 0.5 + 0j, 10))
        inner = PowerSeries(j.base_point, [0.5 + 1e-8] + list(j.coefficients[1:]))
        with pytest.raises(ValueError):
            series_compose(outer, inner)

    def test_recurrence_at_complex_bases(self):
        for seed in range(3):
            for r, z in complex_map_cases(seed):
                ns, ds = _shifted(r, z)
                assert_recurrence_matches_reference(*_den_terms(ds), ns, 40)

    def test_recurrence_on_a_step_plan_grid(self):
        # a (T, steps) grid: _CHUNK equations that share a denominator, at
        # every step center of a loop's plan, as _taylor_step lays them out
        rng = random.Random(61)
        rs = [build_r(rand_triple(rng)) for _ in range(_CHUNK)]
        assert len({r.den for r in rs}) == 1
        for center in (0j, 1 + 0j):
            plan = _step_plan(rs[0]._d, LoopSpec(center=center).polyline())
            ns = _shift_coeffs(list(_table([[complex(c) for c in r.num.coeffs] for r in rs])), plan.zs)
            assert np.shape(ns[0]) == (_CHUNK, len(plan.zs))
            assert_recurrence_matches_reference(plan.den_terms, plan.twice_d0, ns, _TAYLOR_ORDER + 2)

    def test_recurrence_reuses_workspaces_across_shapes(self):
        # solves of many shapes in turn, each in its kept workspace, the
        # first shape again after the others: T = 1, _CHUNK and a remainder
        # of equations over a plan's steps, two numerator widths (the
        # numerators padded with zero terms), orders 38 and 40, and an exact
        # base, whose Fractions take a workspace of their own
        rng = random.Random(62)
        rs = [build_r(rand_triple(rng)) for _ in range(_CHUNK)]
        assert len({r.den for r in rs}) == 1
        plan = _step_plan(rs[0]._d, LoopSpec(center=0j).polyline())
        ns = _shift_coeffs(list(_table([[complex(c) for c in r.num.coeffs] for r in rs])), plan.zs)
        r = reference_equations(0, 1)[1]
        exact_ns, exact_ds = _shifted(r, exact_base(r, rng))
        cases = [
            (plan.den_terms, plan.twice_d0, [n[:t] for n in ns] + [0 * ns[0][:t]] * extra, order)
            for t in (1, _CHUNK, 5)
            for extra in (0, 3)
            for order in (_TAYLOR_ORDER + 2, 40)
        ]
        cases += [(*_den_terms(exact_ds), exact_ns, order) for order in (_TAYLOR_ORDER + 2, 40)]
        # every case a shape of its own: entries, width, order and dtype
        shapes = {(np.shape(ns[0]), max(d.shape[-1] // 2, len(ns)), order, d.dtype) for d, _, ns, order in cases}
        assert len(shapes) == len(cases) == 14
        for case in cases + cases[:1]:
            got = _solve_recurrence(*case)
            assert not got.flags.writeable
            want = reference_solve_recurrence(*case)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert got.dtype == object or got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(2))
    def test_recurrence_at_exact_bases(self, seed):
        rng = random.Random(700 + seed)
        for r in reference_equations(seed, 3):
            ns, ds = _shifted(r, exact_base(r, rng))
            assert_recurrence_matches_reference(*_den_terms(ds), ns, rng.randint(2, 14))

    @pytest.mark.parametrize("seed", range(3))
    def test_exact_series_schwarzian(self, seed):
        rng = random.Random(800 + seed)
        for order in range(4, 17):
            base = F(rng.randint(-3, 3), rng.randint(1, 3))
            cs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)]
            cs[1] = cs[1] or F(1, 3)
            t = PowerSeries(base, cs)
            assert series_schwarzian(t) == reference_series_schwarzian(t)
        for r in reference_equations(seed, 3):
            t = schwarz_map(r, exact_base(r, rng), rng.randint(4, 14))
            assert series_schwarzian(t) == reference_series_schwarzian(t)

    def test_complex_series_schwarzian(self):
        # one division in place of two rounds otherwise: the two forms agree
        # to roundoff of the coefficient scale
        for seed in range(3):
            for r, z in complex_map_cases(seed):
                t = schwarz_map(r, z, 24)
                assert_close(series_schwarzian(t), reference_series_schwarzian(t))


# -- reference: the residual checks before one function made their sample
# ring and report, and the third-order check that the pullback along y
# replaced, kept word for word but for the names (``_SAMPLE_POINTS`` is 16)
# and their own evaluation at the sample points: Horner's rule per row,
# acc = c + acc * x, over the whole point array at once, which numpy's
# vectorized loop rounds as it rounds the package's table (one point at a
# time rounds differently)


def reference_horner(rows, x) -> list:
    return [functools.reduce(lambda acc, c: c + acc * x, reversed(cs), x * 0) for cs in rows]


def reference_values(r: RatFunc, x) -> np.ndarray:
    num, den = reference_horner([[complex(c) for c in f.coeffs] for f in (r.num, r.den)], x)
    return num / den


def reference_series_values(series, x) -> list:
    return reference_horner([s.coefficients for s in series], x - series[0].base_point)


def reference_sample_ring(center: complex, radius: float) -> tuple[complex, ...]:
    return tuple(
        center + radius * cmath.exp(2j * cmath.pi * k / 16)
        for k in range(16)
    )


def reference_report(pts: tuple[complex, ...], residuals: np.ndarray, order: int) -> ResidualReport:
    values = np.abs(residuals)
    if not np.isfinite(values).all():
        raise OverflowError(
            f"residual is not finite at order {order}: "
            "the series coefficients overflow floating point"
        )
    return ResidualReport(pts, float(values.max()), order)


def reference_residual_principal(r: RatFunc, base, order: int) -> ResidualReport:
    if order < 4:
        raise ValueError("order must be at least 4 to form the principal residual")
    b = complex(base)
    s = series_schwarzian(schwarz_map(r, b, order))
    pts = reference_sample_ring(b, default_disk_radius(r, b))
    x = np.array(pts)
    with np.errstate(**_QUIET):
        residuals = reference_series_values([s], x)[0] - reference_values(r, x)
    return reference_report(pts, residuals, order)


def reference_residual_riccati(r: RatFunc, base, order: int) -> ResidualReport:
    if order < 5:
        raise ValueError("order must be at least 5 to form the Riccati residual")
    b = complex(base)
    psi1, _ = series_solve_linear(r, b, order)
    u = psi1.derivative() / psi1.truncate(order - 1)
    pts = reference_sample_ring(b, default_disk_radius(r, b))
    x = np.array(pts)
    with np.errstate(**_QUIET):
        uv, duv = reference_series_values([u, u.derivative()], x)
        residuals = duv + uv * uv + 0.5 * reference_values(r, x)
    return reference_report(pts, residuals, order)


def reference_third_order_residuals(j: PowerSeries, r: RatFunc, pts) -> np.ndarray:
    d1 = j.derivative()
    d2 = d1.derivative()
    with np.errstate(**_QUIET):
        v0, v1, v2, v3 = reference_series_values([j, d1, d2, d2.derivative()], np.array(pts))
        ratio = v2 / v1
        return v3 / v1 - 1.5 * ratio * ratio + v1 * v1 * reference_values(r, v0)


def reference_verify_pullback(r: RatFunc, phi: RatFunc, base, order: int) -> ResidualReport:
    if order < 4:
        raise ValueError("order must be at least 4 to form the third-order residual")
    dphi = phi.derivative()
    if dphi.is_zero:
        raise ValueError("pullback along a constant map")
    if dphi(base) == 0:
        raise ValueError("phi is ramified at the base point; J1 is not invertible there")
    b = complex(base)
    r_phi = schwarz_pullback(r, phi)
    j2 = series_invert(schwarz_map(r_phi, b, order))
    j1 = series_compose(PowerSeries(b, taylor_coefficients(phi, b, order)), j2)
    value = j1.coefficients[0]
    if r.den(value) == 0:
        pole = min(poles(r), key=lambda p: abs(p - value))
        raise ZeroDivisionError(
            f"phi's value at the base, {value:.6g}, falls on the pole {pole:.6g} of r "
            "in floating point"
        )
    pts = reference_sample_ring(0j, default_disk_radius(r_phi, b) / 4.0)
    return reference_report(pts, reference_third_order_residuals(j1, r, pts), order)


def _record_or_error(check, *args):
    try:
        return check(*args).to_record()
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


class TestResidualChecksMatchReference:
    def test_seeded_records(self):
        # seeded triples in (0, 1) and shifted ones, at exact, floating and
        # complex bases, orders 3 to 40, and maps with a pole, a ramification
        # point or a constant: the same record bit for bit, or the same error
        rng = random.Random(2222)
        phis = [parse_phi(text) for text in ("y^2", "y^3", "(y-1)/(y+1)", "1/(y+2)", "(2*y+1)/(y+3)", "y^2-y", "7")]
        failed = 0
        for _ in range(60):
            if rng.random() < 0.5:
                p = rand_triple(rng)
            else:
                p = AngleParams(*(F(rng.randint(-12, 12), q) for q in (rng.choice((2, 3, 5)) for _ in range(3))))
            r = build_r(p)
            base = rng.choice((F(1, 2), F(rng.randint(1, 9), 10), 0.4 + 0.1j, complex(0.6, -rng.random() / 5)))
            order = rng.randint(3, 40)
            phi = rng.choice(phis)
            for check, reference, args in (
                (residual_principal, reference_residual_principal, (r, base, order)),
                (residual_riccati, reference_residual_riccati, (r, base, order)),
                (verify_pullback, reference_verify_pullback, (r, phi, base, order)),
            ):
                want = _record_or_error(reference, *args)
                assert _record_or_error(check, *args) == want, (check.__name__, p, base, order)
                failed += isinstance(want, tuple)
        assert 0 < failed < 60

    def test_overflow_matches_reference(self):
        # near the pole at 0 the series coefficients leave the float range
        args = (R_HURWITZ, F(1, 1000), 120)
        want = _record_or_error(reference_residual_principal, *args)
        assert want[0] is OverflowError
        assert _record_or_error(residual_principal, *args) == want


class TestInverseIsPullbackAlongY:
    def test_matches_reference_records(self):
        # seeded triples in (0, 1) and shifted ones, at exact, floating and
        # complex bases, orders 4 to 40: the same record, bit for bit, as
        # the pullback reference along phi = y
        rng = random.Random(1717)
        for _ in range(40):
            if rng.random() < 0.5:
                p = rand_triple(rng)
            else:
                p = AngleParams(*(F(rng.randint(-12, 12), q) for q in (rng.choice((2, 3, 5)) for _ in range(3))))
            r = build_r(p)
            base = rng.choice((F(1, 2), F(rng.randint(1, 9), 10), 0.4 + 0.1j, complex(0.6, -rng.random() / 5)))
            order = rng.randint(4, 40)
            want = reference_verify_pullback(r, Y, base, order).to_record()
            assert residual_inverse(r, base, order).to_record() == want, (p, base, order)

    def test_errors_match_reference(self):
        for base, order, error in ((F(1, 2), 3, ValueError), (F(0), 10, ZeroDivisionError)):
            with pytest.raises(error):
                residual_inverse(R_HURWITZ, base, order)
            with pytest.raises(error):
                reference_verify_pullback(R_HURWITZ, Y, base, order)


class TestSeriesKernelsMatchReference:
    def test_call_and_derivative_on_seeded_series(self):
        # exact series at Fraction, complex and numpy.complex128 points,
        # complex series at complex points: Horner's rule at x - base, the
        # same value bit for bit, of the same type; the derivative is
        # sum k c_k x^(k-1), zero of the coefficients' type for one term
        rng = random.Random(3131)
        for _ in range(300):
            n = rng.randint(1, 12)
            exact = PowerSeries(F(rng.randint(-3, 3), rng.randint(1, 4)),
                                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)])
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            floating = PowerSeries(z, [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)])
            mixed = PowerSeries(z, exact.coefficients)
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            fx, cx, nx = F(rng.randint(-9, 9), rng.randint(1, 9)), complex(u, v), np.complex128(complex(v, u))
            for s, x in ((exact, fx), (exact, cx), (exact, nx), (floating, cx), (floating, nx), (mixed, nx)):
                got, want = s(x), horner(s.coefficients, x - s.base_point)
                assert type(got) is type(want)
                assert got == want if isinstance(got, F) else bits([got]) == bits([want])
            for s in (exact, floating):
                got, want = s.derivative(), PowerSeries(s.base_point, deriv(s.coefficients) or [s.coefficients[0] * 0])
                assert got == want and list(map(type, got.coefficients)) == list(map(type, want.coefficients))

    @pytest.mark.parametrize("c", [F(3, 2), 5, 2.5, 1 + 2j, np.complex128(1 - 1j)])
    def test_one_term_derivative_is_zero_of_its_type(self, c):
        d = PowerSeries(F(1, 2), [c]).derivative()
        assert d.coefficients == (0,) and type(d.coefficients[0]) is type(c)

    def test_exact_bases_must_match_exactly(self):
        # no tolerance between exact bases, however small the shift; 1e-9
        # between floating ones
        outer = PowerSeries(F(1, 2), [F(1), F(2), F(3)])
        with pytest.raises(ValueError, match="does not map its base"):
            series_compose(outer, PowerSeries(F(0), [F(1, 2) + F(1, 10**30), F(1)]))
        assert series_compose(outer, PowerSeries(F(0), [F(1, 2), F(1)])) == PowerSeries(F(0), [F(1), F(2)])
        floating = PowerSeries(0.5 + 0j, [1 + 0j, 2 + 0j, 3 + 0j])
        assert series_compose(floating, PowerSeries(0j, [0.5 + 1e-10, 1 + 0j])).coefficients[1] == 2
