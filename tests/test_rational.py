"""Unit tests for the exact rational-function algebra."""

import functools
import itertools
import math
import pickle
import random
import re
import time
from fractions import Fraction as F

import numpy as np
import pytest
from definitions import assert_primitive, assert_same_value, assert_value, bits, deriv, horner, lincomb, mul

from schwarztri import rational
from schwarztri.rational import (
    MobiusMap,
    Poly,
    RatFunc,
    compose,
    derivative,
    mobius_apply,
    schwarz_pullback,
    schwarzian,
)

Y = RatFunc.variable()


class TestPoly:
    def test_normalization_strips_leading_zeros(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]).is_zero
        assert Poly([]).degree == -1

    def test_divmod_roundtrip(self):
        a = Poly([1, 0, -3, 2, 5])
        b = Poly([2, 1, 1])
        q, r = a.divmod(b)
        assert RatFunc(q * b) + RatFunc(r) == RatFunc(a)
        assert r.degree < b.degree

    def test_gcd_common_factor(self):
        p = Poly([-1, 1])  # y - 1
        a = p * Poly([1, 1]) * 6
        b = p * Poly([2, 0, 1]) * F(1, 3)
        assert a.gcd(b) == p
        # with a zero input the gcd is the other input, made monic
        assert Poly().gcd(Poly([3, 6])) == Poly([F(1, 2), 1])
        assert Poly([3, 6]).gcd(Poly()) == Poly([F(1, 2), 1])
        assert Poly().gcd(Poly()) == Poly()

    def test_gcd_coprime(self):
        assert Poly([1, 1]).gcd(Poly([2, 1])) == Poly([1])

    def test_evaluation(self):
        p = Poly([1, 2, 3])
        assert p(F(1, 2)) == 1 + 1 + F(3, 4)
        assert abs(p(1j) - (1 + 2j - 3)) < 1e-15


def _planted_pairs(count, seed, bits=200, degree=8):
    """Integer polynomial pairs a = g u, b = g v with a planted common factor
    g: factors of degree 0 to ``degree``, coefficients of 1 to ``bits`` bits
    with mixed signs, and a factor y^k on both sides in about a third of the
    pairs.  With 2 bits and degree 6, a pseudo-remainder often drops more
    than one degree."""
    rng = random.Random(seed)

    def factor():
        width = rng.randint(1, bits)
        cs = [rng.choice((-1, 1)) * rng.getrandbits(width) for _ in range(rng.randint(0, degree) + 1)]
        cs[-1] = cs[-1] or 1
        return cs

    for _ in range(count):
        g = factor()
        a = rational._int_mul(g, factor())
        b = rational._int_mul(g, factor())
        if rng.random() < 0.3:
            a = [0] * rng.randint(1, 4) + a
            b = [0] * rng.randint(1, 4) + b
        yield a, b


def _checked_gcd(a, b):
    """The gcd from ``_int_gcd_poly(a, b)``, once its cofactors are checked:
    the gcd times each is the primitive part of that input."""
    g, qa, qb = rational._int_gcd_poly(a, b)
    assert rational._int_mul(g, qa) == rational._primitive(a)
    assert rational._int_mul(g, qb) == rational._primitive(b)
    return g


def _count_points(monkeypatch):
    """Record how many evaluation points each heuristic gcd call uses."""
    calls = []
    evaluate = rational._poly_at
    monkeypatch.setattr(rational, "_poly_at", lambda a, x: calls.append(x) or evaluate(a, x))
    return lambda: len(set(calls))


class TestHeuristicGcd:
    def test_matches_prs_on_planted_factors(self, monkeypatch):
        prs = rational._prs_gcd
        fallbacks = []
        monkeypatch.setattr(rational, "_prs_gcd", lambda a, b: fallbacks.append((a, b)) or prs(a, b))
        # (3, 2) and (y - 1)(y + 3)(2y - 1)(y^2 + 1) are coprime
        pairs = [([3, 2], [3, -8, 6, -6, 3, 2])]
        for a, b in itertools.chain(_planted_pairs(300, seed=7), _planted_pairs(300, seed=8, bits=2, degree=6), pairs):
            g = _checked_gcd(a, b)
            ref = prs(*([c // rational._int_content(p) for c in p] for p in (a, b)))
            assert g == ref or g == [-c for c in ref]
            assert g[-1] > 0 and rational._int_content(g) == 1
        # the first points are large enough and not powers of two, so the
        # PRS never has to answer on these pairs
        assert not fallbacks

    def test_prs_fallback_on_planted_factors(self, monkeypatch):
        # refuse the heuristic's six trial divisions of a call, so that the
        # PRS answers; the divisions after it are delegated
        exact_div, prs = rational._int_exact_div, rational._prs_gcd
        refused, negative = [], []

        def refuse_six(a, c):
            if len(refused) < 6:
                refused.append(c)
                return None
            return exact_div(a, c)

        def signed_prs(a, b):
            g = prs(a, b)
            negative.append(g[-1] < 0)
            return g

        monkeypatch.setattr(rational, "_int_exact_div", refuse_six)
        monkeypatch.setattr(rational, "_prs_gcd", signed_prs)
        fallbacks = 0
        for a, b in itertools.chain(_planted_pairs(100, seed=7), _planted_pairs(100, seed=8, bits=2, degree=6)):
            refused.clear()
            g = _checked_gcd(a, b)
            assert g[-1] > 0 and rational._int_content(g) == 1
            fallbacks += len(refused) == 6
        # the other 13 pairs are coprime, and return before any division;
        # on 57 the PRS's own gcd has a negative leading coefficient
        assert fallbacks == len(negative) == 187
        assert sum(negative) == 57

    @pytest.mark.parametrize(
        "a, b, gcd",
        [
            # the gcd's coefficients reach the input norm, so x must exceed
            # twice that norm for its digits to read back
            ([-999, 1000, 1], [-1998, 1001, 1002, 1], [-999, 1000, 1]),
            # 2^80 divides the low coefficients (denominators cleared from
            # powers of 2 give such integers): every x = 2^j up to 2^40 makes
            # a(x) a multiple of x^2 = b(x), as if y^2 divided a
            ([5 << 80, 3 << 80, 1], [0, 0, 1], [1]),
        ],
    )
    def test_first_point_suffices(self, monkeypatch, a, b, gcd):
        points = _count_points(monkeypatch)
        assert _checked_gcd(a, b) == gcd
        assert points() == 1

    @pytest.mark.parametrize("a, b", [([1, 1], [31, 0, 1]), ([31, 0, 1], [1, 1])])
    def test_retry_after_a_candidate_that_divides_one_side(self, monkeypatch, a, b):
        # at x = 31, a(x) = 32 divides b(x) = 992, so the first candidate is
        # y + 1, which divides y + 1 but not y^2 + 31
        points = _count_points(monkeypatch)
        assert _checked_gcd(a, b) == [1]
        assert points() == 2


class TestRatFuncArithmetic:
    def test_add_common_denominator(self):
        # 1/y + 1/(y-1) = (2y-1)/(y^2-y)
        f = 1 / Y
        g = 1 / (Y - 1)
        expected = RatFunc(Poly([-1, 2]), Poly([0, -1, 1]))
        assert f + g == expected

    def test_mul_inverse_identity(self):
        f = Y * Y + 3
        assert f * (1 / f) == RatFunc.constant(1)

    def test_division_by_zero_function(self):
        f = Y / (Y - 1)
        with pytest.raises(ZeroDivisionError):
            f / RatFunc.constant(0)

    def test_canonical_form(self):
        f = RatFunc(Poly([0, 2]), Poly([0, 0, 4]))  # 2y / 4y^2
        assert f.num == Poly([F(1, 2)])
        assert f.den == Poly([0, 1])
        assert f.den.leading == 1

    def test_pow_negative(self):
        assert (Y + 1) ** -2 == 1 / ((Y + 1) * (Y + 1))


class TestDerivative:
    def test_square(self):
        assert derivative(Y * Y) == 2 * Y

    def test_reciprocal(self):
        assert derivative(1 / Y) == RatFunc(Poly([-1]), Poly([0, 0, 1]))

    def test_constant(self):
        assert derivative(RatFunc.constant(5)).is_zero

    def test_repeated_pole(self):
        f = 1 / (Y * Y)
        assert derivative(f) == RatFunc(Poly([-2]), Poly([0, 0, 0, 1]))


class TestCompose:
    def test_shift(self):
        assert compose(1 / Y, Y - 1) == 1 / (Y - 1)

    def test_identity_inner(self):
        f = (Y * Y + 1) / (Y - 3)
        assert compose(f, Y) == f

    def test_constant_on_pole(self):
        f = 1 / (Y - 2)
        with pytest.raises(ZeroDivisionError):
            compose(f, RatFunc.constant(2))

    def test_constant_inner_regular(self):
        f = Y * Y + 1
        assert compose(f, RatFunc.constant(3)) == RatFunc.constant(10)


class TestSchwarzian:
    def test_mobius_maps_have_zero_schwarzian(self):
        for m in [MobiusMap(1, 2, 3, 4), MobiusMap(0, -1, 1, 0), MobiusMap(2, 1, 0, 1)]:
            assert schwarzian(m.as_ratfunc()).is_zero

    def test_degree_one_polynomial_is_zero_not_error(self):
        assert schwarzian(3 * Y + 7).is_zero

    def test_square(self):
        assert schwarzian(Y * Y) == RatFunc(Poly([F(-3, 2)]), Poly([0, 0, 1]))

    def test_cube(self):
        assert schwarzian(Y ** 3) == RatFunc(Poly([-4]), Poly([0, 0, 1]))

    def test_constant_raises(self):
        with pytest.raises(ValueError):
            schwarzian(RatFunc.constant(7))


class TestSchwarzPullback:
    def test_identity(self):
        r = (Y + 2) / (Y * Y - 1)
        assert schwarz_pullback(r, Y) == r

    def test_mobius_change_of_coordinate(self):
        # for Mobius phi the Schwarzian term drops out
        r = 1 / Y
        m = MobiusMap(2, 1, 1, 1)
        phi = m.as_ratfunc()
        dphi = derivative(phi)
        assert schwarz_pullback(r, phi) == compose(r, phi) * dphi * dphi

    def test_square_map(self):
        r = 1 / Y
        # 4y^2 r(y^2) + S(y^2) = 4 - 3/(2y^2)
        expected = RatFunc.constant(4) + RatFunc(Poly([F(-3, 2)]), Poly([0, 0, 1]))
        assert schwarz_pullback(r, Y * Y) == expected

    def test_constant_phi_raises(self):
        with pytest.raises(ValueError):
            schwarz_pullback(1 / Y, RatFunc.constant(1))


class TestMobius:
    def test_identity(self):
        f = (Y - 1) / (Y + 2)
        assert mobius_apply(MobiusMap.identity(), f) == f

    def test_inversion(self):
        assert mobius_apply(MobiusMap(0, -1, 1, 0), Y) == -1 / Y

    def test_translation(self):
        assert mobius_apply(MobiusMap(1, 1, 0, 1), Y) == Y + 1

    def test_singular_map_rejected(self):
        with pytest.raises(ValueError):
            MobiusMap(1, 2, 2, 4)

    def test_identically_zero_denominator(self):
        m = MobiusMap(1, 0, 1, -3)
        with pytest.raises(ZeroDivisionError):
            mobius_apply(m, RatFunc.constant(3))

    def test_inverse_composes_to_identity(self):
        m = MobiusMap(2, 3, 1, 4)
        assert mobius_apply(m.inverse(), mobius_apply(m, Y)) == Y


class TestStructure:
    def test_evaluation_at_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            (1 / Y)(F(0))

    def test_text_round_trip(self):
        cases = [
            RatFunc(Poly([-1, 2]), Poly([0, -1, 1])),
            RatFunc(Poly([F(1, 2), 0, 1]), Poly([1])),
            RatFunc.constant(0),
            RatFunc(Poly([F(-7, 3)]), Poly([F(5, 2), 1])),
        ]
        for f in cases:
            assert RatFunc.from_text(f.to_text()) == f

    def test_pickle_round_trip(self):
        cases = [
            RatFunc.constant(0),
            RatFunc.constant(F(-7, 3)),
            (Y * Y + 1) / (2 * Y - 3),
            Poly([]),
            Poly([F(1, 2), 0, -3]),
        ]
        for f in cases:
            g = pickle.loads(pickle.dumps(f))
            assert type(g) is type(f) and g == f and hash(g) == hash(f)
        g = pickle.loads(pickle.dumps(cases[2]))
        assert g.derivative() == cases[2].derivative() and g.num == cases[2].num

    @pytest.mark.parametrize("c", [0, 3, F(-2, 3)])
    def test_constants_hash_as_their_scalar(self, c):
        assert len({RatFunc.constant(c), c}) == 1
        assert len({Poly([c]), c}) == 1

    def test_bool_is_not_a_scalar_to_compare(self):
        # True == 1 in Python, but a bool is no exact scalar: comparing with
        # one is False, not an error, so `in` on a list of values works
        assert not Poly([1]) == True
        assert not RatFunc.constant(1) == True
        assert Poly([1]) != False
        assert True not in [Poly([1]), RatFunc.constant(1)]

    def test_from_text_missing_separator(self):
        with pytest.raises(ValueError):
            RatFunc.from_text("1,2,3")

    @pytest.mark.parametrize("text", ["1e10000000 / 1", "1 / 1,1e-10000000", "1e300000 / 1"])
    def test_from_text_bounds_each_coefficient(self, text):
        # read as Fraction(text), the first builds 10^10000000 before any
        # check could run
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds 10000 bits"):
            RatFunc.from_text(text)
        assert time.perf_counter() - start < 1.0

    def test_from_text_reads_exponent_notation_within_the_bound(self):
        assert RatFunc.from_text("1e3, 2.5 / 1") == 1000 + F(5, 2) * Y

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])

    @pytest.mark.parametrize(
        "make, error, message",
        [
            (lambda: RatFunc(1, 0), ZeroDivisionError, "zero denominator"),
            (lambda: rational.as_fraction(True), TypeError, "booleans are not exact scalars"),
            (lambda: rational.parse_fraction("1e5x"), ValueError, "not an exact fraction: '1e5x'"),
            (lambda: Y + object(), TypeError, "cannot interpret object as a rational function"),
            (lambda: RatFunc(object()), TypeError, "cannot interpret object as a polynomial"),
            (lambda: setattr(Poly([1]), "coeffs", (2,)), AttributeError, "Poly is immutable"),
            (lambda: setattr(Y, "_n", (2,)), AttributeError, "RatFunc is immutable"),
            (lambda: Poly().leading, ValueError, "zero polynomial has no leading coefficient"),
        ],
        ids=["zero-denominator", "bool", "fraction-text", "sum-with-object", "object", "poly-setattr", "setattr",
             "zero-leading"],
    )
    def test_error_messages(self, make, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            make()

    def test_truth_value(self):
        # zero is falsy, as a zero scalar is, and anything else truthy
        for value in (Poly(), Poly([0, 0]), RatFunc.constant(0), Y - Y):
            assert bool(value) is False
        for value in (Poly([0, 1]), Poly([F(-1, 2)]), Y, RatFunc.constant(F(1, 3)), 1 / Y):
            assert bool(value) is True

    def test_sum_with_a_poly(self):
        assert Y + Poly([1, 2]) == RatFunc(Poly([1, 3]))

    def test_repr(self):
        assert repr(Poly([])) == "Poly(0)"
        assert repr(Poly([1, F(-1, 2), 3])) == "Poly(3*y^2 - 1/2*y + 1)"
        assert repr(Poly([-1, 0, -1])) == "Poly(-y^2 - 1)"
        assert repr(Y + Poly([1, 2])) == "RatFunc(3*y + 1)"
        assert repr(RatFunc(Poly([1, 2]), Poly([3, 0, 1]))) == "RatFunc((2*y + 1) / (y^2 + 3))"


class TestParseFraction:
    def test_values(self):
        cases = {"1/2": F(1, 2), " -3/4 ": F(-3, 4), "0.25": F(1, 4), "1.5e-3": F(3, 2000), "1_000/3": F(1000, 3), ".5E+2": 50}
        for text, value in cases.items():
            assert rational.parse_fraction(text) == value == F(text)
        with pytest.raises(ValueError):
            rational.parse_fraction("1/2/3")
        with pytest.raises(ValueError, match="^not an exact fraction: '1/0'$"):
            rational.parse_fraction("1/0")
        with pytest.raises(ValueError, match="^not an exact fraction: '1/0'$"):
            RatFunc.from_text("1/0 / 1")

    def test_bit_bound(self):
        # 10^3010 has 10,000 bits and 10^3011 more; 2^10000 has 10,001
        assert rational.parse_fraction("1e3010") == 10**3010
        assert rational.parse_fraction("1e-3010") == F(1, 10**3010)
        assert rational.parse_fraction(str(2**10000 - 1)) == 2**10000 - 1
        for text in ("1e3011", "1e-3011", str(2**10000), "1/" + str(2**10000), "1e99999999999999999999"):
            with pytest.raises(ValueError, match="exceeds 10000 bits"):
                rational.parse_fraction(text)

    def test_as_fraction_bounds_text(self):
        with pytest.raises(ValueError):
            rational.as_fraction("1e10000000")
        assert rational.as_fraction("2/4") == F(1, 2)


class TestComplexParts:
    @staticmethod
    def _check(f: RatFunc) -> bool:
        """``_complex_parts(f)`` against complex() of each Fraction
        coefficient, bit for bit, or both raising OverflowError; True when
        the values were compared."""
        try:
            want = ([complex(c) for c in f.num.coeffs], [complex(c) for c in f.den.coeffs])
        except OverflowError:
            with pytest.raises(OverflowError):
                rational._complex_parts(f)
            return False
        num, den = rational._complex_parts(f)
        assert (bits(num), bits(den)) == (bits(want[0]), bits(want[1])), f
        return True

    def test_zero_and_constants(self):
        assert rational._complex_parts(RatFunc.constant(0)) == ([], [1 + 0j])
        for value in (F(-7, 3), F(1, 10**300), F(10**300, 7), F(-1)):
            assert self._check(RatFunc.constant(value))
        assert self._check(1 / (Y - F(1, 3)))

    def test_seeded_ratfuncs(self):
        rng = random.Random(2024)

        def coefficient():
            bits = rng.choice((4, 60, 1000, 9990))
            num = rng.getrandbits(bits) * rng.choice((-1, 1))
            return F(num, rng.getrandbits(rng.choice((4, 60, 1000, 9990))) + 1)

        def poly():
            cs = [coefficient() for _ in range(rng.randint(1, 4))]
            return Poly(cs if cs[-1] else cs + [1])

        compared = sum(self._check(RatFunc(poly(), poly())) for _ in range(60))
        assert compared >= 20

    def test_near_the_bit_bound(self):
        # numerators and denominators of up to 10,000 bits, with quotients
        # inside the float range, far below it and past it
        big = 2**10000 - 1
        cases = [
            F(big, big - 2),
            F(big, 2**9000),
            F(2**9000, big),
            F(-big, 3),
            F(1, big),
            F(2**1024 - 2**970),  # the largest float
            F(2**1024 - 2**969),  # rounds to 2^1024, past it
        ]
        overflowed = 0
        for c in cases:
            for f in (RatFunc.constant(c), c * Y + 1, (Y + c) / (Y - 1), 1 / (c * Y * Y + 1)):
                overflowed += not self._check(f)
        assert overflowed > 0


def _check_horner(p: Poly, x) -> None:
    """``Poly.__call__`` and ``_poly_at`` at x are Horner's rule: the same
    value of the same type, bit for bit at floating points."""
    want = horner(p.coeffs, x)
    for got in (p(x), rational._poly_at(p.coeffs, x)):
        assert type(got) is type(want), (p, x)
        assert got == want if rational._is_exact(want) else bits([got]) == bits([want]), (p, x)


class TestEvaluationMatchesReference:
    def test_every_scalar_type(self):
        # seeded functions, a third with an exact pole at a point evaluated,
        # at int, Fraction, float, complex and numpy scalar points: each
        # polynomial's value is Horner's and the function's num(x)/den(x),
        # or "pole at x" at an exact pole
        rng = random.Random(2024)
        for _ in range(400):
            pole = rng.choice((rng.randint(-3, 3), F(rng.randint(-5, 5), rng.randint(2, 4))))
            num = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))])
            den = Poly([F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4))] + [1])
            f = RatFunc(num, den * Poly([-pole, 1]) if rng.random() < 1 / 3 else den)
            u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
            points = (rng.randint(-5, 5), pole, F(rng.randint(-9, 9), rng.randint(1, 9)), u,
                      complex(u, v), np.float64(u), np.complex128(complex(v, u)))
            for x in points:
                _check_horner(f.num, x)
                _check_horner(f.den, x)
                den_x = horner(f.den.coeffs, x)
                if rational._is_exact(x) and den_x == 0:
                    with pytest.raises(ZeroDivisionError, match=f"^pole at {x}$"):
                        f(x)
                    continue
                got, want = f(x), horner(f.num.coeffs, x) / den_x
                assert type(got) is type(want), (f, x)
                assert got == want if rational._is_exact(x) else bits([got]) == bits([want]), (f, x)

    @pytest.mark.parametrize("x, text", [(2, "2"), (F(4, 2), "2"), (F(-1, 2), "-1/2"), (np.int64(2), "2")])
    def test_exact_pole_raises(self, x, text):
        # a numpy integer evaluates exactly, as an int does
        f = (Y + 1) / ((Y - 2) * (2 * Y + 1))
        with pytest.raises(ZeroDivisionError, match=f"^pole at {text}$"):
            f(x)


_FACTORS = [Poly([a, b]) for a in (-2, -1, 1, 3) for b in (1, 2)] + [Poly([1, 0, 1]), Poly([-2, 1, 1])]


def _product(rng, most: int) -> Poly:
    """A small scalar times up to ``most`` factors from ``_FACTORS``,
    repeated ones included, so that gcds of such products cancel."""
    p = Poly([F(rng.randint(-9, 9) or 1, rng.randint(1, 6))])
    for _ in range(rng.randint(0, most)):
        p = p * rng.choice(_FACTORS)
    return p


def _check_quotient(a, b) -> None:
    """a/b for a or b a RatFunc, the other one or a scalar: (c_a n_a d_b) /
    (c_b d_a n_b), or an error for b = 0."""
    fa, fb = rational._as_ratfunc(a), rational._as_ratfunc(b)
    if fb.is_zero:
        with pytest.raises(ZeroDivisionError, match="^division by the zero rational function$"):
            a / b
    else:
        assert_value(a / b, fa._c / fb._c, mul(fa._n, fb._d), mul(fa._d, fb._n))


class TestQuotientsMatchReference:
    def test_seeded_quotients_and_negative_powers(self):
        # seeded functions built from a few shared linear and quadratic
        # factors, so that the crosswise gcds cancel, with zero and scalar
        # divisors, both ways round; f**-n is d^n/n^n
        rng = random.Random(4141)

        def function():
            return RatFunc(_product(rng, 3), _product(rng, 3))

        for _ in range(1500):
            f = function() if rng.random() < 0.9 else RatFunc.constant(0)
            g = rng.choice((function(), function(), RatFunc.constant(0),
                            rng.randint(-5, 5), F(rng.randint(-5, 5), rng.randint(1, 5))))
            _check_quotient(f, g)
            _check_quotient(g, f)
            n = rng.randint(-4, 0)
            if f.is_zero and n < 0:
                with pytest.raises(ZeroDivisionError, match="^negative power of zero$"):
                    f**n
            else:
                num, den = (functools.reduce(mul, [p] * -n, [1]) for p in (f._d, f._n))
                assert_value(f**n, f._c**n, num, den)


def _closed_form_inputs(count, seed):
    """Seeded pairs (f, g).  f is a product of a few shared linear and
    quadratic factors, repeated ones included, over another such product or
    over 1; an affine map a y + b with a = +-2^60 or +-2^-60 times a small
    fraction, whose Wronskian is a constant; a function of degree up to 6
    with coefficients of up to 60 bits; or zero.  g is another such
    function, -f, zero, or f times another such function."""
    rng = random.Random(seed)

    def wide():
        length = rng.randint(1, 7)
        return Poly([rng.choice((-1, 1)) * (rng.getrandbits(rng.randint(1, 60)) or 1) for _ in range(length)])

    def function():
        kind = rng.randrange(5)
        if kind == 0:
            return RatFunc(_product(rng, 4), _product(rng, 4))
        if kind == 1:
            return RatFunc(_product(rng, 4))
        if kind == 2:
            a = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)) * F(2) ** rng.choice((60, -60))
            return RatFunc(Poly([F(rng.randint(-9, 9), rng.randint(1, 9)), a]))
        if kind == 3:
            return RatFunc(wide(), wide() if rng.random() < 0.7 else Poly([1]))
        return RatFunc.constant(0)

    for _ in range(count):
        f = function()
        yield f, rng.choice((function(), -f, RatFunc.constant(0), f * function()))


def _wronskian(n, d) -> list[int]:
    return lincomb(1, mul(deriv(n), d), -1, mul(n, deriv(d)))


class TestClosedFormsMatchReference:
    def test_wronskian_on_integer_lists(self):
        # N'D - ND' for lists of either sign and any length, the empty
        # numerator and constant lists included, with coefficients up to 2^60
        rng = random.Random(2323)

        def coeffs(length):
            return [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 60)) for _ in range(length)]

        for _ in range(2000):
            n, d = coeffs(rng.randint(0, 7)), coeffs(rng.randint(0, 6)) + [rng.choice((-1, 1)) << 60]
            assert rational._int_wronskian(n, d) == _wronskian(n, d)

    def test_seeded_sums_derivatives_and_schwarzians(self):
        # c n/d + c' n'/d' = (c n d' + c' n' d)/(d d'), both ways round;
        # (c n/d)' = c (n'd - nd')/d^2; and S(h) = h'''/h' - (3/2) (h''/h')^2,
        # by the derivatives and quotients checked here and above and a
        # checked sum, whose terms share factors of their denominators
        def checked_sum(a, b):
            (ka, qa), (kb, qb) = (x._c.as_integer_ratio() for x in (a, b))
            num = lincomb(ka * qb, mul(a._n, b._d), kb * qa, mul(b._n, a._d))
            s = a + b
            assert_value(s, F(1, qa * qb), num, mul(a._d, b._d))
            return s

        for f, g in _closed_form_inputs(600, seed=2024):
            checked_sum(f, g)
            checked_sum(g, f)
            for h in (f, g):
                h1 = h.derivative()
                assert_value(h1, h._c, _wronskian(h._n, h._d), mul(h._d, h._d))
                if h1.is_zero:
                    with pytest.raises(ValueError, match="^Schwarzian of a constant function$"):
                        schwarzian(h)
                    continue
                h2 = h1.derivative()
                s = checked_sum(h2.derivative() / h1, F(-3, 2) * (h2 / h1) ** 2)
                assert_value(schwarzian(h), s._c, s._n, s._d)


def _signed_lists(count, seed):
    """Seeded integer lists of 1 to 9 coefficients up to 200 bits, either
    sign, the leading one nonzero and negative in about half, times a
    content of 1, a small one or a wide one."""
    rng = random.Random(seed)
    for _ in range(count):
        a = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(0, 200)) for _ in range(rng.randint(1, 9))]
        a[-1] = rng.choice((-1, 1)) * (abs(a[-1]) or 1)
        k = rng.choice((1, 1, rng.randint(2, 12), rng.getrandbits(64) | 1))
        yield [k * c for c in a]


class TestCoefficientKernelsMatchReference:
    def test_horner_on_integer_lists_at_gcd_points(self):
        # sum a_i x^i at the first evaluation point of the heuristic gcd and
        # the next two it grows to, as _int_gcd_poly computes them
        for a in _signed_lists(500, seed=2525):
            x = 2 * max(map(abs, a)) + 29
            for _ in range(3):
                got = rational._poly_at(a, x)
                assert type(got) is int and got == sum(c * x**i for i, c in enumerate(a))
                x = x * 73794 * math.isqrt(math.isqrt(x)) // 27011
        assert rational._poly_at([], 7) == 0

    def test_horner_on_fraction_complex_and_numpy_points(self):
        # polynomials of up to nine coefficients
        rng = random.Random(2626)
        for _ in range(400):
            p = Poly([F(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(rng.randint(0, 9))])
            u, v = rng.uniform(-3, 3), rng.uniform(-3, 3)
            for x in (F(rng.randint(-9, 9), rng.randint(1, 9)), complex(u, v), np.complex128(complex(v, u))):
                _check_horner(p, x)

    def test_primitive_and_canonical(self):
        # _primitive(a) is primitive, of positive leading coefficient and
        # proportional to a; _canonical keeps c n/d and makes n and d so
        rng = random.Random(2727)
        lists = list(_signed_lists(800, seed=2828))
        for a in lists:
            p = rational._primitive(a)
            assert_primitive(p)
            assert not lincomb(p[-1], a, -a[-1], p)
            assert rational._signed_content(a) * p[-1] == a[-1]
        for n, d in zip(lists, reversed(lists)):
            c = rng.choice((F(0), F(1), F(rng.randint(-9, 9) or 1, rng.randint(1, 9))))
            n = rng.choice((n, []))
            n2, d2, c2 = rational._canonical(n, d, c)
            assert type(c2) is F
            if not n or not c:
                assert (tuple(n2), tuple(d2), c2) == ((), (1,), 0)
                continue
            assert_primitive(n2)
            assert_primitive(d2)
            assert_same_value(c2, n2, d2, c, n, d)
