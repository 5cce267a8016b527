"""Unit tests for the exact rational-function algebra."""

import pickle
import random
from fractions import Fraction as F

import pytest

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


def _planted_pairs(count, seed):
    """Integer polynomial pairs a = g u, b = g v with a planted common factor
    g: factors of degree 0 to 8, coefficients of 1 to 200 bits with mixed
    signs, and a factor y^k on both sides in about a third of the pairs."""
    rng = random.Random(seed)

    def factor():
        bits = rng.randint(1, 200)
        cs = [rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(rng.randint(0, 8) + 1)]
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


def _count_points(monkeypatch):
    """Record how many evaluation points each heuristic gcd call uses."""
    calls = []
    evaluate = rational._int_eval
    monkeypatch.setattr(rational, "_int_eval", lambda a, x: calls.append(x) or evaluate(a, x))
    return lambda: len(set(calls))


class TestHeuristicGcd:
    def test_matches_prs_on_planted_factors(self, monkeypatch):
        prs = rational._prs_gcd
        fallbacks = []
        monkeypatch.setattr(rational, "_prs_gcd", lambda a, b: fallbacks.append((a, b)) or prs(a, b))
        for a, b in _planted_pairs(300, seed=7):
            g = rational._int_gcd_poly(a, b)
            ref = prs(*([c // rational._int_content(p) for c in p] for p in (a, b)))
            assert g == ref or g == [-c for c in ref]
            assert g[-1] > 0 and rational._int_content(g) == 1
        # the first points are large enough and not powers of two, so the
        # PRS never has to answer on these pairs
        assert not fallbacks

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
        assert rational._int_gcd_poly(a, b) == gcd
        assert points() == 1

    @pytest.mark.parametrize("a, b", [([1, 1], [31, 0, 1]), ([31, 0, 1], [1, 1])])
    def test_retry_after_a_candidate_that_divides_one_side(self, monkeypatch, a, b):
        # at x = 31, a(x) = 32 divides b(x) = 992, so the first candidate is
        # y + 1, which divides y + 1 but not y^2 + 31
        points = _count_points(monkeypatch)
        assert rational._int_gcd_poly(a, b) == [1]
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

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Poly([0.5])
