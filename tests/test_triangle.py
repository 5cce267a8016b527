"""Tests for the triangle-equation construction and hypergeometric reduction."""

import math
import random
from fractions import Fraction as F

import pytest

from schwarztri.rational import Poly, RatFunc
from schwarztri.triangle import (
    GENERIC,
    AngleParams,
    ExponentTriple,
    build_r,
    exponent_differences,
    to_hypergeometric,
)

Y = RatFunc.variable()


def params(a, b, c):
    return AngleParams(F(a), F(b), F(c))


class TestAngleParams:
    def test_mixed_generic_rejected(self):
        with pytest.raises(ValueError):
            AngleParams(GENERIC, F(1, 2), F(1, 3))

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            AngleParams(0.5, F(1, 3), F(1, 7))

    def test_parse_and_round_trip(self):
        p = AngleParams.parse("1/2, 1/3 ,1/7")
        assert p == params("1/2", "1/3", "1/7")
        assert AngleParams.parse(p.as_text()) == p
        assert AngleParams.parse("generic").is_generic

    def test_parse_errors_carry_position(self):
        with pytest.raises(ValueError, match="field 2"):
            AngleParams.parse("1/2,x,1/3")
        with pytest.raises(ValueError, match="three"):
            AngleParams.parse("1/2,1/3")

    def test_from_signature_entries(self):
        p = AngleParams.from_signature_entries(2, 3, math.inf)
        assert p == params("1/2", "1/3", 0)
        with pytest.raises(ValueError):
            AngleParams.from_signature_entries(1, 3, 7)


class TestBuildR:
    def test_cusp_parameters(self):
        """The closed form equals the three-term sum, with the same reduced
        text, on the cusp triple, degenerate triples and seeded triples."""

        def three_terms(a, b, g):
            half = F(1, 2)
            return (
                RatFunc(Poly([half * (1 - b * b)]), Poly([0, 0, 1]))
                + RatFunc(Poly([half * (1 - g * g)]), Poly([1, -2, 1]))
                + RatFunc(Poly([half * (b * b + g * g - a * a - 1)]), Poly([0, -1, 1]))
            )

        rng = random.Random(5)
        triples = [(0, 0, 0), (1, 1, 1), (1, 0, 1), (0, 1, 1), (1, 1, 0)] + [
            tuple(F(rng.randint(-14, 14), rng.randint(1, 7)) for _ in range(3))
            for _ in range(300)
        ]
        for triple in triples:
            r = build_r(params(*triple))
            expected = three_terms(*(F(v) for v in triple))
            assert r == expected, triple
            assert r.to_text() == expected.to_text(), triple

    def test_value_at_two(self):
        assert build_r(params(0, 0, 0))(F(2)) == F(3, 8)

    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            build_r(AngleParams.generic())

    def test_pole_structure_under_sweep(self):
        rng = random.Random(1)
        for _ in range(60):
            vals = [F(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(3)]
            r = build_r(AngleParams(*vals))
            # the reduced denominator divides y^2 (y-1)^2: poles of order at
            # most 2 at 0 and 1, and no others
            master = RatFunc(Poly([0, 0, 1, -2, 1]))
            assert (master / RatFunc(r.den)).den == Poly([1])
            if vals[0] * vals[0] != 1:
                assert r.den.degree - r.num.degree >= 2


class TestLinearODE:
    def test_triangle_coefficient(self):
        """The potential q = r/2 of u'' + q u = 0 for (1/2, 1/3, 1/7) keeps a
        pole of order exactly 2 at both 0 and 1 after reduction."""
        q = build_r(params("1/2", "1/3", "1/7")) * F(1, 2)
        assert q.den == Poly([0, 0, 1, -2, 1])
        assert q * 2 == build_r(params("1/2", "1/3", "1/7"))


class TestExponentDifferences:
    def test_order_convention(self):
        e = exponent_differences(params("1/2", "1/3", "1/7"))
        assert e == ExponentTriple(at0=F(1, 3), at1=F(1, 7), at_inf=F(1, 2))

    def test_zero_triple(self):
        assert exponent_differences(params(0, 0, 0)) == ExponentTriple(F(0), F(0), F(0))

    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            exponent_differences(AngleParams.generic())


class TestHypergeometricReduction:
    def test_cusp_case(self):
        hg = to_hypergeometric(params(0, 0, 0))
        assert (hg.a, hg.b, hg.c) == (F(1, 2), F(1, 2), F(1))

    def test_hurwitz_case(self):
        hg = to_hypergeometric(params("1/2", "1/3", "1/7"))
        assert (hg.a, hg.b, hg.c) == (F(43, 84), F(1, 84), F(2, 3))

    def test_exponent_relations_random(self):
        rng = random.Random(2)
        for _ in range(100):
            vals = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3)]
            p = AngleParams(*vals)
            hg = to_hypergeometric(p)
            e = exponent_differences(p)
            assert 1 - hg.c == e.at0
            assert hg.c - hg.a - hg.b == e.at1
            assert hg.a - hg.b == e.at_inf
