"""Tests for the triangle-equation construction and hypergeometric reduction."""

import copy
import itertools
import math
import pickle
import random
import time
from fractions import Fraction as F

import pytest

from schwarztri.groups import Signature
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
    def test_parse_bounds_exponent_notation(self):
        # Fraction would multiply the exponent out: judged from the text,
        # so each rejection is immediate
        assert AngleParams.parse("1e3000,1/2,1/3").e_alpha == 10**3000
        for text in ("1e3100", "1e-3100", "1e10000000", "1e-10000000", "0e10000000", "3/" + "7" * 3100):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="field 2: numerator or denominator exceeds 10000 bits"):
                AngleParams.parse(f"1/2,{text},1/3")
            assert time.perf_counter() - start < 1.0

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

    def test_generic_text_and_repr(self):
        assert AngleParams.generic().as_text() == "generic"
        assert repr(GENERIC) == "GENERIC"

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

    @pytest.mark.parametrize("entry", [1, 0, True, 2.0, -math.inf])
    def test_from_signature_entries_rejects_as_signature_does(self, entry):
        with pytest.raises(ValueError) as from_entries:
            AngleParams.from_signature_entries(2, entry, 7)
        with pytest.raises(ValueError) as from_signature:
            Signature(2, entry, 7)
        assert str(from_entries.value) == str(from_signature.value)
        assert "signature entry must be an integer >= 2 or inf" in str(from_entries.value)


class TestBuildR:
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


    def test_matches_gcd_reduction(self):
        # the direct reduction against RatFunc's gcd reduction of the
        # numerator over 2 y^2 (y-1)^2: equal, and the same canonical
        # integer form, on seeded triples, the exponents +-1 at 0, at 1 and
        # at infinity, the triple with r = 0 and the cusp triple
        def by_gcd(a, b, g):
            c0, c1 = 1 - b * b, 1 - g * g
            c_mix = b * b + g * g - a * a - 1
            return RatFunc(Poly([c0, -2 * c0 - c_mix, c0 + c1 + c_mix]), Poly([0, 0, 2, -4, 2]))

        rng = random.Random(16)
        triples = [
            tuple(F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)) for _ in range(20_000)
        ]
        for sign in (1, -1):
            triples += [(sign, "1/3", "2/5"), ("1/3", sign, "2/5"), ("1/3", "2/5", sign)]
            triples += [(sign, sign, "2/7"), ("2/7", sign, sign), (sign, "2/7", sign)]
        triples += [(1, 1, 1), (0, 1, 1), ("1/2", 1, "1/2"), ("1/2", "1/2", 1), (0, 0, 0), (1, 0, 1), (1, 1, 0)]
        rng = random.Random(5)
        triples += [tuple(F(rng.randint(-14, 14), rng.randint(1, 7)) for _ in range(3)) for _ in range(300)]
        # every triple of exponents 0, +-1/2, +-1, +-3/2 and +-2: those of
        # modulus 1 at 1 put y - 1 in the numerator, once or, with equal
        # moduli at infinity and 0, twice, and 0 at 0 puts y there
        triples += itertools.product([F(k, 2) for k in range(-4, 5)], repeat=3)
        assert by_gcd(F(1), F(1), F(1)).is_zero
        pole_orders_at_1 = set()
        for triple in triples:
            r = build_r(params(*triple))
            expected = by_gcd(*(F(v) for v in triple))
            assert r == expected, triple
            assert (r._n, r._d, r._c) == (expected._n, expected._d, expected._c), triple
            assert all(type(x) is int for x in r._n + r._d), triple
            d = r._d
            pole_orders_at_1.add((sum(d) == 0) + (sum(d) == 0 and sum(i * c for i, c in enumerate(d)) == 0))
        # y - 1 divided out of the numerator twice, once and not at all
        assert pole_orders_at_1 == {0, 1, 2}


class TestGenericIdentity:
    def test_pickle_and_copy_resolve_to_the_module_constant(self):
        assert pickle.loads(pickle.dumps(GENERIC)) is GENERIC
        assert copy.copy(GENERIC) is GENERIC and copy.deepcopy(GENERIC) is GENERIC
        assert copy.deepcopy(AngleParams.generic()).e_alpha is GENERIC
        p = pickle.loads(pickle.dumps(AngleParams.generic()))
        assert p == AngleParams.generic() and p.is_generic and p.e_gamma is GENERIC


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

    def test_from_exponent_differences_is_the_inverse(self):
        rng = random.Random(31)
        triples = [(0, 1, -2)] + [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] for _ in range(200)]
        for a, b, c in triples:
            assert exponent_differences(AngleParams.from_exponent_differences(a, b, c)) == ExponentTriple(a, b, c)


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
