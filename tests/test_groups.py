"""Tests for triangle-group signature classification."""

import itertools
import random
from fractions import Fraction as F
from math import cos, gcd, pi

import pytest

from schwarztri import groups
from schwarztri.groups import (
    ARITHMETIC_SIGNATURES,
    INF,
    Geometry,
    GroupReport,
    Signature,
    SpecialPolynomials,
    geometry,
    group_report,
    is_arithmetic,
    is_maximal,
)


class TestSignature:
    def test_validation(self):
        with pytest.raises(ValueError):
            Signature(1, 3, 7)
        with pytest.raises(ValueError):
            Signature(2, 3, -5)
        Signature(2, 3, INF)

    def test_key_sorted_entries_retained(self):
        s = Signature(7, 2, 3)
        assert s.entries == (7, 2, 3)
        assert s.key == (2, 3, 7)
        assert Signature(INF, 2, 3).key == (2, 3, INF)

    def test_parse_round_trip(self):
        s = Signature.parse("2, 3 ,inf")
        assert s.key == (2, 3, INF)
        assert Signature.parse(s.as_text()) == s

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="field 2"):
            Signature.parse("2,x,7")
        with pytest.raises(ValueError, match="three"):
            Signature.parse("2,3")


class TestGeometry:
    def test_examples(self):
        assert geometry(Signature(2, 3, 7)) is Geometry.HYPERBOLIC
        assert geometry(Signature(2, 3, 6)) is Geometry.EUCLIDEAN
        assert geometry(Signature(2, 3, 5)) is Geometry.SPHERICAL
        assert geometry(Signature(2, 2, INF)) is Geometry.EUCLIDEAN
        assert geometry(Signature(INF, INF, INF)) is Geometry.HYPERBOLIC

    def test_exact_comparison(self):
        assert Signature(2, 3, 7).angle_sum() == F(41, 42)

    @staticmethod
    def _assert_matches_fraction_sum(sig: Signature):
        # the three-term Fraction sum, infinity contributing 0
        s = sum((F(0) if e == INF else F(1, e) for e in sig.entries), F(0))
        expected = Geometry.HYPERBOLIC if s < 1 else Geometry.EUCLIDEAN if s == 1 else Geometry.SPHERICAL
        assert geometry(sig) is expected, sig
        angle_sum = sig.angle_sum()
        assert type(angle_sum) is F and angle_sum == s, sig

    def test_integer_sign_matches_fraction_sum(self):
        """Every sorted signature with entries in 2..60 and infinity."""
        kinds = set()
        sigs = list(itertools.combinations_with_replacement(list(range(2, 61)) + [INF], 3))
        assert len(sigs) == 37820
        for entries in sigs:
            sig = Signature(*entries)
            self._assert_matches_fraction_sum(sig)
            kinds.add(geometry(sig))
        assert kinds == set(Geometry)

    def test_integer_sign_on_100_digit_entries(self):
        rng = random.Random(100)
        big = [rng.randrange(10**99, 10**100) for _ in range(10)]
        sigs = [
            Signature(2, 2, big[0]),
            Signature(big[1], 2, 2),
            Signature(2, 3, big[2]),
            Signature(3, big[3], 3),
            Signature(2, big[4], INF),
            Signature(INF, big[5], INF),
            Signature(big[6], big[6], big[6]),
            Signature(big[7], big[8], big[9]),
            Signature(big[0], big[1], 2),
            Signature(2, big[2] * big[3], big[4]),
        ]
        for sig in sigs:
            assert max(e for e in sig.entries if e != INF) >= 10**99
            self._assert_matches_fraction_sum(sig)
        assert {geometry(sig) for sig in sigs} == {Geometry.SPHERICAL, Geometry.HYPERBOLIC}


class TestArithmeticity:
    def test_modular_group(self):
        assert is_arithmetic(Signature(2, 3, INF))

    def test_hurwitz(self):
        assert is_arithmetic(Signature(2, 3, 7))

    def test_non_arithmetic(self):
        assert not is_arithmetic(Signature(2, 3, 13))

    def test_order_irrelevant(self):
        assert is_arithmetic(Signature(7, 3, 2))

    def test_non_hyperbolic_rejected(self):
        message = "^arithmeticity is defined for hyperbolic signatures only, got 2,3,5$"
        with pytest.raises(ValueError, match=message):
            is_arithmetic(Signature(2, 3, 5))

    def test_table_keys_sorted(self):
        for key in ARITHMETIC_SIGNATURES:
            assert tuple(sorted(key)) == key


def _takeuchi_criterion(tri) -> bool:
    """Independent re-derivation: all nontrivial real embeddings of the
    invariant trace field must send the hyperbolic Gram quantity negative.
    Embeddings of Q(cos pi/k, ...) are realized by cos(pi/k) -> cos(pi j/k)
    for j coprime to 2*lcm of the finite entries."""

    def lam(j, k):
        return 2.0 if k == INF else 2.0 * cos(pi * j / k)

    def gens(j):
        ls = [lam(j, k) for k in tri]
        return (ls[0] ** 2, ls[1] ** 2, ls[2] ** 2, ls[0] * ls[1] * ls[2])

    def quantity(g):
        return g[0] + g[1] + g[2] + g[3] - 4.0

    n = 1
    for k in tri:
        if k != INF:
            n = n * 2 * k // gcd(n, 2 * k)
    base = gens(1)
    for j in range(2, n):
        if gcd(j, n) != 1:
            continue
        g = gens(j)
        if all(abs(g[i] - base[i]) < 1e-9 for i in range(4)):
            continue
        q = quantity(g)
        assert abs(q) > 1e-9, f"borderline conjugate for {tri}"
        if q > 0:
            return False
    return True


def test_table_matches_independent_rederivation():
    entries = list(range(2, 34))
    derived = set()
    for tri in itertools.combinations_with_replacement(entries + [INF], 3):
        if geometry(Signature(*tri)) is not Geometry.HYPERBOLIC:
            continue
        if _takeuchi_criterion(tri):
            derived.add(tri)
    embedded = {k for k in ARITHMETIC_SIGNATURES if all(e == INF or e <= 33 for e in k)}
    assert derived == embedded == ARITHMETIC_SIGNATURES


class TestMaximality:
    def test_examples(self):
        assert is_maximal(Signature(2, 3, 7))
        assert not is_maximal(Signature(2, 6, 12))  # (2, l, 2l)
        assert not is_maximal(Signature(3, 4, 12))  # (3, l, 3l)
        assert not is_maximal(Signature(5, 7, 7))  # (k, l, l)
        assert not is_maximal(Signature(2, INF, INF))

    def test_infinity_arithmetic(self):
        assert not is_maximal(Signature(3, INF, INF))  # 3 * inf = inf
        assert is_maximal(Signature(2, 5, INF))

    def test_ordering_invariance(self):
        for tri in [(2, 6, 12), (2, 3, 7), (4, 4, 5), (2, INF, 3)]:
            results = {is_maximal(Signature(*p)) for p in itertools.permutations(tri)}
            assert len(results) == 1


# -- reference: the report's record as a hand-written dict, before it was
# read from the dataclass fields, kept word for word but for the name; off the
# hyperbolic case, the record that the command line built before reports
# covered every geometry

NOTE = "non-hyperbolic signature: group-theoretic fields not applicable"


def reference_to_record(self) -> dict:
    if self.geometry is not Geometry.HYPERBOLIC:
        record = dict.fromkeys(("geometry", "arithmetic", "maximal", "in_m", "in_w", "special_polynomials"))
        record["geometry"] = self.geometry.value
        record["note"] = NOTE
        return record
    return {
        "geometry": self.geometry.value,
        "arithmetic": self.arithmetic,
        "maximal": self.maximal,
        "in_m": self.in_m,
        "in_w": self.in_w,
        "special_polynomials": self.special_polynomials.value,
    }


class TestGroupReport:
    def test_maximal_non_arithmetic(self):
        rep = group_report(Signature(2, 3, 13))
        assert rep.maximal and not rep.arithmetic
        assert not rep.in_m and not rep.in_w
        assert rep.special_polynomials is SpecialPolynomials.NONE

    def test_arithmetic_cusped(self):
        rep = group_report(Signature(2, 3, INF))
        assert rep.arithmetic and rep.maximal
        assert rep.in_w and not rep.in_m
        assert rep.special_polynomials is SpecialPolynomials.INFINITELY_MANY

    def test_non_maximal_arithmetic(self):
        rep = group_report(Signature(2, 7, 14))
        assert rep.in_m and rep.in_w and rep.arithmetic
        assert rep.special_polynomials is SpecialPolynomials.INFINITELY_MANY

    def test_non_maximal_non_arithmetic(self):
        rep = group_report(Signature(2, 11, 11))
        assert rep.in_m and not rep.arithmetic
        assert rep.special_polynomials is SpecialPolynomials.FINITELY_CONSTRAINED

    @pytest.mark.parametrize("entries, geo", [
        ((2, 3, 6), Geometry.EUCLIDEAN), ((2, 3, 5), Geometry.SPHERICAL), ((2, 2, INF), Geometry.EUCLIDEAN)])
    def test_non_hyperbolic_report(self, entries, geo):
        rep = group_report(Signature(*entries))
        assert rep == GroupReport(geo, None, None, None, None, None)
        assert rep.to_record() == {
            "geometry": geo.value,
            "arithmetic": None,
            "maximal": None,
            "in_m": None,
            "in_w": None,
            "special_polynomials": None,
            "note": NOTE,
        }

    @pytest.mark.parametrize("entries", [(2, 3, 7), (2, 3, 13), (2, 3, INF), (2, 3, 6), (3, 3, 2)])
    def test_geometry_decided_once(self, monkeypatch, entries):
        calls = []
        monkeypatch.setattr(groups, "geometry", lambda sig: calls.append(sig) or geometry(sig))
        sig = Signature(*entries)
        rep = group_report(sig)
        assert rep.geometry is geometry(sig) and calls == [sig]
        if rep.arithmetic is None:
            with pytest.raises(ValueError):
                is_arithmetic(sig)
        else:
            assert is_arithmetic(sig) is rep.arithmetic
        assert calls == [sig, sig]

    def test_record_matches_reference(self):
        # every signature with entries in 2..30 and inf, in every entry
        # order: the same keys in the same order, with the same values
        entries = list(range(2, 31)) + [INF]
        kinds = set()
        for tri in itertools.product(entries, repeat=3):
            rep = group_report(Signature(*tri))
            assert list(rep.to_record().items()) == list(reference_to_record(rep).items()), tri
            kinds.add(rep.geometry)
        assert kinds == set(Geometry)

    def test_invariants_sweep(self):
        entries = list(range(2, 31)) + [INF]
        for tri in itertools.combinations_with_replacement(entries, 3):
            sig = Signature(*tri)
            if geometry(sig) is not Geometry.HYPERBOLIC:
                continue
            rep = group_report(sig)
            assert rep.in_w == (rep.in_m or rep.arithmetic)
            assert (rep.special_polynomials is SpecialPolynomials.NONE) == (
                rep.maximal and not rep.arithmetic
            )
            assert (rep.special_polynomials is SpecialPolynomials.INFINITELY_MANY) == rep.arithmetic
            assert rep.in_m == (not rep.maximal)
