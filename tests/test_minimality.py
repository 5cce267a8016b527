"""Tests for the exact strong-minimality classifier."""

import dataclasses
import itertools
import random
from fractions import Fraction as F
from typing import Optional

import pytest
from definitions import den8_params
from hypothesis import given, settings, strategies as st

from schwarztri.minimality import (
    Condition1Witness,
    Condition2Witness,
    MinimalityVerdict,
    Verdict,
    check_condition1,
    check_condition2,
    classify,
)
from schwarztri.triangle import AngleParams, ExponentTriple, exponent_differences


def triple(a, b, c):
    return ExponentTriple(F(a), F(b), F(c))


class TestCondition1:
    def test_equianharmonic(self):
        w = check_condition1(triple("1/3", "1/3", "1/3"))
        assert w is not None and w.value == 1
        assert w.verify(triple("1/3", "1/3", "1/3"))

    def test_hurwitz_triple_empty(self):
        assert check_condition1(triple("1/3", "1/7", "1/2")) is None

    def test_half_half_zero(self):
        w = check_condition1(triple("1/2", 0, "1/2"))
        assert w is not None and w.value == 1

    def test_negative_odd_sum(self):
        w = check_condition1(triple("-5/2", "1/2", "1"))
        assert w is not None and w.value % 2 != 0
        assert w.verify(triple("-5/2", "1/2", "1"))


class TestCondition2:
    def test_dihedral_row_with_shift(self):
        w = check_condition2(triple("1/2", "3/2", "1/5"))
        assert w is not None and w.row == 1
        assert w.verify(triple("1/2", "3/2", "1/5"))

    def test_octahedral_row(self):
        w = check_condition2(triple("1/2", "1/3", "1/4"))
        assert w is not None and w.row == 4 and not w.parity_used
        assert w.shifts == (0, 0, 0)

    def test_hurwitz_triple_empty(self):
        assert check_condition2(triple("1/2", "1/3", "1/7")) is None

    def test_tetrahedral_row(self):
        # the (2,3,3) spherical group sits in row 2
        w = check_condition2(triple("1/3", "1/3", "1/2"))
        assert w is not None and w.row == 2

    def test_parity_clause_blocks_odd_shift_sum(self):
        # entries congruent to row 3 residues but with an odd shift sum
        e = triple("1/3", "1/3", "1/3")  # matches (2/3,1/3,1/3) only with odd sum
        w = check_condition2(e)
        assert w is None or w.row != 3

    def test_witness_reverification(self):
        rng = random.Random(4)
        found = 0
        for _ in range(400):
            e = ExponentTriple(*[F(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(3)])
            w = check_condition2(e)
            if w is not None:
                found += 1
                assert w.verify(e)
        assert found > 20

    def test_tampered_witness_fails_verification(self):
        e = triple("1/2", "1/3", "1/4")
        w = check_condition2(e)
        bad = Condition2Witness(
            row=w.row,
            signs=w.signs,
            permutation=w.permutation,
            shifts=(1, 0, 0),
            parity_used=w.parity_used,
        )
        assert not bad.verify(e)


class TestWitnessSoundness:
    """Witnesses no search can emit must not verify: signs outside +-1, or a
    row outside 1..15."""

    def test_condition2_signs_must_be_unit(self):
        params = AngleParams(F(1, 7), F(1, 4), F(1, 4))
        assert classify(params).verdict is Verdict.STRONGLY_MINIMAL
        w = Condition2Witness(
            row=1, signs=(1, 2, 2), permutation=(1, 2, 0), shifts=(0, 0, None), parity_used=False
        )
        assert not w.verify(exponent_differences(params))

    def test_condition1_signs_must_be_unit(self):
        params = AngleParams(F(1, 7), F(1, 4), F(1, 4))
        w = Condition1Witness(signs=(7, 4, 4), value=3)
        assert not w.verify(exponent_differences(params))

    def test_row_out_of_range(self):
        e = triple("3/5", "2/5", "1/3")
        w = check_condition2(e)
        assert w is not None and w.row == 15 and w.verify(e)
        for row in (0, 16, -1):
            assert not dataclasses.replace(w, row=row).verify(e), row


class TestClassify:
    def test_hurwitz_strongly_minimal(self):
        v = classify(AngleParams(F(1, 2), F(1, 3), F(1, 7)))
        assert v.verdict is Verdict.STRONGLY_MINIMAL and v.witness is None

    def test_equianharmonic_not_strongly_minimal(self):
        v = classify(AngleParams(F(1, 3), F(1, 3), F(1, 3)))
        assert v.verdict is Verdict.NOT_STRONGLY_MINIMAL
        assert isinstance(v.witness, Condition1Witness)

    def test_generic(self):
        v = classify(AngleParams.generic())
        assert v.verdict is Verdict.GENERIC_STRONGLY_MINIMAL

    def test_verdict_requires_witness(self):
        with pytest.raises(ValueError):
            MinimalityVerdict(Verdict.NOT_STRONGLY_MINIMAL)
        with pytest.raises(ValueError):
            MinimalityVerdict(
                Verdict.STRONGLY_MINIMAL,
                Condition1Witness(signs=(1, 1, 1), value=1),
            )

    def test_spherical_groups_integrable(self):
        for k, l, m in [(2, 2, 5), (2, 3, 3), (2, 3, 4), (2, 3, 5)]:
            v = classify(AngleParams.from_signature_entries(k, l, m))
            assert v.verdict is Verdict.NOT_STRONGLY_MINIMAL, (k, l, m)

    def test_euclidean_groups_integrable(self):
        for k, l, m in [(2, 3, 6), (2, 4, 4), (3, 3, 3)]:
            v = classify(AngleParams.from_signature_entries(k, l, m))
            assert v.verdict is Verdict.NOT_STRONGLY_MINIMAL, (k, l, m)


fractions_strategy = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@settings(max_examples=150, deadline=None)
@given(fractions_strategy, fractions_strategy, fractions_strategy)
def test_sign_symmetry(a, b, c):
    base = classify(AngleParams(a, b, c)).verdict
    for sa, sb, sc in itertools.product((1, -1), repeat=3):
        assert classify(AngleParams(sa * a, sb * b, sc * c)).verdict is base


@settings(max_examples=150, deadline=None)
@given(fractions_strategy, fractions_strategy, fractions_strategy)
def test_permutation_symmetry(a, b, c):
    base = classify(AngleParams(a, b, c)).verdict
    for p in itertools.permutations((a, b, c)):
        assert classify(AngleParams(*p)).verdict is base


@settings(max_examples=120, deadline=None)
@given(fractions_strategy, fractions_strategy, fractions_strategy, st.integers(-3, 3), st.integers(0, 2))
def test_integer_shift_symmetry(a, b, c, shift, slot):
    """Shifting an entry by an integer (by 2 for parity rows) preserves a
    condition-2 non-minimality verdict."""
    params = AngleParams(a, b, c)
    v = classify(params)
    if v.verdict is not Verdict.NOT_STRONGLY_MINIMAL:
        return
    if not isinstance(v.witness, Condition2Witness):
        return
    step = shift * 2 if v.witness.parity_used else shift
    vals = [a, b, c]
    vals[slot] += step
    assert classify(AngleParams(*vals)).verdict is Verdict.NOT_STRONGLY_MINIMAL


# -- differential test against the full table sweep --------------------------
#
# The search and verifiers below are the module's earlier implementation, kept
# word for word (with its table) as the reference: a full sweep of every row,
# sign choice and permutation, and a verifier that repeats the column test.
# The module must return the same witnesses, and give the same verification
# results on valid and tampered witnesses whose signs are +-1 and row is 1..15.

_F = F
_TABLE: tuple[tuple[tuple[Optional[F], ...], bool], ...] = (
    ((_F(1, 2), _F(1, 2), None), False),
    ((_F(1, 2), _F(1, 3), _F(1, 3)), False),
    ((_F(2, 3), _F(1, 3), _F(1, 3)), True),
    ((_F(1, 2), _F(1, 3), _F(1, 4)), False),
    ((_F(2, 3), _F(1, 4), _F(1, 4)), True),
    ((_F(1, 2), _F(1, 3), _F(1, 5)), False),
    ((_F(2, 5), _F(1, 3), _F(1, 3)), True),
    ((_F(2, 3), _F(1, 5), _F(1, 5)), True),
    ((_F(1, 2), _F(2, 5), _F(1, 5)), True),
    ((_F(3, 5), _F(1, 3), _F(1, 5)), True),
    ((_F(2, 5), _F(2, 5), _F(2, 5)), True),
    ((_F(2, 3), _F(1, 3), _F(1, 5)), True),
    ((_F(4, 5), _F(1, 5), _F(1, 5)), True),
    ((_F(1, 2), _F(2, 5), _F(1, 3)), True),
    ((_F(3, 5), _F(2, 5), _F(1, 3)), True),
)
_SIGN_CHOICES = tuple(itertools.product((1, -1), repeat=3))
_PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))


def _values_alpha_beta_gamma(e: ExponentTriple) -> tuple[F, F, F]:
    return (e.at_inf, e.at0, e.at1)


def reference_check_condition1(e: ExponentTriple) -> Optional[Condition1Witness]:
    v = _values_alpha_beta_gamma(e)
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        total = sum(s * x for s, x in zip(signs, v))
        if total.denominator == 1 and total.numerator % 2 != 0:
            return Condition1Witness(signs=signs, value=int(total))
    return None


def reference_verify1(self: Condition1Witness, e: ExponentTriple) -> bool:
    v = _values_alpha_beta_gamma(e)
    total = sum(s * x for s, x in zip(self.signs, v))
    return total == self.value and self.value % 2 != 0


def _integer_shift(value: F, frac: F) -> Optional[int]:
    # value - frac is an integer iff the reduced denominators agree
    q = frac.denominator
    if value.denominator != q:
        return None
    num = value.numerator - frac.numerator
    return num // q if num % q == 0 else None


def reference_check_condition2(e: ExponentTriple) -> Optional[Condition2Witness]:
    """Deterministic sweep of the 15 table rows, 8 sign choices and 6 column
    permutations; returns the first match or None."""
    v = _values_alpha_beta_gamma(e)
    # feasible[(slot, sign)][col] = integer shift or None, per row
    for row_index, (fracs, parity) in enumerate(_TABLE, start=1):
        shift_of = {}
        row_possible = True
        for col, frac in enumerate(fracs):
            if frac is None:
                continue
            col_possible = False
            for slot in range(3):
                for sign in (1, -1):
                    s = _integer_shift(sign * v[slot], frac)
                    shift_of[(col, slot, sign)] = s
                    col_possible = col_possible or s is not None
            if not col_possible:
                row_possible = False
                break
        if not row_possible:
            continue
        for signs in _SIGN_CHOICES:
            for perm in _PERMUTATIONS:
                shifts: list[Optional[int]] = [None, None, None]
                total = 0
                ok = True
                for col, frac in enumerate(fracs):
                    if frac is None:
                        continue
                    slot = perm[col]
                    s = shift_of[(col, slot, signs[slot])]
                    if s is None:
                        ok = False
                        break
                    shifts[col] = s
                    total += s
                if not ok:
                    continue
                if parity and total % 2 != 0:
                    continue
                return Condition2Witness(
                    row=row_index,
                    signs=signs,
                    permutation=perm,
                    shifts=tuple(shifts),
                    parity_used=parity,
                )
    return None


def reference_verify2(self: Condition2Witness, e: ExponentTriple) -> bool:
    fracs, parity = _TABLE[self.row - 1]
    if parity != self.parity_used:
        return False
    v = _values_alpha_beta_gamma(e)
    if sorted(self.permutation) != [0, 1, 2]:
        return False
    total = 0
    for col, frac in enumerate(fracs):
        slot = self.permutation[col]
        shift = self.shifts[col]
        if frac is None:
            if shift is not None:
                return False
            continue
        if shift is None:
            return False
        if self.signs[slot] * v[slot] != frac + shift:
            return False
        total += shift
    if parity and total % 2 != 0:
        return False
    return True


def _tampered1(w: Condition1Witness, e: ExponentTriple):
    yield w, e
    yield dataclasses.replace(w, value=w.value + 2), e
    yield dataclasses.replace(w, signs=(-w.signs[0],) + w.signs[1:]), e


def _tampered2(w: Condition2Witness, e: ExponentTriple):
    """The witness, then copies with one field changed (signs stay +-1 and
    rows stay in 1..15), then the witness moved with its triple: one fixed
    column's value and shift both grow by one, so that the shift sum changes
    parity and only the parity clause decides."""
    yield w, e
    col = next(j for j, s in enumerate(w.shifts) if s is not None)
    bumped = list(w.shifts)
    bumped[col] += 1
    yield dataclasses.replace(w, shifts=tuple(bumped)), e
    yield dataclasses.replace(w, parity_used=not w.parity_used), e
    yield dataclasses.replace(w, row=w.row % 15 + 1), e
    slot = w.permutation[col]
    signs = list(w.signs)
    signs[slot] = -signs[slot]
    yield dataclasses.replace(w, signs=tuple(signs)), e
    perm = w.permutation
    yield dataclasses.replace(w, permutation=(perm[1], perm[0], perm[2])), e
    v = list(_values_alpha_beta_gamma(e))
    v[slot] += w.signs[slot]
    moved = ExponentTriple(at0=v[1], at1=v[2], at_inf=v[0])
    yield dataclasses.replace(w, shifts=tuple(bumped)), moved


def _assert_matches_reference(triples) -> tuple[set, int]:
    rows, parity_decided = set(), 0
    for e in triples:
        w1 = check_condition1(e)
        assert w1 == reference_check_condition1(e), e
        if w1 is not None:
            for w, t in _tampered1(w1, e):
                assert w.verify(t) == reference_verify1(w, t), (w, t)
        w2 = check_condition2(e)
        assert w2 == reference_check_condition2(e), e
        if w2 is not None:
            rows.add(w2.row)
            for w, t in _tampered2(w2, e):
                ok = w.verify(t)
                assert ok == reference_verify2(w, t), (w, t)
            # ok is the moved copy's result, which only the parity clause rejects
            parity_decided += w2.parity_used and not ok
    return rows, parity_decided


# every residue class a table entry can match, both signs, plus the integers
_GRID_RESIDUES = (F(0), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(2, 5), F(3, 5), F(4, 5))


def test_condition_searches_match_reference_on_residue_grid():
    """Every ordered triple of table residues, each under seven shift vectors
    ((t, 2t, 3t) mod 7) - 3 for t in 0..6: every slot takes every shift in [-3, 3], and the
    shift sums take both parities."""
    shift_vectors = [tuple((t * (j + 1)) % 7 - 3 for j in range(3)) for t in range(7)]
    triples = [
        ExponentTriple(at0=r[1] + k[1], at1=r[2] + k[2], at_inf=r[0] + k[0])
        for r in itertools.product(_GRID_RESIDUES, repeat=3)
        for k in shift_vectors
    ]
    rows, parity_decided = _assert_matches_reference(triples)
    assert rows == set(range(1, 16))
    assert parity_decided > 0


def test_condition_searches_match_reference_on_seeded_triples():
    rng = random.Random(8)

    def value():
        q = rng.randint(1, 10)
        return F(rng.randint(-6 * q, 6 * q), q)

    rows, _ = _assert_matches_reference([ExponentTriple(value(), value(), value()) for _ in range(3000)])
    assert len(rows) > 5


def test_condition_searches_match_reference_on_shared_factor_denominators():
    """Denominators 6, 10, 12, 30, 60 and multiples, so that the lcm of a
    triple's denominators is below their product.  In half the triples a
    signed sum is an integer by construction, which condition 1 tests."""
    rng = random.Random(20)
    dens = [d * k for d in (6, 10, 12, 30, 60) for k in (1, 2, 7)]

    def value():
        q = rng.choice(dens)
        return F(rng.randint(-4 * q, 4 * q), q)

    triples = []
    for i in range(2000):
        a, b, c = value(), value(), value()
        if i % 2:
            c = rng.choice((1, -1)) * (rng.randint(-5, 5) - rng.choice((1, -1)) * a - rng.choice((1, -1)) * b)
        triples.append(ExponentTriple(a, b, c))
    rows, _ = _assert_matches_reference(triples)
    assert len(rows) > 5
    assert sum(check_condition1(e) is not None for e in triples) > 200


def test_condition_searches_match_reference_on_large_values():
    """Denominators up to 10^6 (primes and prime powers, down to 2) and
    numerators up to 3000 bits; every fourth triple closes a signed sum to an
    integer."""
    rng = random.Random(21)
    dens = (2, 3, 4, 5, 8, 9, 25, 27, 997, 65536, 78125, 99991, 524288, 531441, 823543, 999983)

    def value():
        p = rng.getrandbits(rng.randint(1, 3000))
        return F(rng.choice((1, -1)) * p, rng.choice(dens))

    triples = []
    for i in range(500):
        a, b, c = value(), value(), value()
        if i % 4 == 0:
            c = rng.getrandbits(3000) - a - b
        triples.append(ExponentTriple(a, b, c))
    rows, _ = _assert_matches_reference(triples)
    assert rows
    assert sum(check_condition1(e) is not None for e in triples) > 20


def test_condition_searches_match_reference_with_integers_in_every_slot():
    """Zero and +-integers in each slot, next to integers and table residues
    in the others."""
    values = [F(n) for n in range(-3, 4)] + [F(1, 2), F(-1, 2), F(1, 3), F(-2, 3), F(3, 5), F(1, 4)]
    triples = [
        ExponentTriple(a, b, c)
        for a, b, c in itertools.product(values, repeat=3)
        if any(x.denominator == 1 for x in (a, b, c))
    ]
    rows, _ = _assert_matches_reference(triples)
    assert 1 in rows
    assert sum(check_condition1(e) is not None for e in triples) > 100


def test_classify_matches_reference_on_the_den8_sweep():
    """The verdict records of the 1771 den <= 8 sweep triples against the
    reference searches."""
    ps = den8_params()
    assert len(ps) == 1771
    for params in ps:
        e = exponent_differences(params)
        w = reference_check_condition1(e) or reference_check_condition2(e)
        expected = {
            "verdict": (Verdict.NOT_STRONGLY_MINIMAL if w else Verdict.STRONGLY_MINIMAL).value,
            "witness": w.to_record() if w else None,
        }
        assert classify(params).to_record() == expected, e
