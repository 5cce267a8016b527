"""Exact strong-minimality decision for triangle Schwarzian equations.

The decision runs through the classical quadrature classification of the
hypergeometric equation (Kimura): the equation fails to be strongly minimal
exactly when its linearization is Liouville integrable, i.e. when one of the
two conditions below holds for the exponent differences.  The chain behind
the verdict names:

    condition 1 or 2 holds
        <=> the reduced hypergeometric equation is solvable by quadratures
        <=> the associated Riccati equation has a solution algebraic over C(y)
        <=> the differential Galois group is a proper subgroup of PSL2(C)
        <=> the Schwarzian equation is not strongly minimal.

Condition 1 asks for one of the four signed sums of the exponent differences
to be an odd integer; condition 2 sweeps a fixed 15-row table of fractional
parts modulo integer shifts, some rows carrying an "even shift sum" clause.
Both are decided in integer arithmetic, with no ``Fraction`` operations:
condition 1 on the numerators over the lcm of the three denominators
(``rational._clear_denominators``), condition 2 on each value's numerator
and denominator.  Each condition has one test, which both its search and
its witness's ``verify`` call; condition 2 searches only the rows whose
residues mod 1 the values contain, looked up from the values' integer
residues.

Witnesses are reproducible: the sweep order is rows, then sign choices, then
column permutations, and every returned witness re-verifies by substitution.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .rational import _clear_denominators
from .triangle import AngleParams, ExponentTriple, _inverse_angles, exponent_differences

_SIGN_CHOICES = tuple(itertools.product((1, -1), repeat=3))
_PERMUTATIONS = tuple(itertools.permutations((0, 1, 2)))

# Rows of the integrability table: three column residues (None = arbitrary
# entry) plus whether the "shift sum even" clause applies.  Rows 2 and 3 are
# the tetrahedral pair (1/2,1/3,1/3) and (2/3,1/3,1/3 | even).
_F = Fraction
_TABLE: tuple[tuple[tuple[Optional[Fraction], ...], bool], ...] = (
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

# rows with an "arbitrary" column must not carry the parity clause
assert all(not parity or None not in fracs for fracs, parity in _TABLE)


def _residue(x: Fraction) -> tuple[int, int]:
    # x mod 1 up to sign, as (min(p mod q, q - p mod q), q) for x = p/q
    p, q = x.numerator, x.denominator
    return (min(p % q, q - p % q), q)


# A residue that no table entry has; it can fill only an arbitrary column.
_OTHER = (0, 0)
_TABLE_RESIDUES = frozenset(_residue(f) for fracs, _ in _TABLE for f in fracs if f is not None)


def _rows_by_residues() -> dict[tuple, list[int]]:
    # the rows worth searching, keyed by the sorted residues of the three
    # values (_OTHER for one outside the table): the rows whose fixed
    # columns' residues the values have, in ascending order
    rows: dict[tuple, list[int]] = {}
    keys = sorted(_TABLE_RESIDUES | {_OTHER})
    for row, (fracs, _) in enumerate(_TABLE, start=1):
        needs = [_residue(f) for f in fracs if f is not None]
        for fill in itertools.combinations_with_replacement(keys, 3 - len(needs)):
            rows.setdefault(tuple(sorted(needs + list(fill))), []).append(row)
    return rows


_ROWS_BY_RESIDUES = _rows_by_residues()


@dataclass(frozen=True)
class Condition1Witness:
    """A signed sum of the inverse angle parameters that is an odd integer.

    ``signs``, each +1 or -1, applies to (1/alpha, 1/beta, 1/gamma) in that order.
    """

    signs: tuple[int, int, int]
    value: int

    def verify(self, e: ExponentTriple) -> bool:
        if self.signs not in _SIGN_CHOICES:
            return False
        lcm, nums = _clear_denominators(_inverse_angles(e.at0, e.at1, e.at_inf))
        value = _odd_sum(nums, lcm, self.signs)
        return value is not None and value == self.value

    def to_record(self) -> dict:
        return {"kind": "condition1", "signs": list(self.signs), "value": self.value}


@dataclass(frozen=True)
class Condition2Witness:
    """A table-row match: row index (1 to 15), one sign (+1 or -1) per parameter slot,
    the permutation sending table column j to parameter slot permutation[j],
    the integer shifts per column (None for an arbitrary column), and whether
    the row's parity clause was in force."""

    row: int
    signs: tuple[int, int, int]
    permutation: tuple[int, int, int]
    shifts: tuple[Optional[int], Optional[int], Optional[int]]
    parity_used: bool

    def verify(self, e: ExponentTriple) -> bool:
        if not (1 <= self.row <= len(_TABLE) and self.signs in _SIGN_CHOICES):
            return False
        fracs, parity = _TABLE[self.row - 1]
        if parity != self.parity_used or self.permutation not in _PERMUTATIONS:
            return False
        v = _inverse_angles(e.at0, e.at1, e.at_inf)
        return _shifts(fracs, parity, v, self.signs, self.permutation) == self.shifts

    def to_record(self) -> dict:
        return {
            "kind": "condition2",
            "row": self.row,
            "signs": list(self.signs),
            "permutation": list(self.permutation),
            "l": self.shifts[0],
            "m": self.shifts[1],
            "n": self.shifts[2],
            "parity_used": self.parity_used,
        }


KimuraWitness = Union[Condition1Witness, Condition2Witness]


class Verdict(enum.Enum):
    STRONGLY_MINIMAL = "strongly_minimal"
    NOT_STRONGLY_MINIMAL = "not_strongly_minimal"
    GENERIC_STRONGLY_MINIMAL = "generic_strongly_minimal"


@dataclass(frozen=True)
class MinimalityVerdict:
    verdict: Verdict
    witness: Optional[KimuraWitness] = None

    def __post_init__(self):
        if self.verdict is Verdict.NOT_STRONGLY_MINIMAL and self.witness is None:
            raise ValueError("a non-minimality verdict must carry a witness")
        if self.verdict is not Verdict.NOT_STRONGLY_MINIMAL and self.witness is not None:
            raise ValueError("only non-minimality verdicts carry witnesses")

    @property
    def strongly_minimal(self) -> bool:
        return self.verdict is not Verdict.NOT_STRONGLY_MINIMAL

    def to_record(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "witness": self.witness.to_record() if self.witness else None,
        }


def _odd_sum(nums: list[int], lcm: int, signs: tuple[int, int, int]) -> Optional[int]:
    # the signed sum of the values nums/lcm when it is an odd integer, else None
    total, rem = divmod(sum(s * n for s, n in zip(signs, nums)), lcm)
    return total if not rem and total % 2 else None


def check_condition1(e: ExponentTriple) -> Optional[Condition1Witness]:
    """First witness among the four signed sums (+++), (-++), (+-+), (++-)
    whose value is an odd integer; None when there is none."""
    lcm, nums = _clear_denominators(_inverse_angles(e.at0, e.at1, e.at_inf))
    for signs in ((1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)):
        value = _odd_sum(nums, lcm, signs)
        if value is not None:
            return Condition1Witness(signs=signs, value=value)
    return None


def _shifts(fracs: tuple, parity: bool, v: tuple, signs: tuple, perm: tuple) -> Optional[tuple]:
    """The column test of condition 2, shared by the search and the verifier:
    column j matches x = signs[perm[j]] * v[perm[j]] when x - fracs[j] is an
    integer, its shift.  Returns the shifts (None for an arbitrary column),
    or None when a column fails or the parity clause finds an odd sum."""
    shifts: list[Optional[int]] = []
    for frac, slot in zip(fracs, perm):
        if frac is None:
            shifts.append(None)
            continue
        # x - frac is an integer iff the reduced denominators agree and q | difference
        x, q = v[slot], frac.denominator
        if x.denominator != q:
            return None
        shift, rem = divmod(signs[slot] * x.numerator - frac.numerator, q)
        if rem:
            return None
        shifts.append(shift)
    if parity and sum(shifts) % 2:
        return None
    return tuple(shifts)


def check_condition2(e: ExponentTriple) -> Optional[Condition2Witness]:
    """Deterministic sweep of the 15 table rows, 8 sign choices and 6 column
    permutations; returns the first match or None.

    A row is searched only when the residues of the values (x mod 1 up to
    sign, as a multiset) contain the residues of its fixed columns.  Every
    table entry lies in (0, 1), so a row failing that test has no match under
    any signs and permutation, and skipping it leaves the first match as the
    full sweep finds it.
    """
    v = _inverse_angles(e.at0, e.at1, e.at_inf)
    residues = sorted(r if r in _TABLE_RESIDUES else _OTHER for r in map(_residue, v))
    for row in _ROWS_BY_RESIDUES.get(tuple(residues), ()):
        fracs, parity = _TABLE[row - 1]
        for signs in _SIGN_CHOICES:
            for perm in _PERMUTATIONS:
                shifts = _shifts(fracs, parity, v, signs, perm)
                if shifts is not None:
                    return Condition2Witness(
                        row=row, signs=signs, permutation=perm, shifts=shifts, parity_used=parity
                    )
    return None


def classify(params: AngleParams) -> MinimalityVerdict:
    """Decide strong minimality of the triangle Schwarzian equation.

    Generic parameters are strongly minimal; exact rational parameters are
    classified by the two quadrature conditions, a match yielding a
    re-verifiable witness.
    """
    if params.is_generic:
        return MinimalityVerdict(Verdict.GENERIC_STRONGLY_MINIMAL)
    e = exponent_differences(params)
    witness = check_condition1(e) or check_condition2(e)
    if witness is not None:
        return MinimalityVerdict(Verdict.NOT_STRONGLY_MINIMAL, witness)
    return MinimalityVerdict(Verdict.STRONGLY_MINIMAL)
