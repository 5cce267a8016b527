"""Triangle-group signature classification.

Geometry by the sign of an integer, the angle-sum excess 1/k + 1/l + 1/m - 1
times the product of the finite entries; arithmeticity by lookup in the
embedded table of the 85 arithmetic signatures (76 cocompact, 9 with a cusp),
maximality by the three excluded signature patterns, and the resulting
special-polynomial trichotomy:

    arithmetic              -> infinitely many special polynomials
    maximal, non-arithmetic -> none
    neither                 -> finitely constrained (finite commensurator index)

These are stated for hyperbolic signatures; any other signature's report holds
its geometry, None in the five group fields, and a note in its record.

Infinity is a legal signature entry (``math.inf``) with the arithmetic rules
2*inf = 3*inf = inf for pattern matching.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import permutations
from typing import Optional, Union

INF = math.inf

Entry = Union[int, float]


def _check_entry(entry: Entry) -> Entry:
    if entry == INF:
        return INF
    if isinstance(entry, int) and not isinstance(entry, bool) and entry >= 2:
        return entry
    raise ValueError(f"signature entry must be an integer >= 2 or inf, got {entry!r}")


@dataclass(frozen=True)
class Signature:
    """Signature (k, l, m) of a triangle group; entries >= 2 or infinity.

    The original entry order is retained for display; all classification is
    performed on the ascending key (infinity greatest).
    """

    k: Entry
    l: Entry
    m: Entry

    def __post_init__(self):
        object.__setattr__(self, "k", _check_entry(self.k))
        object.__setattr__(self, "l", _check_entry(self.l))
        object.__setattr__(self, "m", _check_entry(self.m))

    @property
    def entries(self) -> tuple[Entry, Entry, Entry]:
        return (self.k, self.l, self.m)

    @property
    def key(self) -> tuple[Entry, Entry, Entry]:
        return tuple(sorted(self.entries))

    @staticmethod
    def parse(text: str) -> "Signature":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated entries, got {len(parts)}")
        entries = []
        for pos, part in enumerate(parts):
            if part.lower() == "inf":
                entries.append(INF)
                continue
            try:
                entries.append(int(part))
            except ValueError as exc:
                raise ValueError(f"field {pos + 1} ({part[:40]!r}): not an integer or 'inf'") from exc
        return Signature(*entries)

    def as_text(self) -> str:
        return ",".join("inf" if e == INF else str(e) for e in self.entries)

    def _angle_sum_terms(self) -> tuple[int, int]:
        # 1/k + 1/l + 1/m as an integer over the product of the finite
        # entries; an infinite entry adds 0
        finite = [e for e in self.entries if e != INF]
        product = math.prod(finite)
        return sum(product // e for e in finite), product

    def angle_sum(self) -> Fraction:
        return Fraction(*self._angle_sum_terms())


class Geometry(enum.Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


class SpecialPolynomials(enum.Enum):
    NONE = "none"
    FINITELY_CONSTRAINED = "finitely_constrained"
    INFINITELY_MANY = "infinitely_many"


# The 85 arithmetic signatures, ascending entries, infinity last.  Derived by
# checking, for every hyperbolic signature, that all nontrivial real
# embeddings of the invariant trace field make the Gram quantity
# 4cos^2(pi/k) + 4cos^2(pi/l) + 4cos^2(pi/m) + 8cos(pi/k)cos(pi/l)cos(pi/m) - 4
# negative; validated against the published counts (76 cocompact + 9 cusped).
ARITHMETIC_SIGNATURES: frozenset[tuple[Entry, Entry, Entry]] = frozenset(
    {
        (2, 3, 7), (2, 3, 8), (2, 3, 9), (2, 3, 10), (2, 3, 11), (2, 3, 12),
        (2, 3, 14), (2, 3, 16), (2, 3, 18), (2, 3, 24), (2, 3, 30),
        (2, 4, 5), (2, 4, 6), (2, 4, 7), (2, 4, 8), (2, 4, 10), (2, 4, 12),
        (2, 4, 18),
        (2, 5, 5), (2, 5, 6), (2, 5, 8), (2, 5, 10), (2, 5, 20), (2, 5, 30),
        (2, 6, 6), (2, 6, 8), (2, 6, 12),
        (2, 7, 7), (2, 7, 14),
        (2, 8, 8), (2, 8, 16),
        (2, 9, 18),
        (2, 10, 10), (2, 12, 12), (2, 12, 24), (2, 15, 30), (2, 18, 18),
        (3, 3, 4), (3, 3, 5), (3, 3, 6), (3, 3, 7), (3, 3, 8), (3, 3, 9),
        (3, 3, 12), (3, 3, 15),
        (3, 4, 4), (3, 4, 6), (3, 4, 12),
        (3, 5, 5),
        (3, 6, 6), (3, 6, 18),
        (3, 8, 8), (3, 8, 24),
        (3, 10, 30), (3, 12, 12),
        (4, 4, 4), (4, 4, 5), (4, 4, 6), (4, 4, 9),
        (4, 5, 5), (4, 6, 6), (4, 8, 8), (4, 16, 16),
        (5, 5, 5), (5, 5, 10), (5, 5, 15), (5, 10, 10),
        (6, 6, 6), (6, 12, 12), (6, 24, 24),
        (7, 7, 7), (8, 8, 8), (9, 9, 9), (9, 18, 18),
        (12, 12, 12), (15, 15, 15),
        (2, 3, INF), (2, 4, INF), (2, 6, INF), (3, 3, INF), (4, 4, INF),
        (6, 6, INF),
        (2, INF, INF), (3, INF, INF),
        (INF, INF, INF),
    }
)


@dataclass(frozen=True)
class GroupReport:
    """Combined classification of one signature.  Off the hyperbolic case
    only ``geometry`` is defined, and the other five fields are None."""

    geometry: Geometry
    arithmetic: Optional[bool] = None
    maximal: Optional[bool] = None
    in_m: Optional[bool] = None
    in_w: Optional[bool] = None
    special_polynomials: Optional[SpecialPolynomials] = None

    def to_record(self) -> dict:
        """The fields by name, an enum by its value; off the hyperbolic case
        a note follows."""
        values = {field.name: getattr(self, field.name) for field in fields(self)}
        record = {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}
        if self.geometry is not Geometry.HYPERBOLIC:
            record["note"] = "non-hyperbolic signature: group-theoretic fields not applicable"
        return record


def geometry(sig: Signature) -> Geometry:
    """Hyperbolic, Euclidean or spherical by the sign of 1/k + 1/l + 1/m - 1
    (infinity contributing 0), taken in integers: for three finite entries
    the sign of lm + km + kl - klm."""
    total, product = sig._angle_sum_terms()
    if total < product:
        return Geometry.HYPERBOLIC
    if total == product:
        return Geometry.EUCLIDEAN
    return Geometry.SPHERICAL


def is_arithmetic(sig: Signature) -> bool:
    """Membership in the embedded table of arithmetic signatures, as the
    signature's report reads it."""
    arith = group_report(sig).arithmetic
    if arith is None:
        raise ValueError(f"arithmeticity is defined for hyperbolic signatures only, got {sig.as_text()}")
    return arith


def _times(factor: int, entry: Entry) -> Entry:
    return INF if entry == INF else factor * entry


def is_maximal(sig: Signature) -> bool:
    """False exactly on the patterns (2, l, 2l), (3, l, 3l), (k, l, l) in any
    entry order, with 2*inf = 3*inf = inf."""
    for a, b, c in permutations(sig.entries):
        if b == c:
            return False
        if a == 2 and c == _times(2, b):
            return False
        if a == 3 and c == _times(3, b):
            return False
    return True


def group_report(sig: Signature) -> GroupReport:
    """The full report for a hyperbolic signature; for any other, its
    geometry alone, with None in the five group fields."""
    geo = geometry(sig)
    if geo is not Geometry.HYPERBOLIC:
        return GroupReport(geo)
    arith = sig.key in ARITHMETIC_SIGNATURES
    maximal = is_maximal(sig)
    in_m = not maximal
    if arith:
        special = SpecialPolynomials.INFINITELY_MANY
    elif maximal:
        special = SpecialPolynomials.NONE
    else:
        special = SpecialPolynomials.FINITELY_CONSTRAINED
    return GroupReport(geometry=geo, arithmetic=arith, maximal=maximal, in_m=in_m, in_w=in_m or arith,
                       special_polynomials=special)
