"""Triangle Schwarzian equations and their hypergeometric reduction.

Parameters live as the *inverse* angle parameters (values of 1/alpha etc.,
with a signature entry of infinity mapped to 0), either exact rationals or
the all-or-nothing ``GENERIC`` tag for a triple of algebraically independent
transcendentals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .groups import Signature
from .rational import RatFunc, as_fraction, parse_fraction
from .rational import _canonical, _clear_denominators, _int_quo, _ratfunc, _strip


class _Generic:
    """Tag for a triple of algebraically independent transcendental parameters."""

    def __repr__(self) -> str:
        return "GENERIC"

    def __reduce__(self):
        # pickle and copy resolve the name to the one module constant
        return "GENERIC"


GENERIC = _Generic()

AngleValue = Union[Fraction, _Generic]


def _inverse_angles(at0, at1, at_inf) -> tuple:
    """The inverse angle parameters (1/alpha, 1/beta, 1/gamma) whose exponent
    differences at 0, 1 and infinity are ``at0``, ``at1`` and ``at_inf``: the
    one placement, which :func:`exponent_differences` inverts."""
    return (at_inf, at0, at1)


@dataclass(frozen=True)
class AngleParams:
    """Inverse angle parameters (1/alpha, 1/beta, 1/gamma) of a triangle equation."""

    e_alpha: AngleValue
    e_beta: AngleValue
    e_gamma: AngleValue

    def __post_init__(self):
        values = (self.e_alpha, self.e_beta, self.e_gamma)
        tags = [v is GENERIC for v in values]
        if any(tags):
            if not all(tags):
                raise ValueError("generic parameters are all-or-nothing; mixed triples are rejected")
            return
        object.__setattr__(self, "e_alpha", as_fraction(self.e_alpha))
        object.__setattr__(self, "e_beta", as_fraction(self.e_beta))
        object.__setattr__(self, "e_gamma", as_fraction(self.e_gamma))

    @property
    def is_generic(self) -> bool:
        return self.e_alpha is GENERIC

    @staticmethod
    def generic() -> "AngleParams":
        return AngleParams(GENERIC, GENERIC, GENERIC)

    @staticmethod
    def from_signature_entries(k, l, m) -> "AngleParams":
        """Inverse parameters of the uniformizer for a signature (k, l, m).

        Entries are those of a :class:`~schwarztri.groups.Signature`:
        integers >= 2 or ``math.inf``, and infinity maps to 0.
        """
        entries = Signature(k, l, m).entries
        return AngleParams(*(Fraction(0) if e == math.inf else Fraction(1, e) for e in entries))

    @staticmethod
    def from_exponent_differences(at0, at1, at_inf) -> "AngleParams":
        """The parameters whose exponent differences at 0, 1 and infinity are
        the given values: the inverse of :func:`exponent_differences`."""
        return AngleParams(*_inverse_angles(at0, at1, at_inf))

    @staticmethod
    def parse(text: str) -> "AngleParams":
        """Parse ``"1/2,1/3,1/7"`` or the literal ``"generic"``."""
        text = text.strip()
        if text.lower() == "generic":
            return AngleParams.generic()
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected three comma-separated fractions, got {len(parts)}")
        values = []
        for pos, part in enumerate(parts):
            try:
                values.append(parse_fraction(part))
            except ValueError as exc:
                raise ValueError(f"field {pos + 1}: {exc}") from exc
        return AngleParams(*values)

    def as_text(self) -> str:
        if self.is_generic:
            return "generic"
        return f"{self.e_alpha},{self.e_beta},{self.e_gamma}"


@dataclass(frozen=True)
class ExponentTriple:
    """Exponent differences of the linearized equation at 0, 1 and infinity."""

    at0: Fraction
    at1: Fraction
    at_inf: Fraction

    def __post_init__(self):
        object.__setattr__(self, "at0", as_fraction(self.at0))
        object.__setattr__(self, "at1", as_fraction(self.at1))
        object.__setattr__(self, "at_inf", as_fraction(self.at_inf))

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.at0, self.at1, self.at_inf)


@dataclass(frozen=True)
class HGParams:
    """Parameters (a, b, c) of a projectively equivalent hypergeometric equation
    t(1-t)y'' + (c-(a+b+1)t)y' - aby = 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def exponent_differences(self) -> ExponentTriple:
        return ExponentTriple(1 - self.c, self.c - self.a - self.b, self.a - self.b)


def _require_exact(params: AngleParams) -> tuple[Fraction, Fraction, Fraction]:
    if params.is_generic:
        raise ValueError("operation requires exact parameter values, not the generic tag")
    return params.e_alpha, params.e_beta, params.e_gamma


# y^a (y - 1)^b, ascending, for the exponents a, b <= 2 of the poles of r
_POLE_POWERS = {
    (a, b): (0,) * a + ((1,), (-1, 1), (1, -2, 1))[b] for a in range(3) for b in range(3)
}


def build_r(params: AngleParams) -> RatFunc:
    """The triangle-equation rational function

    (1/2) [ (1-b^2)/y^2 + (1-g^2)/(y-1)^2 + (b^2+g^2-a^2-1)/(y(y-1)) ]

    with (a, b, g) the inverse angle parameters; poles only at 0 and 1,
    each of order at most 2.

    Reduced directly, with no gcd: over the common denominator
    2 y^2 (y-1)^2 the numerator c0 (y-1)^2 + c1 y^2 + c_mix y (y-1) takes
    the value c0 = 1 - b^2 at 0 and c1 = 1 - g^2 at 1, so it shares a
    factor y or y - 1 with the denominator only where c0 or c1 is 0, and
    each such factor is divided out exactly.
    """
    ea, eb, eg = _require_exact(params)
    # the coefficients times their common denominator L^2, L the lcm of the
    # parameters' denominators: c0 L^2 = L^2 - (L b)^2 and so on
    lcm, scaled = _clear_denominators((ea, eb, eg))
    sa, sb, sg = (x * x for x in scaled)
    square = lcm * lcm
    c0, c1, c_mix = square - sb, square - sg, sb + sg - sa - square
    n = _strip([c0, -2 * c0 - c_mix, c0 + c1 + c_mix])
    if not n:
        return RatFunc.constant(0)
    at0 = at1 = 2
    while n[0] == 0:
        # y divides the numerator
        n.pop(0)
        at0 -= 1
    while len(n) > 1 and sum(n) == 0:
        # y - 1 divides the numerator
        n = _int_quo(n, (-1, 1))
        at1 -= 1
    return _ratfunc(*_canonical(n, _POLE_POWERS[at0, at1], Fraction(1, 2 * square)))


def exponent_differences(params: AngleParams) -> ExponentTriple:
    """Exponent differences of the linearized equation: the inverse of
    :func:`_inverse_angles`."""
    ea, eb, eg = _require_exact(params)
    return ExponentTriple(at0=eb, at1=eg, at_inf=ea)


def to_hypergeometric(params: AngleParams) -> HGParams:
    """Parameters of a hypergeometric equation projectively equivalent to the
    linearized triangle equation:

        a = (1 + 1/alpha - 1/beta - 1/gamma)/2
        b = (1 - 1/alpha - 1/beta - 1/gamma)/2
        c = 1 - 1/beta
    """
    ea, eb, eg = _require_exact(params)
    hg = HGParams(
        a=Fraction(1, 2) * (1 + ea - eb - eg),
        b=Fraction(1, 2) * (1 - ea - eb - eg),
        c=1 - eb,
    )
    assert hg.exponent_differences() == exponent_differences(params)
    return hg
