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

from .rational import Poly, RatFunc, as_fraction


class _Generic:
    """Tag for a triple of algebraically independent transcendental parameters."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "GENERIC"


GENERIC = _Generic()

AngleValue = Union[Fraction, _Generic]


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

        Entries are integers >= 2 or ``math.inf``; infinity maps to 0.
        """

        def inv(entry) -> Fraction:
            if entry == math.inf:
                return Fraction(0)
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < 2:
                raise ValueError(f"signature entry must be an integer >= 2 or inf, got {entry!r}")
            return Fraction(1, entry)

        return AngleParams(inv(k), inv(l), inv(m))

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
                values.append(Fraction(part.strip()))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"field {pos + 1} ({part.strip()!r}): not an exact fraction") from exc
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


def build_r(params: AngleParams) -> RatFunc:
    """The triangle-equation rational function

    (1/2) [ (1-b^2)/y^2 + (1-g^2)/(y-1)^2 + (b^2+g^2-a^2-1)/(y(y-1)) ]

    with (a, b, g) the inverse angle parameters; poles only at 0 and 1,
    each of order at most 2.
    """
    ea, eb, eg = _require_exact(params)
    c0, c1 = 1 - eb * eb, 1 - eg * eg
    c_mix = eb * eb + eg * eg - ea * ea - 1
    # over the common denominator 2 y^2 (y-1)^2 the numerator is
    # c0 (y-1)^2 + c1 y^2 + c_mix y (y-1)
    return RatFunc(Poly([c0, -2 * c0 - c_mix, c0 + c1 + c_mix]), Poly([0, 0, 2, -4, 2]))


def exponent_differences(params: AngleParams) -> ExponentTriple:
    """Exponent differences of the linearized equation: the inverse beta, gamma
    and alpha parameters sit at 0, 1 and infinity respectively."""
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
