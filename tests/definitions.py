"""The rules that exact outputs follow, each stated by its definition.

Ints, Fractions and canonical ``RatFunc`` triples have one canonical form,
so a check of an exact output against the rule's definition, taken by
schoolbook integer arithmetic, is as strict as a comparison with any earlier
implementation of the rule.  Floating-point kernels keep one bit-for-bit
reference each in their test modules, since no definition pins rounding;
``horner`` is the one such reference for evaluation at a point.

The linear equation's series by its definition, the convolution with the
Taylor series of r (``convolution_solve_linear``), is here too: the series
tests and the continuation's accuracy tests check against it, not the
recurrence the package runs.

It also builds the seeded corpora that several test modules share: the
den <= 8 sweep (``den8_params``) and acceptance criterion 9's shifted
exponents (``shifted_params``)."""

import math
import random
from fractions import Fraction

from schwarztri.cli import _sweep_params
from schwarztri.rational import _int_gcd_poly
from schwarztri.series import PowerSeries, taylor_coefficients
from schwarztri.triangle import AngleParams


def mul(a, b) -> list:
    """The schoolbook product of two coefficient lists."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def lincomb(k, a, m, b) -> list:
    """k a + m b for integer lists a and b, without trailing zeros."""
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += k * x
    for i, x in enumerate(b):
        out[i] += m * x
    while out and out[-1] == 0:
        out.pop()
    return out


def deriv(a) -> list:
    """The derivative of the polynomial with ascending coefficients a."""
    return [i * c for i, c in enumerate(a)][1:]


def horner(cs, x):
    """The polynomial with ascending coefficients cs at x, by Horner's rule
    in the order acc = c + acc * x; bit for bit the package's evaluation at
    floating points, of the same type at every scalar."""
    acc = x * 0
    for c in reversed(cs):
        acc = c + acc * x
    return acc


def bits(values) -> list[tuple[str, str]]:
    """Each number as the hex forms of its real and imaginary parts: equal
    lists are equal bits, and -0.0 differs from 0.0."""
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def assert_primitive(p) -> None:
    """p is a nonzero integer list of content 1 and positive leading
    coefficient."""
    assert p and all(type(x) is int for x in p) and p[-1] > 0 and math.gcd(*p) == 1, p


def assert_same_value(c, n, d, c2, n2, d2) -> None:
    """c n/d = c2 n2/d2, by cross-multiplying the integer lists."""
    c, c2 = Fraction(c), Fraction(c2)
    k, m = c.numerator * c2.denominator, -c2.numerator * c.denominator
    assert not lincomb(k, mul(n, d2), m, mul(n2, d)), (c, n, d, c2, n2, d2)


def assert_value(f, c, num, den) -> None:
    """f is a canonical RatFunc equal to c num/den, for integer lists num and
    den.  Canonical: int entries and a Fraction content; n and d primitive
    of positive leading coefficient and coprime; zero as ((), (1,), 0)."""
    n, d, fc = f._n, f._d, f._c
    assert type(fc) is Fraction, f
    if not n or not fc:
        assert (n, d, fc) == ((), (1,), 0), f
    else:
        assert_primitive(n)
        assert_primitive(d)
        assert len(d) == 1 or _int_gcd_poly(n, d)[0] == [1], f
    assert_same_value(fc, n, d, c, num, den)


def convolution_solve_linear(r, base, order):
    """The fundamental pair of psi'' + (1/2) r psi = 0 at ``base``, (1, 0)
    and (0, 1), by its definition: the Taylor coefficients q of r/2, then
    c_{k+2} = -sum_j q_j c_{k-j} / ((k+1)(k+2)), O(order^2)."""
    q = [c / 2 for c in taylor_coefficients(r, base, order)]
    one = Fraction(1) if isinstance(base, Fraction) else complex(1)
    c1, c2 = [one * 0] * (order + 1), [one * 0] * (order + 1)
    c1[0] = c2[1] = one
    for k in range(order - 1):
        s1 = sum((q[j] * c1[k - j] for j in range(k + 1)), one * 0)
        s2 = sum((q[j] * c2[k - j] for j in range(k + 1)), one * 0)
        c1[k + 2], c2[k + 2] = -s1 / ((k + 1) * (k + 2)), -s2 / ((k + 1) * (k + 2))
    return PowerSeries(base, c1), PowerSeries(base, c2)


def den8_params() -> list[AngleParams]:
    """The corpus of ``sweep --max-den 8``, from the sweep's own generator:
    every unordered reduced triple of exponent differences in (0, 1) with
    denominators <= 8, in the sweep's order (1771 triples)."""
    return list(_sweep_params(8))


def shifted_params() -> list[AngleParams]:
    """Acceptance criterion 9's 400 triples: seed 9, exponent differences
    p/q at 0, 1 and infinity, drawn in that order, with q in 2..5,
    |p/q| <= 6 and gcd(p, q) = 1."""
    rng = random.Random(9)

    def exponent():
        q = rng.randint(2, 5)
        while True:
            p = rng.randint(-6 * q, 6 * q)
            if math.gcd(p, q) == 1:
                return Fraction(p, q)

    return [AngleParams.from_exponent_differences(exponent(), exponent(), exponent()) for _ in range(400)]
