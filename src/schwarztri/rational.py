"""Exact rational-function algebra over the rationals.

Reduced rational functions over Q, Mobius maps, and the Schwarzian operator
with its composition (cocycle) and pullback laws.  ``Poly`` is a read-only
view of Fraction coefficients, in and out of a ``RatFunc``.  Every value is
immutable and every operation is pure, so objects can be shared by workers.

Canonical form: a ``RatFunc`` always stores a gcd-reduced pair with a monic
denominator, which makes equality structural.

Arithmetic runs over Z.  A ``RatFunc`` holds c * N/D with N and D primitive
integer polynomials of positive leading coefficient and c one rational
content; its ``num`` and ``den`` are turned into ``Poly`` values (Fractions)
only when read.  Reduction clears denominators once, takes the gcd by the
heuristic gcd (``_int_gcd_poly``: one integer gcd of the values at a large
point, read back as a polynomial and checked by trial division, with the
primitive pseudo-remainder sequence as its fallback) and divides exactly
over Z; products are single big-integer multiplications (Kronecker
substitution).  Where the reduced form is known in advance no gcd is taken
at all: a composition of reduced functions is reduced, a product or
quotient cancels crosswise, and the Schwarzian of N/D with W = N'D - ND' is

    S(N/D) = (2W''WD - 3W'^2 D - 4D''W^2 + 4W'D'W) / (2W^2 D)

whose reduced denominator is sqf(W)^2, so it is reduced by one exact division.
References: von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 6 and
8; Char, Geddes & Gonnet, J. Symbolic Comput. 7 (1989), for the heuristic gcd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

ScalarLike = Union[int, Fraction, str]

_ZERO = Fraction(0)


def as_fraction(value: ScalarLike) -> Fraction:
    """Coerce an exact scalar; floats are rejected to avoid silent rounding."""
    if isinstance(value, bool):
        raise TypeError("booleans are not exact scalars")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}: {value!r}")


# -- integer polynomial kernels (ascending coefficient lists) ------------------


def _int_content(coeffs: Sequence[int]) -> int:
    g = 0
    for c in coeffs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g or 1


def _primitive(a: Sequence[int]) -> list[int]:
    """a over its content, signed so that the leading coefficient is positive."""
    k = _int_content(a)
    return [c // (k if a[-1] > 0 else -k) for c in a]


def _int_eval(a: Sequence[int], x: int) -> int:
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _width(bound: int) -> int:
    """Digit width k for Kronecker substitution: a multiple of 8 with
    bound < 2^(k-1)."""
    return (bound.bit_length() // 8 + 1) * 8


def _ones(k: int, length: int) -> int:
    """sum of 2^(k*i) for i < length."""
    return int.from_bytes((b"\x01" + bytes(k // 8 - 1)) * length, "little")


def _pack(a: Sequence[int], k: int) -> int:
    """a evaluated at 2^k, for k from _width and every |a_i| < 2^(k-1): each
    coefficient is biased by 2^(k-1) into one k-bit digit, and the bias is
    taken off the whole integer at once."""
    half = 1 << (k - 1)
    kb = k // 8
    digits = b"".join([(c + half).to_bytes(kb, "little") for c in a])
    return int.from_bytes(digits, "little") - (_ones(k, len(a)) << (k - 1))


def _unpack(x: int, k: int, length: int) -> list[int]:
    """The polynomial of the given length that _pack sends to x; exact when
    every coefficient is below 2^(k-1) in absolute value."""
    half = 1 << (k - 1)
    kb = k // 8
    digits = (x + (_ones(k, length) << (k - 1))).to_bytes(kb * length, "little")
    return _strip([int.from_bytes(digits[i : i + kb], "little") - half for i in range(0, kb * length, kb)])


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product by Kronecker substitution: one big-integer multiplication."""
    if not a or not b:
        return []
    if len(a) == 1 or len(b) == 1:
        if len(a) != 1:
            a, b = b, a
        s = a[0]
        return [s * c for c in b]
    k = _width(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
    return _unpack(_pack(a, k) * _pack(b, k), k, len(a) + len(b) - 1)


def _int_pow(a: Sequence[int], n: int) -> list[int]:
    result = [1]
    base = list(a)
    while n:
        if n & 1:
            result = _int_mul(result, base)
        n >>= 1
        if n:
            base = _int_mul(base, base)
    return result


def _int_lincomb(terms: Iterable[tuple[int, Sequence[int]]]) -> list[int]:
    """sum of k * p over the (k, p) pairs."""
    out: list[int] = []
    for k, p in terms:
        if not k:
            continue
        if len(out) < len(p):
            out.extend([0] * (len(p) - len(out)))
        for i, c in enumerate(p):
            out[i] += k * c
    return _strip(out)


def _int_deriv(a: Sequence[int]) -> list[int]:
    return [i * a[i] for i in range(1, len(a))]


def _int_exact_div(a: Sequence[int], c: Sequence[int]) -> list[int] | None:
    """Exact quotient of integer polynomials, or None when division fails."""
    if not a:
        return []
    r = list(a)
    lc = c[-1]
    nq = len(a) - len(c) + 1
    if nq <= 0:
        return None
    q = [0] * nq
    for k in range(nq - 1, -1, -1):
        top = r[k + len(c) - 1]
        if top % lc != 0:
            return None
        f = top // lc
        q[k] = f
        if f:
            for i, ci in enumerate(c):
                r[k + i] -= f * ci
    return q if not any(r) else None


def _int_quo(a: Sequence[int], c: Sequence[int]) -> list[int]:
    """Quotient of a division known to be exact."""
    q = _int_exact_div(a, c)
    if q is None:
        raise ArithmeticError("polynomial division expected to be exact has a remainder")
    return q


def _int_gcd_poly(a: list[int], b: list[int]) -> list[int]:
    """The gcd of two nonzero integer polynomials, primitive with a positive
    leading coefficient, by the heuristic gcd (Char, Geddes & Gonnet, J.
    Symbolic Comput. 7, 1989).

    The balanced base-x digits of gcd(a(x), b(x)) are read as a polynomial;
    for x > 2 min(|a|_inf, |b|_inf) + 1, its primitive part is gcd(a, b) as
    soon as it divides both a and b.  Otherwise x grows and the evaluation is
    repeated, and after six tries the PRS answers.  x is never a power of
    two: at x = 2^j, a(x) = a_0 + a_1 x (mod x^2), so low coefficients with a
    high power of 2 (denominators 2^k cleared) look like a factor y^2 at
    every try.
    """
    a = _primitive(a)
    b = _primitive(b)
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(6):
        h = math.gcd(_int_eval(a, x), _int_eval(b, x))
        g = []
        while h:
            c = h % x
            if 2 * c > x:
                c -= x
            g.append(c)
            h = (h - c) // x
        if len(g) == 1:
            return [1]
        g = _primitive(g)
        if _int_exact_div(a, g) is not None and _int_exact_div(b, g) is not None:
            return g
        x = x * 73794 * math.isqrt(math.isqrt(x)) // 27011
    return _primitive(_prs_gcd(a, b))


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd of two nonzero primitive integer polynomials by the primitive
    pseudo-remainder sequence; slow, but needs no luck."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = list(a)
        lb = b[-1]
        for _ in range(len(a) - len(b) + 1):
            if not r:
                break
            lr = r[-1]
            if lr == 0:
                r.pop()
                continue
            r = [c * lb for c in r]
            off = len(r) - len(b)
            for i, c in enumerate(b):
                r[off + i] -= lr * c
            r.pop()
            _strip(r)
        cont = _int_content(r)
        a, b = b, [c // cont for c in r]
        if len(a) < len(b):
            a, b = b, a
    return a


def _cancel(a: Sequence[int], b: Sequence[int]) -> tuple[Sequence[int], Sequence[int]]:
    """a/g and b/g for g = gcd(a, b); a and b primitive with positive leading
    coefficients, and so are the quotients."""
    if len(a) < 2 or len(b) < 2:
        return a, b
    g = _int_gcd_poly(a, b)
    if len(g) < 2:
        return a, b
    return _int_quo(a, g), _int_quo(b, g)


class Poly:
    """Read-only view of a polynomial's Fraction coefficients, ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if len(self.coeffs) > 1:
            return hash(self.coeffs)
        return hash(self.coeffs[0] if self.coeffs else 0)

    def __reduce__(self):
        return _poly_of, (self.coeffs,)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic --------------------------------------------------------

    # unused by the package: kept while bench/tracer.py wraps __mul__, divmod
    # and gcd by name; they go with the benchmark change that drops them

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            k = as_fraction(other)
            return Poly([c * k for c in self.coeffs])
        other = _as_poly(other)
        da, a = _clear_denominators(self.coeffs)
        db, b = _clear_denominators(other.coeffs)
        d = da * db
        return _poly_of([Fraction(c, d) for c in _int_mul(a, b)])

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        r = list(self.coeffs)
        d = other.degree
        lc = other.leading
        while len(r) - 1 >= d and r:
            if r[-1] == 0:
                r.pop()
                continue
            k = len(r) - 1 - d
            f = r[-1] / lc
            q[k] = f
            for i, c in enumerate(other.coeffs):
                r[k + i] -= f * c
            r.pop()
        return Poly(q), Poly(r)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, computed over Z by the heuristic gcd."""
        if self.degree > 0 and other.degree > 0:
            a = _clear_denominators(self.coeffs)[1]
            b = _clear_denominators(other.coeffs)[1]
            g = _int_gcd_poly(a, b)
        elif self.is_zero or other.is_zero:
            g = self.coeffs or other.coeffs
        else:
            return Poly([1])
        return Poly([Fraction(c) / g[-1] for c in g]) if g else Poly()

    def __call__(self, x):
        """Horner evaluation; works for Fraction, int, float and complex."""
        acc = x * 0
        exact = isinstance(x, (int, Fraction)) and not isinstance(x, bool)
        for c in reversed(self.coeffs):
            acc = acc * x + (c if exact else _numeric(c, x))
        return acc

    def __repr__(self) -> str:
        return f"Poly({_poly_str(self)})"


def _poly_of(coeffs: list[Fraction]) -> Poly:
    """A Poly from Fractions whose last entry is nonzero (or from no entries)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "coeffs", tuple(coeffs))
    return p


def _numeric(c: Fraction, like):
    if isinstance(like, complex):
        return complex(c)
    return float(c)


def _as_poly(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly([x])
    raise TypeError(f"cannot interpret {type(x).__name__} as a polynomial")


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    den = 1
    for c in coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    return den, [c.numerator * (den // c.denominator) for c in coeffs]


def _poly_str(p: Poly, var: str = "y") -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            term = f"{mag}{var}" + (f"^{i}" if i > 1 else "")
            if c < 0:
                term = "-" + term
        if parts and not term.startswith("-"):
            parts.append("+ " + term)
        elif parts:
            parts.append("- " + term[1:])
        else:
            parts.append(term)
    return " ".join(parts)


class RatFunc:
    """Reduced rational function num/den over Q with monic denominator."""

    # (_n, _d, _c): the value is _c * _n/_d with _n, _d coprime primitive
    # integer tuples of positive leading coefficient; zero is ((), (1,), 0).
    # _num and _den cache the Poly views.
    __slots__ = ("_n", "_d", "_c", "_num", "_den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        den = Poly([1]) if den is None else _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        qn, n = _clear_denominators(num.coeffs)
        qd, d = _clear_denominators(den.coeffs)
        n, d, c = _canonical(n, d, Fraction(qd, qn))
        n, d = _cancel(n, d)
        _init(self, n, d, c)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(value: ScalarLike) -> "RatFunc":
        return RatFunc(Poly([as_fraction(value)]))

    @staticmethod
    def variable() -> "RatFunc":
        return RatFunc(Poly([0, 1]))

    # -- structure -----------------------------------------------------------

    @property
    def num(self) -> Poly:
        """Reduced numerator, scaled to go with the monic denominator."""
        if self._num is None:
            c = self._c / self._d[-1]
            object.__setattr__(self, "_num", _poly_of([c * x for x in self._n]))
        return self._num

    @property
    def den(self) -> Poly:
        """Reduced monic denominator."""
        if self._den is None:
            lc = self._d[-1]
            object.__setattr__(self, "_den", _poly_of([Fraction(x, lc) for x in self._d]))
        return self._den

    @property
    def is_zero(self) -> bool:
        return not self._n

    @property
    def is_constant(self) -> bool:
        return len(self._n) <= 1 and len(self._d) == 1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = _as_ratfunc(other)
        if isinstance(other, RatFunc):
            return self._c == other._c and self._n == other._n and self._d == other._d
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        return hash(self._c) if self.is_constant else hash((self._c, self._n, self._d))

    def __reduce__(self):
        return _ratfunc, (self._n, self._d, self._c)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "RatFunc":
        # Henrici: with g = gcd(D1, D2), only a factor of g can cancel from
        # N1 (D2/g) + N2 (D1/g) over D1 D2/g
        other = _as_ratfunc(other)
        c1, c2 = self._c, other._c
        d1, d2 = self._d, other._d
        g = [1]
        e1, e2 = d1, d2
        if len(d1) > 1 and len(d2) > 1:
            g = _int_gcd_poly(d1, d2)
            if len(g) > 1:
                e1, e2 = _int_quo(d1, g), _int_quo(d2, g)
        t = _int_lincomb(
            (
                (c1.numerator * c2.denominator, _int_mul(self._n, e2)),
                (c2.numerator * c1.denominator, _int_mul(other._n, e1)),
            )
        )
        den = _int_mul(d1, e2)
        if len(g) > 1 and len(t) > 1:
            h = _int_gcd_poly(t, g)
            if len(h) > 1:
                t, den = _int_quo(t, h), _int_quo(den, h)
        return _ratfunc(*_canonical(t, den, Fraction(1, c1.denominator * c2.denominator)))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return _ratfunc(self._n, self._d, -self._c)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_as_ratfunc(other))

    def __rsub__(self, other) -> "RatFunc":
        return _as_ratfunc(other) + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        n1, d2 = _cancel(self._n, other._d)
        n2, d1 = _cancel(other._n, self._d)
        return _ratfunc(_int_mul(n1, n2), _int_mul(d1, d2), self._c * other._c)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        n1, n2 = _cancel(self._n, other._n)
        d2, d1 = _cancel(other._d, self._d)
        return _ratfunc(_int_mul(n1, d2), _int_mul(d1, n2), self._c / other._c)

    def __rtruediv__(self, other) -> "RatFunc":
        return _as_ratfunc(other) / self

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return _ratfunc(_int_pow(self._d, -n), _int_pow(self._n, -n), 1 / self._c ** (-n))
        return _ratfunc(_int_pow(self._n, n), _int_pow(self._d, n), self._c**n)

    def derivative(self) -> "RatFunc":
        """Exact quotient-rule derivative, reduced."""
        n, d = self._n, self._d
        num = _int_lincomb(((1, _int_mul(_int_deriv(n), d)), (-1, _int_mul(n, _int_deriv(d)))))
        if len(d) == 1:
            return _ratfunc(*_canonical(num, d, self._c))
        # a pole of order k becomes one of order k + 1, so the reduced
        # denominator is d^2 / gcd(d, d') and no further gcd is needed
        e = _int_gcd_poly(d, _int_deriv(d)) if len(d) > 2 else [1]
        if len(e) > 1:
            return _ratfunc(*_canonical(_int_quo(num, e), _int_mul(d, _int_quo(d, e)), self._c))
        return _ratfunc(*_canonical(num, _int_mul(d, d), self._c))

    def compose(self, inner: "RatFunc") -> "RatFunc":
        """Exact composition self(inner).

        Raises ZeroDivisionError when ``inner`` is a constant sitting on a
        pole of ``self``.
        """
        inner = _as_ratfunc(inner)
        c = inner._c
        a = [c.numerator * x for x in inner._n]
        b = [c.denominator * x for x in inner._d]
        # sum_i n_i a^i b^(deg-i) over the same for d, by Horner on the
        # packed integers; the binary forms of a reduced n/d share no root,
        # and neither do a and b, so the quotient is already reduced
        n, d = self._n, self._d
        deg = max(len(n), len(d), 1) - 1
        size = deg * (max(len(a), len(b), 1) - 1) + 1
        grow = max(sum(map(abs, a)), sum(map(abs, b)), 1)
        k = _width(max(max(sum(map(abs, n)), sum(map(abs, d))) * grow**deg, grow))
        pa, pb = _pack(a, k), _pack(b, k)
        bpows = [1]
        for _ in range(deg):
            bpows.append(bpows[-1] * pb)
        hn = hd = 0
        for i in range(deg, -1, -1):
            hn = hn * pa + (n[i] * bpows[deg - i] if i < len(n) else 0)
            hd = hd * pa + (d[i] * bpows[deg - i] if i < len(d) else 0)
        num = _unpack(hn, k, size)
        den = _unpack(hd, k, size)
        if not den:
            raise ZeroDivisionError("composition lands identically on a pole")
        return _ratfunc(*_canonical(num, den, self._c))

    def __call__(self, x):
        """Evaluate at an exact or floating point; exact poles raise."""
        if isinstance(x, Fraction) or isinstance(x, int):
            x = Fraction(x)
            den = self.den(x)
            if den == 0:
                raise ZeroDivisionError(f"pole at {x}")
            return self.num(x) / den
        return self.num(x) / self.den(x)

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        """Locale-independent exact form ``"n0,n1,... / d0,d1,..."``."""
        num = ",".join(str(c) for c in self.num.coeffs) or "0"
        den = ",".join(str(c) for c in self.den.coeffs)
        return f"{num} / {den}"

    @staticmethod
    def from_text(text: str) -> "RatFunc":
        # coefficients may themselves contain '/', so split on ' / ' only
        sep = text.find(" / ")
        if sep < 0:
            raise ValueError(f"missing ' / ' separator in {text!r}")
        num_part = text[:sep].strip()
        den_part = text[sep + 3 :].strip()
        num = Poly([Fraction(s) for s in num_part.split(",")]) if num_part else Poly()
        den = Poly([Fraction(s) for s in den_part.split(",")])
        return RatFunc(num, den)

    def __repr__(self) -> str:
        if self.den == Poly([1]):
            return f"RatFunc({_poly_str(self.num)})"
        return f"RatFunc(({_poly_str(self.num)}) / ({_poly_str(self.den)}))"


def _canonical(n: Sequence[int], d: Sequence[int], c: Fraction):
    """c * n/d rewritten with n and d primitive of positive leading
    coefficient; no common factor is removed."""
    if not n or not c:
        return (), (1,), _ZERO
    k = _int_content(n)
    if n[-1] < 0:
        k = -k
    m = _int_content(d)
    if d[-1] < 0:
        m = -m
    if k != 1:
        n = [x // k for x in n]
    if m != 1:
        d = [x // m for x in d]
        c = c * Fraction(k, m)
    elif k != 1:
        c = c * k
    return n, d, c


def _init(f: RatFunc, n: Sequence[int], d: Sequence[int], c: Fraction) -> None:
    if not n or not c:
        n, d, c = (), (1,), _ZERO
    object.__setattr__(f, "_n", tuple(n))
    object.__setattr__(f, "_d", tuple(d))
    object.__setattr__(f, "_c", c)
    object.__setattr__(f, "_num", None)
    object.__setattr__(f, "_den", None)


def _ratfunc(n: Sequence[int], d: Sequence[int], c: Fraction) -> RatFunc:
    """A RatFunc from a triple already in canonical form."""
    f = object.__new__(RatFunc)
    _init(f, n, d, c)
    return f


def _as_ratfunc(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return _ratfunc((1,), (1,), Fraction(x))
    if isinstance(x, Poly):
        return RatFunc(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational function")


@dataclass(frozen=True)
class MobiusMap:
    """Fractional-linear map (a*t + b)/(c*t + d) with ad - bc != 0."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    def __post_init__(self):
        for f in ("a", "b", "c", "d"):
            object.__setattr__(self, f, as_fraction(getattr(self, f)))
        if self.a * self.d - self.b * self.c == 0:
            raise ValueError("singular Mobius map (ad - bc = 0)")

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1, 0, 0, 1)

    def as_ratfunc(self) -> RatFunc:
        return RatFunc(Poly([self.b, self.a]), Poly([self.d, self.c]))

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.d, -self.b, -self.c, self.a)


# -- module-level operation surface ----------------------------------------


def derivative(f: RatFunc) -> RatFunc:
    return f.derivative()


def compose(f: RatFunc, g: RatFunc) -> RatFunc:
    return f.compose(g)


def schwarzian(f: RatFunc) -> RatFunc:
    """Schwarzian derivative f'''/f' - (3/2)(f''/f')^2.

    Vanishes exactly on Mobius maps; constant input raises.
    """
    n, d = f._n, f._d
    w = _int_lincomb(((1, _int_mul(_int_deriv(n), d)), (-1, _int_mul(n, _int_deriv(d)))))
    if not w:
        raise ValueError("Schwarzian of a constant function")
    w1 = _int_deriv(w)
    w2 = _int_deriv(w1)
    d1 = _int_deriv(d)
    d2 = _int_deriv(d1)
    # (2W''WD - 3W'^2 D - 4D''W^2 + 4W'D'W) / (2W^2 D)
    num = _int_lincomb(
        (
            (1, _int_mul(d, _int_lincomb(((2, _int_mul(w2, w)), (-3, _int_mul(w1, w1)))))),
            (4, _int_mul(w, _int_lincomb(((1, _int_mul(w1, d1)), (-1, _int_mul(d2, w)))))),
        )
    )
    # S has a double pole at every root of W and no other pole (f is
    # reduced), so its reduced denominator is s^2 with s = W/gcd(W, W') and
    # the numerator divides exactly by gcd(W, W')^2 D
    h = _int_gcd_poly(w, w1) if len(w1) > 1 else [1]
    if len(h) > 1:
        s = _int_quo(w, h)
        cut = _int_mul(_int_mul(h, h), d)
    else:
        s, cut = w, d
    return _ratfunc(*_canonical(_int_quo(num, cut), _int_mul(s, s), Fraction(1, 2)))


def schwarz_pullback(r: RatFunc, phi: RatFunc) -> RatFunc:
    """Pullback r∘phi * (phi')^2 + S(phi) of a Schwarzian equation along phi.

    Solutions map through phi: if J solves the pulled-back equation then
    phi∘J solves the original one.
    """
    dphi = phi.derivative()
    if dphi.is_zero:
        raise ValueError("pullback along a constant map")
    return r.compose(phi) * dphi**2 + schwarzian(phi)


def mobius_apply(m: MobiusMap, f: RatFunc) -> RatFunc:
    """(a*f + b)/(c*f + d); raises ZeroDivisionError when f is a constant on
    the pole of m."""
    return m.as_ratfunc().compose(f)
