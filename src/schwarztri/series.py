"""Truncated power-series machinery for the linearized triangle equation.

Series solutions of psi'' + (1/2) R psi = 0 at an ordinary point, the local
inverse-uniformizer (Schwarz map) t as a series, formal inversion and
composition, and residual checks for the principal equation S_y(t) = R(y),
the Riccati equation, and the pullback construction, which along y is the
third-order equation satisfied by the inverse.

Coefficient arithmetic is generic: an exact rational base point with an exact
rational equation produces Fraction coefficients, a floating base produces
complex ones.  Series arithmetic rests on one truncated product (``_mul``)
and one division (``_divide``, the recurrence of out * b = a).  Reversion and
composition instead work on one matrix of the powers W^0..W^n of a series W
(``_powers``), each row one numpy convolution of the row before: reversion
is a triangular solve against it and composition one vector-matrix product
(the powers first, as in Brent & Kung, J. ACM 25, 1978, rather than the
term-by-term sums of Knuth, TAOCP vol. 2, section 4.7).  The Schwarzian is
q' - q^2/2 with q = t''/t' (Ovsienko & Tabachnikov, Notices AMS 56, 2009).
Residual reports evaluate in complex arithmetic, at all sample points at
once: ``rational._poly_at``, the one Horner, over a ``_table`` of the
coefficients.

The linear solver clears the denominator of R = N/D and runs the recurrence
of 2 D psi'' + N psi = 0 (``_solve_recurrence``; the standard method for
D-finite series, van der Hoeven, TCS 210, 1999).  Only this module lays out
the recurrence's row of terms, for ``monodromy`` too, whose step plans cache
its ``_den_terms`` and which takes its shifts (``_shifted``) and tables
(``_table``) from here.  The recurrence runs in a kept ``_workspace``;
``_solve_recurrence`` states how long its result is valid, and that it is
not thread-safe.

numpy loads on first use, not at import.  This module binds ``np`` through
``_numpy``, ``monodromy`` takes it from here, and nothing evaluated at import
touches it, so ``import schwarztri`` and the exact layers (``rational``,
``triangle``, ``minimality``, ``groups``) never execute numpy.  Numerical
poles come from one ``np.roots`` a reduced denominator, cached by it
(``_den_roots``).

Note on the Schwarz map convention: with the fundamental pair normalized to
(psi1, psi1') = (1, 0) and (psi2, psi2') = (0, 1) at the base point, the
classical quotient psi1/psi2 has a pole there, so the map is built as
t = psi2/psi1 instead.  The two differ by a Mobius map, which changes nothing
downstream (solutions of the principal equation form a single PSL2 orbit).
"""

from __future__ import annotations

import cmath
import functools
import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

from .rational import RatFunc, _complex_parts, _deriv, _is_exact, _poly_at, schwarz_pullback


def _numpy():
    """numpy itself when it is already imported, else numpy's module with a
    ``LazyLoader``, which executes it on the first attribute access and then
    is numpy itself (the standard library's lazy-import recipe)."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()

BasePoint = Union[Fraction, int, float, complex]

# numpy error state of the series kernels and residuals: values past the
# float range run on as inf and nan, as Python's complex arithmetic lets them,
# and the residual reports turn them into errors
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")


def _coerce_base(base: BasePoint):
    if isinstance(base, bool):
        raise TypeError("booleans are not base points")  # as rational.as_fraction rejects them
    if _is_exact(base):
        return Fraction(base)
    return complex(base)


def _mul(a: Sequence, b: Sequence) -> list:
    """The truncated product of two coefficient sequences, min(len(a), len(b)) terms."""
    n = min(len(a), len(b))
    out = [a[0] * 0 for _ in range(n)]
    for i in range(n):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(n - i):
            out[i + j] += ai * b[j]
    return out


def _divide(a: Sequence, b: Sequence) -> list:
    """The len(a) terms of the quotient out = a / b, by the recurrence of
    out * b = a: out_k = (a_k - sum_{j>=1} b_j out_{k-j}) / b_0.  Missing
    terms of a short ``b`` (a polynomial) are zero."""
    b0 = b[0]
    if b0 == 0:
        raise ZeroDivisionError("series has a zero constant term")
    out = []
    for k in range(len(a)):
        acc = a[k]
        for j in range(1, min(k, len(b) - 1) + 1):
            acc -= b[j] * out[k - j]
        out.append(acc / b0)
    return out


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series sum c_k (x - base_point)^k with len(coefficients) terms."""

    base_point: object
    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))
        if not self.coefficients:
            raise ValueError("a power series needs at least its constant term")

    @property
    def truncation_order(self) -> int:
        return len(self.coefficients) - 1

    def _check_base(self, other: "PowerSeries"):
        if self.base_point != other.base_point:
            raise ValueError("series arithmetic requires a common base point")

    def truncate(self, order: int) -> "PowerSeries":
        if order < 0:
            raise ValueError("order must be non-negative")
        return PowerSeries(self.base_point, self.coefficients[: order + 1])

    def __add__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            self._check_base(other)
            pairs = zip(self.coefficients, other.coefficients)
            return PowerSeries(self.base_point, [a + b for a, b in pairs])
        cs = list(self.coefficients)
        cs[0] = cs[0] + other
        return PowerSeries(self.base_point, cs)

    __radd__ = __add__

    def __neg__(self) -> "PowerSeries":
        return PowerSeries(self.base_point, [-c for c in self.coefficients])

    def __sub__(self, other) -> "PowerSeries":
        return self + (-other if isinstance(other, PowerSeries) else -1 * other)

    def __rsub__(self, other) -> "PowerSeries":
        return (-self) + other

    def __mul__(self, other) -> "PowerSeries":
        if not isinstance(other, PowerSeries):
            return PowerSeries(self.base_point, [c * other for c in self.coefficients])
        self._check_base(other)
        return PowerSeries(self.base_point, _mul(self.coefficients, other.coefficients))

    __rmul__ = __mul__

    def reciprocal(self) -> "PowerSeries":
        return (self * 0 + 1) / self

    def __truediv__(self, other) -> "PowerSeries":
        if isinstance(other, PowerSeries):
            self._check_base(other)
            n = min(len(self.coefficients), len(other.coefficients))
            return PowerSeries(self.base_point, _divide(self.coefficients[:n], other.coefficients))
        return PowerSeries(self.base_point, [c / other for c in self.coefficients])

    def derivative(self) -> "PowerSeries":
        return PowerSeries(self.base_point, _deriv(self.coefficients) or [self.coefficients[0] * 0])

    def __call__(self, x):
        """Horner evaluation at a point (exact for exact input, else complex)."""
        return _poly_at(self.coefficients, x - self.base_point)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self.coefficients[:4])
        tail = ", ..." if len(self.coefficients) > 4 else ""
        return f"PowerSeries(base={self.base_point}, [{head}{tail}], order={self.truncation_order})"


# -- Taylor data of rational functions --------------------------------------


def _shift_coeffs(coeffs: list, base) -> list:
    """Coefficients of p(base + x) by repeated Horner shift (in the base's domain)."""
    a = list(coeffs)
    n = len(a)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            a[j] = a[j] + base * a[j + 1]
    return a


def _shifted(f: RatFunc, base) -> tuple[list, list]:
    """Coefficients of N(base + x) and D(base + x) for f = N/D, Fractions for
    an exact base, else complex.  A numpy array of bases gives array
    coefficients, one entry a base.  Raises ZeroDivisionError when a base is
    a pole, for a floating base when the denominator rounds to 0 there."""
    exact = _is_exact(base)
    num, den = (f.num.coeffs, f.den.coeffs) if exact else _complex_parts(f)
    ns, ds = _shift_coeffs(num, base), _shift_coeffs(den, base)
    if np.any(ds[0] == 0):
        where = "" if exact else " in floating point: the denominator evaluates to 0 there"
        raise ZeroDivisionError(f"base point {base} is a pole{where}")
    return ns, ds


def taylor_coefficients(f: RatFunc, base: BasePoint, order: int) -> list:
    """Taylor coefficients of ``f`` at ``base`` through the given order.

    Exact Fraction coefficients when ``base`` is exact, complex otherwise:
    the one division ``_divide`` of the shifted numerator by the shifted
    denominator.  Raises ZeroDivisionError when ``base`` is a pole.
    """
    base = _coerce_base(base)
    ns, ds = _shifted(f, base)
    ns = (ns + [ds[0] * 0] * (order + 1))[: order + 1]
    return _divide(ns, ds)


# reduced denominators whose roots are kept: the verify queries of a run
# meet a few dozen, r for principal and riccati and r∘phi for pullback
_ROOTS_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_ROOTS_CACHE_SIZE)
def _den_roots(den: tuple[int, ...]) -> tuple[complex, ...]:
    """The numerical roots of the reduced denominator ``den`` (``RatFunc._d``,
    integers), from its coefficients converted to complex as
    ``_complex_parts`` converts them, cached by ``den``."""
    return tuple(complex(r) for r in np.roots([complex(x / den[-1]) for x in reversed(den)]))


def poles(f: RatFunc) -> list[complex]:
    """Numerical poles (roots of the reduced denominator)."""
    return list(_den_roots(f._d))


def default_disk_radius(f: RatFunc, base: BasePoint) -> float:
    """A quarter of the distance from the base point to the nearest pole
    (0.25 without poles)."""
    b = complex(_coerce_base(base))
    return min((abs(b - p) for p in poles(f)), default=1.0) / 4.0


# -- series solutions of the linearized equation ----------------------------


def _den_terms(ds: list) -> tuple[np.ndarray, object]:
    """The denominator's half of ``_solve_recurrence``'s row of terms from
    the shifted ``ds`` of ``_shifted``: -(d_i/d_0), i >= 1, in the even
    columns of an array (S, 2 deg D), S the shape of the entries, and 2 d_0."""
    exact = isinstance(ds[0], Fraction)
    shape = np.broadcast_shapes(*(np.shape(d) for d in ds)) + (2 * (len(ds) - 1),)
    terms = np.full(shape, ds[0] * 0 if exact else 0j, dtype=object if exact else complex)
    for i, d in enumerate(ds[1:]):
        terms[..., 2 * i] = -(d / ds[0])
    return terms, 2 * ds[0]


# recurrence workspaces kept, one a shape: an oracle call meets a chunk of
# ``monodromy._CHUNK`` equations, a remainder chunk and single equations,
# over two loops' steps, and single bases meet one a numerator width
_WORKSPACE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_WORKSPACE_CACHE_SIZE)
def _workspace(size: int, width: int, order: int, dtype) -> tuple[np.ndarray, tuple]:
    """``_solve_recurrence``'s buffer for ``size`` rows, its zero rows and
    unit initial entries set; the read-only view of its coefficients; and
    for each j in 2..order the operands of e_j's matmul and c_j's division.
    A complex divisor is a 0-d array, which divides as the int j (j - 1)
    does, without converting it each call."""
    zero = Fraction(0) if dtype == object else 0j
    # rows outermost in memory, so that a row and the rows below it are
    # disjoint blocks, which numpy sees without copying
    rows = np.full((width + 2 * (order + 1), size, 2), zero, dtype=dtype)
    rows[width + 1, :, 0] = rows[width + 3, :, 1] = zero + 1
    history = rows.transpose(1, 0, 2)
    schedule = []
    for j in range(2, order + 1):
        e = width + 2 * j
        divisor = j * (j - 1)
        if dtype != object:
            divisor = np.array(divisor, dtype=dtype)
        schedule.append(
            (history[:, e - 2 : e - 2 - width : -1], history[:, e : e + 1], rows[e], divisor, rows[e + 1])
        )
    coefficients = history[:, width + 1 :: 2]
    coefficients.flags.writeable = False
    return coefficients, tuple(schedule)


def _solve_recurrence(den_terms: np.ndarray, twice_d0, ns: list, order: int) -> np.ndarray:
    """Coefficients c_0..c_order of the fundamental pair of 2 D(b + x) psi''
    + N(b + x) psi = 0, (c_0, c_1) = (1, 0) and (0, 1), from ``_den_terms``
    of the shifted denominator and the shifted numerator ``ns`` (Fractions,
    complex numbers or arrays of them), in the shape S + (order + 1, 2) with
    S that of the entries, the pair on the last axis.

    With D(b + x) = sum d_i x^i, N(b + x) = sum n_i x^i and e_j = j (j - 1) c_j
    the coefficients of psi'', the x^k coefficient of the equation gives

        2 d_0 e_{k+2} = -(2 sum_{i>=1} d_i e_{k+2-i} + sum_i n_i c_{k-i}),

    deg D + deg N + 1 terms a coefficient, so O(order * deg) operations,
    where a convolution with the Taylor series of R takes O(order^2).  The
    row of terms over 2 d_0 is -(d_1/d_0, n_0/2d_0, d_2/d_0, n_1/2d_0, ...),
    padded with zeros to width 2w: this adds the odd columns to the even
    ones, one row for each entry.

    e_m = m (m - 1) c_m and c_m sit interleaved in one buffer, e_m in row
    2w + 2m and c_m in the next, below 2w rows of zeros.  The terms of e_j,
    e_{j-1}, c_{j-2}, e_{j-2}, c_{j-3}, ..., are then the 2w rows below e_j
    read backwards, and e_j is the product of that slice with the row of
    terms: one matmul, and c_j one division, for all rows and the pair at
    once.

    The buffer, its views and the divisors are a ``_workspace``, compiled
    once a shape and kept, so a solve runs two numpy calls a coefficient
    and nothing else.  The result is a read-only view into that buffer, not
    a copy: the next solve of the same size, width, order and dtype
    overwrites it, so a caller uses it before solving again, as both
    callers, ``series_solve_linear`` and ``monodromy._taylor_step``, do.  Two
    threads must not solve the same shape at once; the package starts no
    threads."""
    zero = Fraction(0) if den_terms.dtype == object else 0j
    shape = np.broadcast_shapes(den_terms.shape[:-1], *(np.shape(n) for n in ns))
    # at least 1: an empty product of object arrays is the int 0, not a Fraction
    width = 2 * max(den_terms.shape[-1] // 2, len(ns), 1)
    k = np.full(shape + (1, width), zero, dtype=den_terms.dtype)
    k[..., 0, : den_terms.shape[-1]] = den_terms
    for i, n in enumerate(ns):
        k[..., 0, 2 * i + 1] = -(n / twice_d0)
    size = math.prod(shape)
    k = k.reshape(size, 1, width)
    coefficients, schedule = _workspace(size, width, order, k.dtype)
    matmul, divide = np.matmul, np.divide
    with np.errstate(**_QUIET):
        for terms, e_out, e_row, divisor, c_row in schedule:
            matmul(k, terms, out=e_out)
            divide(e_row, divisor, out=c_row)
    return coefficients.reshape(shape + (order + 1, 2))


def series_solve_linear(
    r: RatFunc, base: BasePoint, order: int
) -> tuple[PowerSeries, PowerSeries]:
    """The fundamental series pair of psi'' + (1/2) r psi = 0 at an ordinary
    point, with initial data (1, 0) and (0, 1), from the recurrence of the
    cleared equation (``_solve_recurrence``), with no Taylor expansion of r.
    Exact bases give Fraction coefficients, equal to those of the Taylor
    expansion; floating ones give complex coefficients, with r's
    coefficients converted once a call.  The pair has unit Wronskian through
    the truncation order (no first-order term in the equation)."""
    if order < 2:
        raise ValueError("order must be at least 2")
    base = _coerce_base(base)
    ns, ds = _shifted(r, base)
    pair = _solve_recurrence(*_den_terms(ds), ns, order)
    return PowerSeries(base, pair[:, 0].tolist()), PowerSeries(base, pair[:, 1].tolist())


def schwarz_map(r: RatFunc, base: BasePoint, order: int) -> PowerSeries:
    """Series of a Schwarzian primitive of ``r`` at the base point, normalized
    to t(base) = 0, t'(base) = 1 (quotient psi2/psi1 of the fundamental pair)."""
    psi1, psi2 = series_solve_linear(r, base, order)
    t = psi2 / psi1
    assert t.coefficients[1] == 1
    return t


def series_schwarzian(t: PowerSeries) -> PowerSeries:
    """Schwarzian of a series as q' - q^2/2 with q = t''/t': one division,
    where t'''/t' - (3/2) q^2 takes two.  The truncation order drops by 3."""
    if t.truncation_order < 4:
        raise ValueError("order too small for a meaningful Schwarzian")
    d1 = t.derivative()
    if d1.coefficients[0] == 0:
        raise ZeroDivisionError("series has vanishing first derivative at its base point")
    q = d1.derivative() / d1
    return q.derivative() - q * q / 2


def _coefficient_array(cs: Sequence) -> np.ndarray:
    """``cs`` as a float or complex array when every entry is floating, else
    as an object array (Fractions and ints keep exact arithmetic)."""
    a = np.asarray(cs)
    return a if a.dtype.kind in "fc" else np.asarray(cs, dtype=object)


def _powers(w: np.ndarray, k: int) -> np.ndarray:
    """The rows W^0, ..., W^k of the series W with coefficients ``w``, each
    truncated to len(w) terms, in w's dtype: row i is one convolution of row
    i - 1 with w.  The caller holds the numpy error state."""
    zero = w[0] * 0
    rows = np.full((k + 1, len(w)), zero, dtype=w.dtype)
    rows[0, 0] = zero + 1
    for i in range(1, k + 1):
        rows[i] = np.convolve(rows[i - 1], w)[: len(w)]
    return rows


def series_invert(t: PowerSeries) -> PowerSeries:
    """Formal compositional inverse J with J(t(base)) = base and J∘t = id
    through the truncation order.  With W = t - t(base) and P the matrix of
    the powers W^0..W^n (``_powers``), the coefficients d_k of J - base solve
    the triangular system sum_k d_k W^k = x - base: W^k starts at x^k, so
    d_1 = 1 / P[1, 1] and d_m = -(sum_{k<m} d_k P[k, m]) / P[m, m], one dot
    product a coefficient."""
    c = t.coefficients
    if len(c) < 2 or c[1] == 0:
        raise ZeroDivisionError("series has vanishing first derivative; not invertible")
    n = len(c) - 1
    w = _coefficient_array(c)
    w[0] = w[1] * 0  # W = t - t(base), whatever t(base) is
    with np.errstate(**_QUIET):
        p = _powers(w, n)
        d = np.full(n + 1, w[0], dtype=w.dtype)
        d[1] = 1 / w[1]
        for m in range(2, n + 1):
            d[m] = -(d[1:m] @ p[1:m, m]) / p[m, m]
    return PowerSeries(c[0], [t.base_point] + d[1:].tolist())


def series_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """outer∘inner; the inner constant term must sit at the outer base point.
    With W = inner - base, the product of the outer coefficients c_k with the
    matrix of the powers W^k (``_powers``).  The outer trailing exact zeros
    are dropped first and only the rows up to the last c_k built, so a
    polynomial costs its degree."""
    shift = inner.coefficients[0] - outer.base_point
    exact = _is_exact(inner.base_point) and _is_exact(outer.base_point)
    if shift != 0 if exact else abs(complex(shift)) > 1e-9 * (1.0 + abs(complex(outer.base_point))):
        raise ValueError("inner series does not map its base to the outer base point")
    n = min(outer.truncation_order, inner.truncation_order)
    cs = list(outer.coefficients[: n + 1])
    while len(cs) > 1 and cs[-1] == 0:
        cs.pop()
    w = _coefficient_array([shift] + list(inner.coefficients[1 : n + 1]))
    with np.errstate(**_QUIET):
        total = _coefficient_array(cs) @ _powers(w, len(cs) - 1)
    return PowerSeries(inner.base_point, total.tolist())


# -- residual reports --------------------------------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """Max modulus of an equation residual over deterministic sample points."""

    sample_points: tuple[complex, ...]
    max_abs_residual: float
    truncation_order: int

    def to_record(self) -> dict:
        return {
            "sample_points": [[p.real, p.imag] for p in self.sample_points],
            "max_abs_residual": self.max_abs_residual,
            "truncation_order": self.truncation_order,
        }


# residual checks sample the equation at this many evenly spaced ring points
_SAMPLE_POINTS = 16


def _ring_report(
    center: complex, radius: float, order: int, residual: Callable[[np.ndarray], np.ndarray]
) -> ResidualReport:
    """The report of ``residual``, a function of a complex array of points
    run under ``_QUIET``, at ``_SAMPLE_POINTS`` evenly spaced points of the
    circle about ``center``.  A residual that is not finite comes from
    values past the floating-point range, and is an error rather than a
    measurement."""
    pts = tuple(
        center + radius * cmath.exp(2j * cmath.pi * k / _SAMPLE_POINTS)
        for k in range(_SAMPLE_POINTS)
    )
    with np.errstate(**_QUIET):
        values = np.abs(residual(np.array(pts)))
    if not np.isfinite(values).all():
        raise OverflowError(
            f"residual is not finite at order {order}: "
            "the series coefficients overflow floating point"
        )
    return ResidualReport(pts, float(values.max()), order)


def _check_exact_base(f: RatFunc, base: BasePoint, of: str = "") -> None:
    """Raise TypeError for a bool, and ZeroDivisionError when ``base`` is exact
    and a pole of ``f``.  The residual checks run on the base rounded to complex,
    where an exact pole reads as a floating-point accident, so they call this first."""
    if isinstance(_coerce_base(base), Fraction) and f.den(base) == 0:
        raise ZeroDivisionError(f"base point {base} is a pole{of}")


def _table(rows: Sequence[Sequence]) -> np.ndarray:
    """The coefficient lists ``rows``, lowest first, as the complex array
    (terms, rows, 1) with term k of row i at [k, i, 0], zero-padded to the
    longest row and at least one term long."""
    table = np.zeros((max(1, max(map(len, rows))), len(rows), 1), dtype=complex)
    for i, cs in enumerate(rows):
        table[: len(cs), i, 0] = cs
    return table


# values at an array of points: Horner's rule (``_poly_at``) over a
# ``_table``, one pass over the coefficients of all rows.  Not a table of the
# powers x^k: coefficients that grow like 2^(60k) against x^k that underflows
# to 0 give 0 * inf = nan there, where the nested form stays finite
def _values(f: RatFunc, x: np.ndarray) -> np.ndarray:
    """f at every entry of the complex array x, from f's coefficients
    converted to complex once."""
    num, den = _poly_at(_table(_complex_parts(f)), x)
    return num / den


def _series_values(series: Sequence[PowerSeries], x: np.ndarray) -> np.ndarray:
    """Row i: series[i] at every entry of the complex array x (the series
    share a base point)."""
    return _poly_at(_table([s.coefficients for s in series]), x - series[0].base_point)


def residual_principal(r: RatFunc, base: BasePoint, order: int) -> ResidualReport:
    """Residual |S(t) - r| of the principal equation for the series Schwarz
    map.  Raises ValueError below order 4, too short a series for S(t)."""
    if order < 4:
        raise ValueError("order must be at least 4 to form the principal residual")
    _check_exact_base(r, base)
    b = complex(base)
    s = series_schwarzian(schwarz_map(r, b, order))
    return _ring_report(
        b, default_disk_radius(r, b), order, lambda x: _series_values([s], x)[0] - _values(r, x)
    )


def residual_riccati(r: RatFunc, base: BasePoint, order: int) -> ResidualReport:
    """Residual |u' + u^2 + r/2| for the logarithmic derivative u = psi1'/psi1."""
    if order < 5:
        raise ValueError("order must be at least 5 to form the Riccati residual")
    _check_exact_base(r, base)
    b = complex(base)
    psi1, _ = series_solve_linear(r, b, order)
    u = psi1.derivative() / psi1.truncate(order - 1)

    def residual(x: np.ndarray) -> np.ndarray:
        uv, duv = _series_values([u, u.derivative()], x)
        return duv + uv * uv + 0.5 * _values(r, x)

    return _ring_report(b, default_disk_radius(r, b), order, residual)


def _third_order_residuals(j: PowerSeries, r: RatFunc, x: np.ndarray) -> np.ndarray:
    """S(J) + (J')^2 r(J) at every entry of the complex array x: J and its
    first three derivatives in one Horner pass (``_series_values``), r at J's
    values from complex coefficients."""
    d1 = j.derivative()
    d2 = d1.derivative()
    v0, v1, v2, v3 = _series_values([j, d1, d2, d2.derivative()], x)
    ratio = v2 / v1
    return v3 / v1 - 1.5 * ratio * ratio + v1 * v1 * _values(r, v0)


def residual_inverse(r: RatFunc, base: BasePoint, order: int) -> ResidualReport:
    """Residual of the third-order equation S(J) + (J')^2 r(J) = 0 for the
    inverted Schwarz map J near t = 0: the pullback check along phi = y,
    where the pulled-back equation is r itself and J1 = J2 = J.  Raises
    ValueError below order 4, where the third derivative of J is constant."""
    return verify_pullback(r, RatFunc.variable(), base, order)


def verify_pullback(r: RatFunc, phi: RatFunc, base: BasePoint, order: int) -> ResidualReport:
    """Solve the pulled-back equation, push the solution through phi, and
    report the residual of the original equation.

    Builds J2 from the pullback of ``r`` along ``phi``, forms J1 = phi∘J2 by
    series composition, and measures S(J1) + (J1')^2 r(J1) near t = 0.
    Raises ValueError below order 4, where the third derivative of J1 is
    constant, and when phi' vanishes at the base point as given (exactly for
    an exact base).  Raises ZeroDivisionError when an exact base is a pole of
    phi or phi maps it onto a pole of ``r``, and when phi's value at the
    base, rounded to floating point, lands on a pole of ``r``: the
    denominator of ``r`` evaluates to 0 there.
    """
    if order < 4:
        raise ValueError("order must be at least 4 to form the third-order residual")
    dphi = phi.derivative()
    if dphi.is_zero:
        raise ValueError("pullback along a constant map")
    # before phi' is evaluated there, which fails on a pole with a bare "pole at"
    _check_exact_base(phi, base, " of phi")
    if dphi(base) == 0:
        raise ValueError("phi is ramified at the base point; J1 is not invertible there")
    if _is_exact(base) and r.den(phi(base)) == 0:
        raise ZeroDivisionError(f"phi maps the base point {base} to {phi(base)}, a pole of r")
    b = complex(base)
    r_phi = schwarz_pullback(r, phi)
    j2 = series_invert(schwarz_map(r_phi, b, order))
    j1 = series_compose(PowerSeries(b, taylor_coefficients(phi, b, order)), j2)
    value = j1.coefficients[0]
    if r.den(value) == 0:
        pole = min(poles(r), key=lambda p: abs(p - value))
        raise ZeroDivisionError(
            f"phi's value at the base, {value:.6g}, falls on the pole {pole:.6g} of r "
            "in floating point"
        )
    return _ring_report(
        0j, default_disk_radius(r_phi, b) / 4.0, order, lambda x: _third_order_residuals(j1, r, x)
    )
