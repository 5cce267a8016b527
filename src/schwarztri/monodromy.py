"""Numerical monodromy oracle for the linearized triangle equation.

Analytic continuation of the fundamental pair of psi'' + (1/2) R psi = 0
around loops encircling the singularities 0 and 1, and classification of the
projective group generated by the two loop matrices:

    finite / dihedral / triangularizable  <->  ``integrable``: Liouville-integrable side
    Zariski dense                         <->  not ``integrable``: non-integrable side

which cross-checks the exact classifier (the Zariski closure of the monodromy
group of a Fuchsian equation is its differential Galois group).

Continuation is by adaptive Taylor stepping in two phases.  The step plan
comes first: the step length is a fixed fraction of the distance to the
nearest pole, which keeps the local series well inside its convergence disk,
so it depends only on the path and the poles, never on the solution, and
every step center and step is known before any series is solved.  A plan is
compiled once a denominator and path, on first use, and cached: with the
steps it holds all else that they and the denominator fix, the shifted
denominator's terms of the recurrence at every step center, the matrix of
the powers of every step and the identities that pad the steps to a power
of two.  Then one batched solve: the numerators shifted to the step
centers, the recurrence that ``series_solve_linear`` runs, row of terms
and all (O(order * deg) operations a step, two numpy calls a coefficient,
its result read by the next matmul as ``series._solve_recurrence``
requires), on arrays over all step centers, one matmul with the plan's
powers, which gives each value and derivative at the end of its step, and
log2(steps) batched matmuls that multiply the step matrices in pairs.

The batch also runs across equations.  Equations whose r has the same
reduced denominator have the same poles, so they share one step plan a loop:
every triangle equation with exponent differences in (0, 1) has the
denominator 2 y^2 (y - 1)^2.  ``continue_solution`` takes any sequence of
equations, groups them by that denominator and solves each group in chunks
of equations, one array axis over the equations; only the numerators are
shifted per equation.  Each equation's matrices are bit for bit those it
gets alone.  Results are deterministic for fixed inputs.

The classification uses the SL2 trace coordinates of the loop matrices a0,
a1 scaled to unit determinant (Goldman, arXiv:0901.1404): x = tr a0,
y = tr a1, z = tr a0 a1 and kappa = x^2 + y^2 + z^2 - xyz - 2 = tr [a0, a1].
In this order: kappa = 2 is reducible (finite cyclic if a0 and a1 commute
and have finite orders, else triangularizable); two of x, y, z zero is
imprimitive (finite of order 2q if the third trace is 2cos(pi p/q), else
dihedral); x, y, z, xy - z and kappa all in T5 = {2cos(pi k/n) : n <= 5} is
finite primitive, of order 60, 24 or 12 (Beukers & Heckman, Invent. Math.
95, 1989); anything else is dense.  "=" and "in" hold within a tolerance
that is a fixed multiple of the estimated error of the loop matrices, and
group orders above 120 count as infinite.  The 2x2 matrices of the error
estimate and of the classification are Python complex numbers, out of numpy
by one ``tolist`` a matrix: numpy calls cost more than the arithmetic on
matrices this small.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .rational import RatFunc, _complex_parts, _ratfunc
from .series import _QUIET, _den_roots, _den_terms, _shift_coeffs, _shifted, _solve_recurrence, _table, np
from .triangle import AngleParams, build_r, exponent_differences

# continuation: the Taylor order through which the equation coefficient
# enters the series pair at each step center (the pair itself has order
# _TAYLOR_ORDER + 2), the step as a fraction of the distance to the nearest
# pole, the smallest remainder a step may leave of its segment, and the
# pole distance below which the path counts as hitting a pole
_TAYLOR_ORDER = 36
_STEP_FACTOR = 0.35
_MIN_STEP = 1e-12
_POLE_CLEARANCE = 1e-6
# the factors m of the derivatives m h^(m-1) of the powers of a step: a
# range, which numpy takes as an array, so that importing this module
# leaves numpy unloaded
_DEGREES = range(1, _TAYLOR_ORDER + 3)
# equations a batched ``_taylor_step`` call solves at once: the recurrence
# buffer holds about 170 complex entries an equation and step, and
# ``series`` keeps it for the next solve of its shape, so this bounds the
# memory of the kept buffers too
_CHUNK = 12
# step plans kept: one a loop and denominator, and a sweep has two loops
# and a few denominators
_PLAN_CACHE_SIZE = 32

# polyline nodes on a loop circle, before the closing node, and the base
# point where every loop starts and ends, so that the loop matrices of a
# monodromy representation share one basis
_LOOP_STEPS = 16
_BASE_POINT = 0.5 + 0j


@dataclass(frozen=True)
class LoopSpec:
    """A positively oriented circular loop based at 1/2.

    The polyline runs from the base point to the circle along a straight
    segment, once around, and back.
    """

    center: complex
    radius: float = 0.25

    def __post_init__(self):
        if not cmath.isfinite(complex(self.center)):
            raise ValueError(f"loop center must be finite, not {self.center}")
        if not 0 < self.radius < 0.5:
            raise ValueError("loop radius must lie in (0, 1/2) to avoid the other singularity")
        if abs(_BASE_POINT - complex(self.center)) <= self.radius:
            raise ValueError("the base point 1/2 must lie outside the loop circle")

    def polyline(self) -> tuple[complex, ...]:
        center = complex(self.center)
        u = (_BASE_POINT - center) / abs(_BASE_POINT - center)
        theta0 = cmath.phase(u)
        circle = [
            center + self.radius * cmath.exp(1j * (theta0 + 2 * math.pi * k / _LOOP_STEPS))
            for k in range(_LOOP_STEPS + 1)
        ]
        return (_BASE_POINT, *circle, _BASE_POINT)


# the loops of every monodromy representation, around 0 and 1
_LOOPS = (LoopSpec(center=0j).polyline(), LoopSpec(center=1 + 0j).polyline())


@dataclass(frozen=True, eq=False)
class _StepPlan:
    """The steps along a path for one denominator: the step centers ``zs``
    and steps ``hs``; ``series._den_terms`` of the shifted denominator at
    each center, in ``den_terms`` and ``twice_d0``; the powers h^m and
    derivatives m h^(m-1) of each step, highest power first, in ``powers``
    (steps, 2, order + 1); and the identities that pad a chunk's steps to a
    power of two, in ``padding`` (_CHUNK, pad, 2, 2).  The arrays are
    read-only, as every caller of a cached plan shares them."""

    zs: np.ndarray
    hs: np.ndarray
    den_terms: np.ndarray
    twice_d0: np.ndarray
    powers: np.ndarray
    padding: np.ndarray

    @staticmethod
    def compile(f: RatFunc, zs: Sequence[complex], hs: Sequence[complex]) -> "_StepPlan":
        """The plan of the steps from ``zs`` to ``zs + hs`` for ``f``'s denominator."""
        zs, hs = np.array(zs, dtype=complex), np.array(hs, dtype=complex)
        den_terms, twice_d0 = _den_terms(_shifted(f, zs)[1])
        # h^0, h^1, ... by a running product, and m h^(m-1) from them
        powers = np.empty(hs.shape + (2, _TAYLOR_ORDER + 3), dtype=complex)
        powers[..., 0, 0] = 1
        powers[..., 0, 1:] = hs[..., None]
        np.cumprod(powers[..., 0, :], axis=-1, out=powers[..., 0, :])
        powers[..., 1, 0] = 0
        np.multiply(powers[..., 0, :-1], _DEGREES, out=powers[..., 1, 1:])
        pad = (1 << (len(zs) - 1).bit_length()) - len(zs)
        plan = _StepPlan(
            zs,
            hs,
            den_terms,
            # an array even where D is constant and so not shifted
            np.array(twice_d0),
            # summed from the highest power down, the smallest terms first,
            # which rounds less than summing up
            powers[..., ::-1],
            np.broadcast_to(np.eye(2, dtype=complex), (_CHUNK, pad, 2, 2)),
        )
        for a in (plan.zs, plan.hs, plan.den_terms, plan.twice_d0, plan.powers):
            a.flags.writeable = False
        return plan


def _taylor_step(rs: Sequence[RatFunc], plan: _StepPlan) -> np.ndarray:
    """Transfer matrices of the fundamental pair across the steps of
    ``plan``, from ``plan.zs`` to ``plan.zs + plan.hs``: the values and
    derivatives at z + h of the series pair with initial data (1, 0) and
    (0, 1) at z.  ``rs`` are T RatFuncs with the denominator the plan was
    compiled for; the result is a (T, steps, 2, 2) stack, each equation's
    matrices bit for bit those it gets alone."""
    # the numerators' coefficients in one table, each term a column over the
    # equations; at least one term, which carries the equations' axis when
    # every r is 0
    ns = _shift_coeffs(list(_table([_complex_parts(f)[0] for f in rs])), plan.zs)
    coefficients = _solve_recurrence(plan.den_terms, plan.twice_d0, ns, _TAYLOR_ORDER + 2)
    return np.matmul(plan.powers, coefficients[..., ::-1, :])


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _step_plan(den: tuple[int, ...], path: tuple[complex, ...]) -> _StepPlan:
    """The compiled steps along a polyline, in order, for the reduced
    denominator ``den`` (``RatFunc._d``, integers), cached by ``den`` and
    the path's nodes; a failed plan is not cached.  Each step is
    ``_STEP_FACTOR`` times the distance to the nearest pole, at most 1/2
    and at most what is left of the segment; a step that would leave less
    than ``_MIN_STEP`` runs to the segment's end node instead, so a segment
    shorter than that is one step.  Raises RuntimeError when the path comes
    within ``_POLE_CLEARANCE`` of a pole, and ValueError on a node that is
    not finite."""
    pole_list = _den_roots(den)
    zs: list[complex] = []
    hs: list[complex] = []
    for a, b in zip(path, path[1:]):
        seg = b - a
        length = abs(seg)
        if not math.isfinite(length):
            raise ValueError(f"path node is not finite: {a} -> {b}")
        if length == 0:
            continue
        direction = seg / length
        s = 0.0
        while True:
            z = a + direction * s
            dist = min((abs(p - z) for p in pole_list), default=math.inf)
            if dist < _POLE_CLEARANCE:
                raise RuntimeError(f"path passes within {_POLE_CLEARANCE} of a pole near {z}")
            h = min(length - s, dist * _STEP_FACTOR, 0.5)
            zs.append(z)
            # s + h can round short of the length, leaving a remainder that
            # no step could take
            if length - s - h < _MIN_STEP:
                hs.append(b - z)
                break
            hs.append(direction * h)
            s += h
    return _StepPlan.compile(_ratfunc((1,), den, Fraction(1)), zs, hs)


def continue_solution(r: RatFunc | Sequence[RatFunc], path: Sequence[complex]) -> np.ndarray:
    """Transport the fundamental pair along a polyline; returns the matrix
    expressing the continued pair in the starting basis.  ``r`` is one
    RatFunc, or a sequence of T RatFuncs, any denominators mixed, for which
    the result is a (T, 2, 2) stack, one matrix an equation in input order.
    Raises ValueError on a node that is not finite, and RuntimeError when
    the path comes within ``_POLE_CLEARANCE`` of a pole."""
    rs = [r] if isinstance(r, RatFunc) else list(r)
    path = tuple(map(complex, path))
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, f in enumerate(rs):
        groups.setdefault(f._d, []).append(i)
    stack = np.empty((len(rs), 2, 2), dtype=complex)
    for den, group in groups.items():
        plan = _step_plan(den, path)
        for start in range(0, len(group), _CHUNK):
            chunk = group[start : start + _CHUNK]
            steps = _taylor_step([rs[i] for i in chunk], plan)
            steps = np.concatenate([steps, plan.padding[: len(chunk)]], axis=1)
            with np.errstate(**_QUIET):
                while steps.shape[1] > 1:
                    steps = steps[:, 1::2] @ steps[:, ::2]
            stack[chunk] = steps[:, 0]
    return stack[0] if isinstance(r, RatFunc) else stack


def _det(m) -> complex:
    """The determinant ad - bc of a 2x2 matrix, nested sequences of rows."""
    (a, b), (c, d) = m
    return a * d - b * c


def _trace(m) -> complex:
    return m[0][0] + m[1][1]


def _product(m, n) -> tuple:
    """The product of two 2x2 matrices of Python complex numbers."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


@dataclass(frozen=True, eq=False)
class MonodromyRep:
    """Loop matrices around 0 and 1 in the fundamental-solution basis at the
    base point.  ``estimated_error`` is the largest of the determinant defects
    |det M - 1| and the trace-law defects |tr M + 2cos(pi e)| at 0, 1 and
    infinity, and infinite when any defect is not finite."""

    m0: np.ndarray
    m1: np.ndarray
    estimated_error: float


def monodromy(params: AngleParams | Sequence[AngleParams]) -> MonodromyRep | list[MonodromyRep]:
    """Monodromy matrices of the linearized triangle equation around 0 and 1.

    ``params`` is one AngleParams, which gives one MonodromyRep, or a
    sequence of them, which gives a list in input order; all equations are
    continued around the default ``LoopSpec`` of 0 and that of 1, each in
    one ``continue_solution`` call, which takes any other loop too.  The loop
    around infinity is implicitly (M1 M0)^-1 and is not stored.  Local
    exponents (1 +- e)/2 give a loop the trace -2cos(pi e).  Raises
    ValueError on the generic tag."""
    ps = [params] if isinstance(params, AngleParams) else list(params)
    rs = [build_r(p) for p in ps]
    m0s, m1s = (continue_solution(rs, loop) for loop in _LOOPS)
    reps = []
    # the defects in Python complex arithmetic, which costs less than numpy
    # calls on 2x2 matrices
    for p, m0, m1, a0, a1 in zip(ps, m0s, m1s, m0s.tolist(), m1s.tolist()):
        e = exponent_differences(p)
        defects = [abs(_det(a0) - 1.0), abs(_det(a1) - 1.0)]
        for m, x in zip((a0, a1, _product(a0, a1)), e.as_tuple()):
            defects.append(abs(_trace(m) + 2 * math.cos(math.pi * x)))
        # max drops a nan that is not first
        error = max(defects) if all(map(math.isfinite, defects)) else math.inf
        reps.append(MonodromyRep(m0, m1, error))
    return reps[0] if isinstance(params, AngleParams) else reps


# -- projective classification ------------------------------------------------

# tolerance = _TOL_FACTOR * estimated error, at least _TOL_FLOOR: x, y, z are
# off by at most the estimated error, so with |x|, |y|, |z| <= 2 kappa is off
# by at most 24 times it
_TOL_FACTOR = 100.0
_TOL_FLOOR = 1e-9
_MAX_GROUP_ORDER = 120
# half the smallest gap (1.16e-5) between the traces 2cos(pi p/q) with
# q <= _MAX_GROUP_ORDER: above it these orders are not told apart
_TOL_MAX = 5e-6
# T5, each trace with the projective order n of the SL2 elements that have it
_T5 = tuple((2 * math.cos(math.pi * a), a.denominator)
            for a in {Fraction(k, n) for n in range(1, 6) for k in range(n + 1)})


class InconclusiveError(RuntimeError):
    """Raised when the estimated error of the loop matrices is too large for
    the tolerance to separate the loci of the classification."""

    def to_record(self) -> dict:
        """The oracle's record of the inconclusive result, in place of a class's."""
        return {"kind": "inconclusive", "detail": str(self)}


@dataclass(frozen=True)
class ProjectiveClass:
    """Projective type of the group generated by the two loop matrices.

    ``margin`` is the smallest distance by which a test of the rule missed
    its locus, so how far the traces sit from another verdict; None when no
    test missed."""

    kind: str  # finite | dihedral | triangularizable (the integrable kinds) | dense
    order: Optional[int]
    tolerance_used: float
    margin: Optional[float]

    @property
    def integrable(self) -> bool:
        """Whether the Zariski closure is a proper subgroup of PSL2(C): not dense."""
        return self.kind in ("finite", "dihedral", "triangularizable")

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "tolerance_used": self.tolerance_used,
            "margin": self.margin,
        }


def _normalize(m) -> tuple:
    """m over a square root of its determinant."""
    s = cmath.sqrt(_det(m))
    return tuple(tuple(x / s for x in row) for row in m)


def _norm(m) -> float:
    """The largest absolute value of an entry."""
    return max(abs(x) for row in m for x in row)


def _order(a, cap: int) -> tuple[int, float]:
    """The projective order q <= ``cap`` nearest to that of the
    unit-determinant ``a``, and the distance of ``a`` from having order q."""
    t = _trace(a)
    theta = math.acos(min(max(t.real / 2, -1.0), 1.0)) / math.pi
    angle = Fraction(theta).limit_denominator(cap)
    dist = abs(t - 2 * math.cos(math.pi * angle))
    if angle.denominator == 1:
        # of trace +-2 only the scalars have finite order, not the parabolics
        (p, q), (r, s) = a
        dist = max(dist, _norm(((p - t / 2, q), (r, s - t / 2))) / _norm(a))
    return angle.denominator, dist


def classify_projective(rep: MonodromyRep) -> ProjectiveClass:
    """Classify the projectivized group generated by the loop matrices by the
    trace rule of the module docstring.  Raises ``InconclusiveError`` when
    the tolerance from ``rep.estimated_error`` cannot separate the loci, an
    infinite or nan one (from matrices that overflowed) included.

    The matrices leave numpy through one ``tolist`` each: the rule runs on
    Python complex numbers, which costs less than numpy calls on 2x2
    matrices."""
    tol = max(_TOL_FACTOR * rep.estimated_error, _TOL_FLOOR)
    if not tol <= _TOL_MAX:  # a nan tolerance fails too
        raise InconclusiveError(
            f"tolerance {tol:.2e} from estimated error {rep.estimated_error:.2e} "
            f"exceeds {_TOL_MAX:.0e}, beyond which the loci are not separated"
        )
    a0 = _normalize(rep.m0.tolist())
    a1 = _normalize(rep.m1.tolist())
    mats = (a0, a1, _product(a0, a1))
    x, y, z = (_trace(m) for m in mats)
    kappa = x * x + y * y + z * z - x * y * z - 2
    missed: list[float] = []

    def holds(dist: float) -> bool:
        if dist > tol:
            missed.append(dist)
        return dist <= tol

    def result(kind: str, order: Optional[int] = None) -> ProjectiveClass:
        return ProjectiveClass(kind, order, tol, min(missed, default=None))

    if holds(abs(kappa - 2)):
        (q0, d0), (q1, d1) = (_order(a, _MAX_GROUP_ORDER) for a in (a0, a1))
        ab, ba = mats[2], _product(a1, a0)
        difference = [[ab[i][j] - ba[i][j] for j in (0, 1)] for i in (0, 1)]
        commutator = _norm(difference) / (_norm(a0) * _norm(a1))
        if holds(max(commutator, d0, d1)) and math.lcm(q0, q1) <= _MAX_GROUP_ORDER:
            return result("finite", math.lcm(q0, q1))
        return result("triangularizable")
    if holds(sorted(map(abs, (x, y, z)))[1]):
        # the two matrices of trace 0 are involutions: dihedral of twice the
        # order q of the third
        q, dist = _order(max(mats, key=lambda m: abs(_trace(m))), _MAX_GROUP_ORDER // 2)
        return result("finite", 2 * q) if holds(dist) else result("dihedral")
    nearest = [min((abs(t - v), n) for v, n in _T5) for t in (x, y, z, x * y - z, kappa)]
    if holds(max(nearest)[0]):
        return result("finite", {5: 60, 4: 24}.get(max(n for _, n in nearest[:4]), 12))
    return result("dense")
