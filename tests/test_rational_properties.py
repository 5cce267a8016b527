"""Property tests for the exact Schwarzian laws."""

from fractions import Fraction

from definitions import mul
from hypothesis import assume, given, settings, strategies as st

from schwarztri.rational import (
    MobiusMap,
    Poly,
    RatFunc,
    _clear_denominators,
    _int_gcd_poly,
    _int_mul,
    _strip,
    compose,
    derivative,
    mobius_apply,
    schwarz_pullback,
    schwarzian,
)

coeffs = st.integers(min_value=-3, max_value=3)


@st.composite
def polys(draw, max_deg=3, nonzero=False):
    cs = draw(st.lists(coeffs, min_size=1, max_size=max_deg + 1))
    p = Poly(cs)
    if nonzero and p.is_zero:
        p = Poly(cs + [1])
    return p


@st.composite
def ratfuncs(draw, max_deg=3, nonconstant=False):
    f = RatFunc(draw(polys(max_deg)), draw(polys(max_deg, nonzero=True)))
    if nonconstant and f.is_constant:
        f = f + Y
    return f


@st.composite
def mobius_maps(draw):
    a, b, c, d = (draw(coeffs) for _ in range(4))
    assume(a * d - b * c != 0)
    return MobiusMap(a, b, c, d)


fracs = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def unreduced_ratfuncs(draw):
    """Non-constant N/D with Fraction coefficients, a leading denominator
    coefficient that is negative or not 1, and a linear factor shared by N
    and D before reduction."""
    num = Poly(draw(st.lists(fracs, min_size=1, max_size=4)))
    lead = draw(st.sampled_from([Fraction(-3, 2), Fraction(-1), Fraction(2, 3), Fraction(3)]))
    den = Poly(draw(st.lists(fracs, max_size=3)) + [lead])
    shared = Poly([draw(fracs), draw(st.sampled_from([Fraction(1, 2), Fraction(-1), Fraction(2)]))])
    assume(not num.is_zero)
    f = RatFunc(num * shared, den * shared)
    assume(not f.is_constant)
    return f


Y = RatFunc.variable()


@settings(max_examples=40, deadline=None)
@given(ratfuncs(nonconstant=True), ratfuncs(nonconstant=True))
def test_cocycle_law(f, g):
    dg = derivative(g)
    lhs = schwarzian(compose(f, g))
    rhs = compose(schwarzian(f), g) * dg * dg + schwarzian(g)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(unreduced_ratfuncs())
def test_schwarzian_matches_definition(f):
    """The closed form equals the chain f'''/f' - (3/2)(f''/f')^2."""
    fp = f.derivative()
    fpp = fp.derivative()
    fppp = fpp.derivative()
    ratio = fpp / fp
    assert schwarzian(f) == fppp / fp - Fraction(3, 2) * ratio * ratio


@settings(max_examples=40, deadline=None)
@given(mobius_maps(), ratfuncs(nonconstant=True))
def test_mobius_invariance(m, f):
    assert schwarzian(mobius_apply(m, f)) == schwarzian(f)


@settings(max_examples=25, deadline=None)
@given(ratfuncs(max_deg=2), ratfuncs(max_deg=2, nonconstant=True), ratfuncs(max_deg=2, nonconstant=True))
def test_pullback_functoriality(r, phi, psi):
    lhs = schwarz_pullback(schwarz_pullback(r, phi), psi)
    rhs = schwarz_pullback(r, compose(phi, psi))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(nonconstant=True))
def test_results_are_reduced_and_monic(f, g):
    results = [f + g, f * g, f - g, compose(f, g), derivative(g)]
    if not g.is_zero:
        results.append(f / g)
    for h in results:
        assert h.den.leading == 1
        if h.is_zero:
            assert h.den == Poly([1])
        else:
            assert _int_gcd_poly(h._n, h._d) == ([1], list(h._n), list(h._d))


@settings(max_examples=30, deadline=None)
@given(ratfuncs(nonconstant=True), mobius_maps())
def test_composition_with_mobius_matches_apply(f, m):
    assert mobius_apply(m, f) == (f * m.a + m.b) / (f * m.c + m.d)


wide = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), fracs)


@settings(max_examples=80, deadline=None)
@given(st.lists(wide, max_size=8), st.lists(wide, max_size=8))
def test_poly_product_matches_schoolbook(a, b):
    """The packed-integer product of the integer coefficients that clearing
    denominators gives equals the coefficient convolution.  The factors are
    stripped of trailing zeros first, as every integer polynomial of the
    package is: a zero factor is empty."""
    expected = mul(a, b)
    da, ia = _clear_denominators(_strip([Fraction(x) for x in a]))
    db, ib = _clear_denominators(_strip([Fraction(y) for y in b]))
    assert _strip([Fraction(c, da * db) for c in _int_mul(ia, ib)]) == _strip(expected)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(nonconstant=True), fracs)
def test_compose_matches_pointwise_evaluation(f, g, x):
    try:
        expected = f(g(x))
    except ZeroDivisionError:
        assume(False)
    assert compose(f, g)(x) == expected
