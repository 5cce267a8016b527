"""Tests for the numerical monodromy oracle."""

import cmath
import math
from dataclasses import replace
from fractions import Fraction as F

import numpy as np
import pytest

from schwarztri.monodromy import (
    InconclusiveError,
    LoopSpec,
    MonodromyRep,
    _TAYLOR_ORDER,
    _taylor_step,
    classify_projective,
    continue_solution,
    monodromy,
)
from schwarztri.rational import RatFunc
from schwarztri.series import series_solve_linear
from schwarztri.triangle import AngleParams, build_r


def params(a, b, c):
    return AngleParams(F(a), F(b), F(c))


class TestLoopSpec:
    def test_radius_bounds(self):
        with pytest.raises(ValueError):
            LoopSpec(center=0j, radius=0.6)
        with pytest.raises(ValueError):
            LoopSpec(center=0j, radius=0.0)

    def test_base_outside_circle(self):
        with pytest.raises(ValueError):
            LoopSpec(center=0j, base_point=0.1 + 0j, radius=0.25)

    def test_polyline_closes_at_base(self):
        path = LoopSpec(center=0j).polyline()
        assert path[0] == path[-1] == 0.5 + 0j


class TestContinuation:
    def test_trivial_equation_identity_loop(self):
        m = continue_solution(RatFunc.constant(0), LoopSpec(center=0j).polyline())
        assert np.max(np.abs(m - np.eye(2))) < 1e-10

    def test_segment_transport_matches_series(self):
        # transport along a pole-free segment equals direct series evaluation;
        # 0.5 -> 0.6 is one step, 0.5 -> 0.7 two, so there the product of the
        # transfer matrices is compared
        r = build_r(params("1/2", "1/3", "1/7"))
        psi1, psi2 = series_solve_linear(r, 0.5 + 0j, 40)
        for end in (0.6, 0.7):
            m = continue_solution(r, [0.5 + 0j, end + 0j])
            expected = np.array(
                [
                    [psi1(end), psi2(end)],
                    [psi1.derivative()(end), psi2.derivative()(end)],
                ]
            )
            assert np.max(np.abs(m - expected)) < 1e-11

    def test_taylor_step_matches_series_evaluation(self):
        # the one-pass values and derivatives equal evaluating the series and
        # their derivative series at z + h, and the transfer matrix is unimodular
        r = build_r(params("1/2", "1/3", "1/7"))
        steps = ((0.5, 0.1), (0.5, 0.125j), (0.25, -0.0875), (0.7 - 0.2j, 0.05 + 0.05j))
        for z, h in steps:
            m = _taylor_step(r, z, h)
            pair = series_solve_linear(r, z, _TAYLOR_ORDER + 2)
            w = z + h
            expected = np.array([[s(w) for s in pair], [s.derivative()(w) for s in pair]])
            assert np.max(np.abs(m - expected)) <= 1e-14 * np.max(np.abs(expected)), (z, h)
            assert abs(np.linalg.det(m) - 1) < 1e-13, (z, h)

    def test_path_through_pole_raises(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        with pytest.raises(RuntimeError):
            continue_solution(r, [0.5 + 0j, -0.5 + 0j])  # crosses the pole at 0

    def test_hurwitz_loop_trace(self):
        r = build_r(params("1/2", "1/3", "1/7"))
        m0 = continue_solution(r, LoopSpec(center=0j).polyline())
        assert abs(np.trace(m0) - (-2 * math.cos(math.pi / 3))) < 1e-6


class TestMonodromy:
    def test_generic_rejected(self):
        with pytest.raises(ValueError):
            monodromy(AngleParams.generic())

    def test_trace_law_hurwitz(self):
        rep = monodromy(params("1/2", "1/3", "1/7"))
        assert abs(np.trace(rep.m0) - (-2 * math.cos(math.pi / 3))) < 1e-6
        assert abs(np.trace(rep.m1) - (-2 * math.cos(math.pi / 7))) < 1e-6
        assert not rep.resonant_warning

    def test_cusp_parabolic(self):
        rep = monodromy(params(0, 0, 0))
        for m in (rep.m0, rep.m1):
            assert abs(abs(np.trace(m)) - 2) < 1e-6
            assert np.max(np.abs(m - np.eye(2))) > 1e-3  # not the identity
        assert rep.resonant_warning

    def test_determinants_within_estimated_error(self):
        rep = monodromy(params("1/3", "2/5", "1/7"))
        for m in (rep.m0, rep.m1):
            assert abs(np.linalg.det(m) - 1) <= rep.estimated_error
        assert rep.estimated_error < 1e-8

    def test_loop_radius_independence(self):
        p = params("1/2", "1/3", "1/7")
        rep1 = monodromy(p)
        rep2 = monodromy(
            p,
            loop0=LoopSpec(center=0j, radius=0.125),
            loop1=LoopSpec(center=1 + 0j, radius=0.125),
        )
        assert np.max(np.abs(rep1.m0 - rep2.m0)) < 1e-8
        assert np.max(np.abs(rep1.m1 - rep2.m1)) < 1e-8

    def test_record_round_trip(self):
        rec = monodromy(params("1/2", "1/2", "1/2")).to_record()
        assert set(rec) == {"m0", "m1", "estimated_error", "resonant_warning"}


def _rep(m0, m1):
    return MonodromyRep(
        m0=np.array(m0, dtype=complex),
        m1=np.array(m1, dtype=complex),
        estimated_error=1e-13,
    )


class TestClassifyProjective:
    def test_identity_pair_is_trivial_group(self):
        cls = classify_projective(_rep(np.eye(2), np.eye(2)))
        assert cls.kind == "finite" and cls.order == 1

    def test_diagonal_infinite_order(self):
        a = cmath.exp(1j * 0.7)  # irrational rotation angle
        m = [[a, 0], [0, 1 / a]]
        cls = classify_projective(_rep(m, m))
        assert cls.kind == "triangularizable"

    def test_infinite_dihedral(self):
        a = cmath.exp(1j * 0.7)
        rot = [[a, 0], [0, 1 / a]]
        swap = [[0, 1], [-1, 0]]
        cls = classify_projective(_rep(rot, swap))
        assert cls.kind == "dihedral"

    def test_klein_four_is_finite(self):
        rep = monodromy(params("1/2", "1/2", "1/2"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 4

    def test_icosahedral_order(self):
        rep = monodromy(params("1/2", "1/3", "1/5"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 60

    def test_hurwitz_dense(self):
        rep = monodromy(params("1/2", "1/3", "1/7"))
        assert classify_projective(rep).kind == "dense"

    def test_unitary_regime_dense(self):
        rep = monodromy(params("3/4", "1/4", "1/4"))
        assert classify_projective(rep).kind == "dense"

    def test_reducible_euclidean_triangularizable(self):
        rep = monodromy(params("1/2", "1/3", "1/6"))
        assert classify_projective(rep).kind == "triangularizable"

    def test_finite_order_cap_respected(self):
        # a dihedral group of order 2q is finite up to the cap of 120 only
        swap = [[0, 1], [-1, 0]]
        for q, expected in ((60, ("finite", 120)), (61, ("dihedral", None))):
            a = cmath.exp(1j * math.pi / q)
            cls = classify_projective(_rep([[a, 0], [0, 1 / a]], swap))
            assert (cls.kind, cls.order) == expected

    def test_inconclusive_raises_not_misreports(self):
        # an icosahedral rep whose estimated error is too large to separate
        # the loci must raise rather than report dense
        rep = monodromy(params("1/2", "1/3", "1/5"))
        assert classify_projective(replace(rep, estimated_error=4e-8)).order == 60
        for err in (1e-7, 1e-3):
            with pytest.raises(InconclusiveError):
                classify_projective(replace(rep, estimated_error=err))

    def test_finite_dihedral_pair(self):
        a = cmath.exp(1j * math.pi / 5)
        cls = classify_projective(_rep([[a, 0], [0, 1 / a]], [[0, 1], [-1, 0]]))
        assert cls.kind == "finite" and cls.order == 10

    def test_parabolic_is_not_finite(self):
        cls = classify_projective(_rep([[1, 1], [0, 1]], np.eye(2)))
        assert cls.kind == "triangularizable"

    def test_shifted_icosahedral_regression(self):
        # exponent differences 1/2 at 0, 13/3 at 1 and 1/5 at infinity: the
        # loop matrices have entries above 5e3, and the group is icosahedral
        rep = monodromy(params("1/5", "1/2", "13/3"))
        cls = classify_projective(rep)
        assert cls.kind == "finite" and cls.order == 60

    def test_record_reports_tolerance_and_margin(self):
        cls = classify_projective(monodromy(params("1/2", "1/3", "1/7")))
        rec = cls.to_record()
        assert set(rec) == {"kind", "order", "tolerance_used", "margin"}
        assert rec["margin"] > 1000 * rec["tolerance_used"]
