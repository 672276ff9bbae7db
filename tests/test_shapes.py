"""Plane identification, Gauss reduction, and limit-shape formulas."""

from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicunits import (
    DependentUnitsError,
    InvalidParamsError,
    LogVector,
    OneUnitParams,
    ShapePoint,
    build_one_unit,
    build_order,
    corner,
    corner_distance,
    curve_gamma,
    cusick_angle_cos,
    limit_shape_z,
    log_embed,
    omega,
    reduce_fundamental,
    same_shape,
    shape_from_units,
    simplest_cubic,
    to_plane,
)
from cubicunits import shapes
from cubicunits.shapes import curve_range


def replay(tau, word):
    """Re-apply a recorded reduction word to check it really is the path."""
    for mv in word:
        if mv == "reflect":
            tau = mp.conj(tau)
        elif mv == "S":
            tau = -1 / tau
        elif mv.startswith("T"):
            tau = tau + int(mv[1:])
        else:
            raise AssertionError(f"unknown move {mv!r}")
    return tau


def vec(x1, x2, x3, err="1e-40"):
    return LogVector(mp.mpf(x1), mp.mpf(x2), mp.mpf(x3), mp.mpf(err))


def test_omega_and_corner():
    with mp.workprec(220):
        w = omega(200)
        assert abs(w * w + w + 1) < mp.ldexp(1, -190)
        c = corner(200)
        assert abs(abs(c) - 1) < mp.ldexp(1, -190)
        assert abs(c - mp.exp(mp.mpc(0, mp.pi / 3))) < mp.ldexp(1, -190)


def test_to_plane_frozen():
    with mp.workprec(200):
        w = omega(200)
        assert abs(to_plane(vec(-1, 0, 1), 200) - 1) < mp.ldexp(1, -180)
        assert abs(to_plane(vec(0, -1, 1), 200) - (1 + w)) < mp.ldexp(1, -180)
        assert abs(to_plane(vec(1, 1, -2), 200) - (-2 - w)) < mp.ldexp(1, -180)


@pytest.mark.parametrize("ambient", [8, 12])
def test_plane_check_charges_its_own_sum(ambient):
    # one_unit (1, 1) at t = 10^12: v1 is about (27.6, -1e-12, -27.6) at 192
    # bits, and its sum rounded at 8 or 12 bits is off by far more than 9 err
    # or 2^-16 max|x_i|, but within what its two roundings can move it
    order = build_order(build_one_unit(OneUnitParams(1, 1), 10 ** 12), [(1, 1), (1, 0)])
    v1, v2 = (log_embed(order, *u) for u in order.units[:2])
    exact = to_plane(v1, 192)
    with mp.workprec(ambient):
        z = to_plane(v1)
        off = SimpleNamespace(x1=v1.x1 + 1, x2=v1.x2, x3=v1.x3, err=v1.err)
        with pytest.raises(InvalidParamsError, match="off the trace-zero plane"):
            to_plane(off)
    assert abs(z - exact) <= mp.ldexp(abs(exact), 2 - ambient)
    try:
        shape_from_units(v1, v2, ambient)
    except DependentUnitsError:  # below 17 bits its own tolerance exceeds 1
        pass


@settings(max_examples=60)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_to_plane_linear(a1, a2, b1, b2):
    u = vec(a1, a2, -a1 - a2)
    v = vec(b1, b2, -b1 - b2)
    s = vec(a1 + b1, a2 + b2, -a1 - a2 - b1 - b2)
    with mp.workprec(200):
        lhs = to_plane(s, 200)
        rhs = to_plane(u, 200) + to_plane(v, 200)
        assert abs(lhs - rhs) < mp.ldexp(1, -150)


def test_reduce_fundamental_frozen():
    with mp.workprec(200):
        p = reduce_fundamental(mp.mpc(0, 1), 200)
        assert p.reduction_word == ()
        assert abs(p.tau - mp.mpc(0, 1)) < mp.ldexp(1, -190)

        p = reduce_fundamental(mp.mpc(5, 1), 200)
        assert p.reduction_word == ("T-5",)

        p = reduce_fundamental(mp.mpc("0.1", "0.1"), 200)
        assert p.reduction_word == ("S", "T5")
        assert abs(p.tau - mp.mpc(0, 5)) < mp.ldexp(1, -150)


def test_reduce_boundary_conventions():
    with mp.workprec(200):
        # left vertical edge folds to the right one
        p = reduce_fundamental(mp.mpc(mp.mpf(-1) / 2, 2), 200)
        assert p.reduction_word == ("T1",)
        assert abs(p.tau - mp.mpc(mp.mpf(1) / 2, 2)) < mp.ldexp(1, -150)
        # the arc keeps Re >= 0; omega itself lands on the corner
        p = reduce_fundamental(omega(200), 200)
        assert abs(p.tau - corner(200)) < mp.ldexp(1, -120)
        assert p.tau.real >= 0
        # a generic arc point with negative real part flips sign
        t = mp.exp(mp.mpc(0, mp.pi * mp.mpf(2) / 3 - mp.mpf(1) / 10))
        p = reduce_fundamental(t, 200)
        assert p.tau.real >= -mp.ldexp(1, -100)
        assert abs(abs(p.tau) - 1) < mp.ldexp(1, -120)


def test_reduce_rejects_lower_half_plane():
    with pytest.raises(InvalidParamsError):
        reduce_fundamental(mp.mpc(1, -1))
    with pytest.raises(InvalidParamsError):
        reduce_fundamental(mp.mpc(1, 0))


@settings(max_examples=120)
@given(st.floats(-8, 8), st.floats(0.02, 8))
def test_reduce_word_replays_and_lands_in_domain(x, y):
    with mp.workprec(200):
        tau = mp.mpc(x, y)
        p = reduce_fundamental(tau, 200)
        tol = mp.ldexp(1, -100)
        assert abs(replay(tau, p.reduction_word) - p.tau) < tol
        assert p.tau.real <= mp.mpf(1) / 2 + tol
        assert p.tau.real >= -mp.mpf(1) / 2 - tol
        assert abs(p.tau) >= 1 - tol
        # reducing again is a no-op up to boundary ties
        q = reduce_fundamental(p.tau, 200)
        assert same_shape(p.tau, q.tau, tol)


@settings(max_examples=60)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.floats(-0.45, 0.45), st.floats(1.05, 3))
def test_reduce_is_sl2_invariant(a, b, c, x, y):
    with mp.workprec(200):
        base = mp.mpc(x, y)  # interior of the fundamental domain
        tau = base
        # apply T^a S T^b S T^c, a word of SL2(Z) moves
        tau = tau + c
        tau = -1 / tau
        tau = tau + b
        tau = -1 / tau
        tau = tau + a
        p = reduce_fundamental(tau, 200)
        assert same_shape(p.tau, base, mp.ldexp(1, -80))


def test_shape_from_units_simplest_is_corner():
    order = build_order(simplest_cubic(10 ** 6), [(1, 0), (1, -1)])
    v1 = log_embed(order, 1, 0)
    v2 = log_embed(order, 1, -1)
    p = shape_from_units(v1, v2, 200)
    assert p.reduced
    assert corner_distance(p) < mp.mpf("1e-6")
    with mp.workprec(200):
        start = to_plane(v2, 200) / to_plane(v1, 200)
        if start.imag < 0:
            assert p.reduction_word[0] == "reflect"
        assert abs(replay(start, p.reduction_word) - p.tau) < mp.ldexp(1, -90)


def test_shape_from_units_dependent():
    order = build_order(simplest_cubic(100), [(1, 0), (1, -1)])
    v1 = log_embed(order, 1, 0)
    with pytest.raises(DependentUnitsError):
        shape_from_units(v1, v1.scaled(2), 200)
    with pytest.raises(DependentUnitsError):
        shape_from_units(v1, -v1, 200)


def one_unit_logs(t):
    order = build_order(build_one_unit(OneUnitParams(1, 1), t), [(1, 1), (1, 0)])
    return [log_embed(order, *u) for u in order.units[:2]]


@pytest.mark.parametrize("q", [8, 12, 16, 17])
def test_low_width_shape_matches_the_192_bit_shape(q):
    # one_unit (1, 1) at t = 10^12: the dependence tolerance charges the
    # quotient's own roundings, 2^(c-q) |tau| with c = _QUOTIENT_ROUNDING,
    # so these independent units are no longer called dependent below 18
    # bits, and the shape is the 192-bit one within 2^(c-q)
    v1, v2 = one_unit_logs(10 ** 12)
    ref = shape_from_units(v1, v2, 192)
    p = shape_from_units(v1, v2, q)
    with mp.workprec(256):
        assert same_shape(p, ref, mp.ldexp(1, shapes._QUOTIENT_ROUNDING - q))


@pytest.mark.parametrize("q", [*range(8, 25), 53, 64, 192, 384])
def test_a_unit_and_its_double_are_dependent_at_every_width(q):
    v1 = one_unit_logs(10 ** 12)[0]
    with mp.workprec(256):
        v2 = v1.scaled(2)  # exact: doubling keeps the mantissas
    with pytest.raises(DependentUnitsError):
        shape_from_units(v1, v2, q)


def test_limit_shape_frozen_endpoints():
    with mp.workprec(120):
        z00 = limit_shape_z(0, 0)
        assert abs(z00 - corner(96)) < mp.ldexp(1, -80)
        z01 = limit_shape_z(0, 1)
        assert abs(z01 - omega(96)) < mp.ldexp(1, -80)


@given(st.fractions(min_value=0, max_value=1))
def test_limit_shape_slow_growth_sits_on_unit_circle(b):
    with mp.workprec(220):
        z = limit_shape_z(0, b, 220)
        assert abs(abs(z) - 1) < mp.ldexp(1, -200)
        if b < 1:  # the angle formula's domain is [0, 1)
            assert abs(z.real - cusick_angle_cos(b)) < mp.ldexp(1, -80)


@given(st.fractions(min_value=0, max_value=Fraction(1, 3)))
def test_limit_shape_diagonal_has_half_real_part(a):
    with mp.workprec(220):
        z = limit_shape_z(a, a, 220)
        assert abs(z.real - mp.mpf(1) / 2) < mp.ldexp(1, -200)


def test_limit_shape_domain_errors():
    for bad in ((Fraction(1, 2), 1), (Fraction(1, 4), Fraction(1, 5)), (0, 2)):
        with pytest.raises(InvalidParamsError):
            limit_shape_z(*bad)


def test_curve_gamma_range():
    z = curve_gamma(Fraction(1, 3), 1, 1)
    with mp.workprec(96):
        assert abs(z - limit_shape_z(Fraction(1, 3), 1)) == 0
    with pytest.raises(InvalidParamsError):
        curve_gamma(Fraction(1, 3), 1, Fraction(11, 10))
    with pytest.raises(InvalidParamsError):
        curve_gamma(Fraction(1, 3), 1, -1)
    # the constant curve at the corner has unconstrained r
    assert abs(curve_gamma(0, 0, 17) - corner(96)) < mp.ldexp(1, -80)


def test_curve_range():
    assert curve_range(Fraction(1, 3), 1) == 1
    assert curve_range(Fraction(1, 2), Fraction(1, 4)) == Fraction(2, 3)
    assert curve_range(0, Fraction(1, 2)) == 2
    assert curve_range(1, 0) == Fraction(1, 3)
    assert curve_range(0, 0) is None


def test_cusick_angle_cos_exact():
    assert cusick_angle_cos(0) == Fraction(1, 2)
    assert cusick_angle_cos(Fraction(1, 2)) == Fraction(-1, 7)
    assert cusick_angle_cos(Fraction(9, 10)) == Fraction(-121, 271)
    v = cusick_angle_cos(mp.mpf("0.5"))
    assert abs(v + mp.mpf(1) / 7) < mp.ldexp(1, -45)
    with pytest.raises(InvalidParamsError):
        cusick_angle_cos(1)
    with pytest.raises(InvalidParamsError):
        cusick_angle_cos(Fraction(-1, 10))


def test_corner_distance_values():
    with mp.workprec(200):
        assert corner_distance(corner(200)) < mp.ldexp(1, -190)
        assert corner_distance(omega(200)) < mp.ldexp(1, -190)
        d = corner_distance(mp.mpc(0, 1))
        assert abs(d - 2 * mp.sin(mp.pi / 12)) < mp.mpf("1e-30")


def test_same_shape_identifications():
    with mp.workprec(100):
        assert same_shape(corner(100), omega(100))
        assert same_shape(mp.mpc("0.5", 2), mp.mpc("-0.5", 2))
        assert same_shape(mp.mpc("0.3", 2), mp.mpc("-0.3", 2))  # mirror
        assert not same_shape(mp.mpc(0, 1), corner(100), mp.mpf("1e-6"))
        p = ShapePoint(mp.mpc(0, "1.5"), True)
        assert same_shape(p, mp.mpc(0, "1.5"))
