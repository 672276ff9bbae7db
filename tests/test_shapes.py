"""The plane form, exact Gauss reduction, and limit-shape formulas."""

from fractions import Fraction

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
    curve_point,
    cusick_angle_cos,
    limit_shape_z,
    log_embed,
    omega,
    reduce_fundamental,
    same_shape,
    shape_from_units,
    simplest_cubic,
)
from cubicunits.cli import _Member
from cubicunits.shapes import curve_range

from .oracles import reference_convention, reference_to_plane, replay


def vec(x1, x2, x3, err="1e-40"):
    return LogVector(mp.mpf(x1), mp.mpf(x2), mp.mpf(x3), mp.mpf(err))


def test_omega_and_corner():
    with mp.workprec(220):
        w = omega(200)
        assert abs(w * w + w + 1) < mp.ldexp(1, -190)
        c = corner(200)
        assert abs(abs(c) - 1) < mp.ldexp(1, -190)
        assert abs(c - mp.exp(mp.mpc(0, mp.pi / 3))) < mp.ldexp(1, -190)


@pytest.mark.parametrize("ambient", [8, 12])
def test_plane_check_charges_its_own_sum(ambient):
    # one_unit (1, 1) at t = 10^12: v1 is about (27.6, -1e-12, -27.6) at 192
    # bits, and its sum rounded at 8 or 12 bits is off by far more than 3 err
    # or 2^-24 max|x_i|, but within what its two roundings can move it
    order = build_order(build_one_unit(OneUnitParams(1, 1), 10 ** 12), [(1, 1), (1, 0)])
    v1, v2 = (log_embed(order, *u) for u in order.units[:2])
    with mp.workprec(ambient):
        assert LogVector(*v1.coords, v1.err) == v1
        with pytest.raises(InvalidParamsError, match="coordinates sum to"):
            LogVector(v1.x1 + 1, v1.x2, v1.x3, v1.err)
    try:
        shape_from_units(v1, v2, ambient)
    except DependentUnitsError:  # at 8 bits the radius can exceed Im tau
        pass


@settings(max_examples=200)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50), st.sampled_from((8, 53, 200)))
def test_shape_replays_the_reference_quotient(a1, a2, b1, b2, q):
    # the form's tau is the quotient of the reference plane map, conjugated
    # into the upper half plane: replaying the word on that quotient lands
    # within the radius of the reduced point; small integer vectors put many
    # points exactly on the boundary, where the ties are exact
    u, v = vec(a1, a2, -a1 - a2, 0), vec(b1, b2, -b1 - b2, 0)
    if a1 * b2 == a2 * b1:
        with pytest.raises(DependentUnitsError):
            shape_from_units(u, v, q)
        return
    p = shape_from_units(u, v, q)
    with mp.workprec(400):
        z = reference_to_plane(v, 400) / reference_to_plane(u, 400)
        assert (p.reduction_word[:1] == ("reflect",)) == (z.imag < 0)
        moved = replay(mp.conj(z) if z.imag < 0 else z, p.reduction_word[z.imag < 0:])
        assert abs(moved - p.tau) <= p.radius <= mp.ldexp(abs(p.tau), 1 - q)
    assert reference_convention(p)


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
        # a rounded arc point with negative real part is off the arc by its
        # rounding, and ties are exact: it stays if outside, folds if inside
        t = mp.exp(mp.mpc(0, mp.pi * mp.mpf(2) / 3 - mp.mpf(1) / 10))
        p = reduce_fundamental(t, 200)
        with mp.workprec(1000):  # |t|^2 exactly
            outside = t.real ** 2 + t.imag ** 2 > 1
        assert p.tau == t if outside else abs(p.tau + mp.conj(t)) < mp.ldexp(1, -190)
    # a point exactly on the arc with negative real part flips sign: the
    # limit shape at (0, 1/2), whose real part is -1/7
    p = curve_point(0, 1, Fraction(1, 2), 53)
    assert p.reduction_word[-1:] == ("S",) and p.tau.real == mp.mpf(1) / 7


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
        start = reference_to_plane(v2, 200) / reference_to_plane(v1, 200)
        if start.imag < 0:
            assert p.reduction_word[0] == "reflect"
        assert abs(replay(start, p.reduction_word) - p.tau) < mp.ldexp(1, -90)


@pytest.mark.parametrize("q", [64, 96, 128, 192, 384])
def test_an_exact_corner_prints_the_corner_at_every_width(q):
    # two_unit (1, 3, -1, -4) at t = 6203 has exactly the hexagonal corner
    # for its shape; its rounded form lands on either side of the left edge,
    # by noise, and the enclosure meets the edge, so the convention decides
    member = _Member.of_family('{"kind":"two_unit","a":"1","b":"3","c":"-1","d":"-4"}', 6203, q)
    p = shape_from_units(*member.logs, q)
    with mp.workprec(2 * q):
        assert p.tau.real > 0 and corner_distance(p, 2 * q) <= p.radius and reference_convention(p)


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
    # one_unit (1, 1) at t = 10^12: the units are independent at every
    # width, as the determinant is exact, and the shape is the 192-bit one
    # within the sum of the two radii
    v1, v2 = one_unit_logs(10 ** 12)
    ref = shape_from_units(v1, v2, 192)
    p = shape_from_units(v1, v2, q)
    assert same_shape(p, ref) and p.radius <= mp.ldexp(abs(p.tau), 2 - q)


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
        assert corner_distance(corner(200), 200) < mp.ldexp(1, -190)
        assert corner_distance(omega(200), 200) < mp.ldexp(1, -190)
        d = corner_distance(mp.mpc(0, 1), 200)
        assert abs(d - 2 * mp.sin(mp.pi / 12)) < mp.mpf("1e-30")


def test_same_shape_identifications():
    with mp.workprec(100):
        assert same_shape(corner(100), omega(100))
        assert same_shape(mp.mpc("0.5", 2), mp.mpc("-0.5", 2))
        assert same_shape(mp.mpc("0.3", 2), mp.mpc("-0.3", 2))  # mirror
        assert not same_shape(mp.mpc(0, 1), corner(100), mp.mpf("1e-6"))
        p = ShapePoint(mp.mpc(0, "1.5"), True)
        assert same_shape(p, mp.mpc(0, "1.5"))
