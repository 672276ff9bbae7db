"""Ratio-set dynamics: exact Mobius orbits and integer pair moves."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicunits import (
    INFINITY,
    InvalidParamsError,
    McrPair,
    OrbitCapError,
    ProjectiveRatio,
    is_mutually_cubic_pair,
    mobius_R,
    mobius_T,
    orbit,
    orbit_csv_rows,
    ratio_estimate,
    recipe_pairs,
    tilde_D,
    tilde_T,
)


def test_projective_ratio_basics():
    assert ProjectiveRatio(3).as_fraction() == 3
    assert ProjectiveRatio(Fraction(8, 3)).as_fraction() == Fraction(8, 3)
    assert ProjectiveRatio(float("inf")).is_infinity
    assert INFINITY.is_infinity and not INFINITY.is_exact
    assert ProjectiveRatio(INFINITY) == INFINITY
    assert ProjectiveRatio(0.5).as_fraction() == Fraction(1, 2)
    with pytest.raises(InvalidParamsError):
        ProjectiveRatio("x")
    with pytest.raises(InvalidParamsError):
        INFINITY.as_fraction()
    assert mp.isinf(INFINITY.as_mpf())


def test_mobius_maps_frozen():
    assert mobius_T(3) == ProjectiveRatio(Fraction(8, 3))
    assert mobius_T(Fraction(1, 3)) == ProjectiveRatio(0)
    assert mobius_T(0).is_infinity
    assert mobius_T(INFINITY) == ProjectiveRatio(3)
    assert mobius_R(INFINITY) == ProjectiveRatio(Fraction(5, 2))
    assert mobius_R(Fraction(1, 2)).is_infinity
    assert mobius_R(Fraction(5, 2)) == ProjectiveRatio(Fraction(19, 8))


def test_orbit_T_fibonacci_convergents():
    pts = orbit("T", 3, 5)
    expect = [Fraction(3), Fraction(8, 3), Fraction(21, 8), Fraction(55, 21),
              Fraction(144, 55), Fraction(377, 144)]
    assert [p.as_fraction() for p in pts] == expect


def test_orbit_through_infinity():
    pts = orbit("T", Fraction(1, 3), 3)
    assert pts[0].as_fraction() == Fraction(1, 3)
    assert pts[1].as_fraction() == 0
    assert pts[2].is_infinity
    assert pts[3].as_fraction() == 3


def test_orbit_T_limit():
    # fixed point of s -> 3 - 1/s on (1, inf) is (3 + sqrt 5)/2
    pts = orbit("T", 3, 60)
    with mp.workprec(200):
        target = (3 + mp.sqrt(5)) / 2
        err = abs(pts[-1].as_mpf(200) - target)
    assert err < mp.mpf("1e-20")


def test_orbit_R_limit():
    pts = orbit("R", INFINITY, 80)
    assert pts[1].as_fraction() == Fraction(5, 2)
    assert pts[2].as_fraction() == Fraction(19, 8)
    assert pts[3].as_fraction() == Fraction(71, 30)
    with mp.workprec(200):
        target = (3 + mp.sqrt(3)) / 2
        err = abs(pts[-1].as_mpf(200) - target)
    assert err < mp.mpf("1e-15")


def test_orbit_guards():
    with pytest.raises(InvalidParamsError):
        orbit("Q", 3, 5)
    with pytest.raises(InvalidParamsError):
        orbit("T", 3, -1)
    with pytest.raises(OrbitCapError):
        orbit("T", 3, 100, max_bits=8)


# ---------------------------------------------------------------------------
# integer pair moves
# ---------------------------------------------------------------------------


def test_tilde_T_frozen():
    assert tilde_T(McrPair(2, 1)) == McrPair(-7, 2)
    assert tilde_T(McrPair(3, 13)) == McrPair(-2, 3)
    assert tilde_T(McrPair(7, 2)) == McrPair(-171, 7)


def test_tilde_D_frozen():
    assert tilde_D(McrPair(3, 13)) == McrPair(3, -26)
    for t in (2, 5, -4):
        assert tilde_D(McrPair(t, 1)) == McrPair(t, 1 - t)


def test_tilde_guards():
    with pytest.raises(InvalidParamsError):
        McrPair(2, 3)  # not mutually cubic
    with pytest.raises(InvalidParamsError):
        tilde_T(McrPair(1, 0))  # b = 0
    with pytest.raises(InvalidParamsError):
        tilde_T(McrPair(1, 5))  # a^3 = 1
    with pytest.raises(InvalidParamsError):
        tilde_D(McrPair(1, 1))  # a = 1
    with pytest.raises(InvalidParamsError):
        tilde_D(McrPair(7, 2))  # 2 does not divide 57


@settings(max_examples=120)
@given(st.sampled_from(["one_b", "b2b1", "one_minus_b", "square_cube"]),
       st.integers(min_value=-25, max_value=25),
       st.integers(min_value=0, max_value=4))
def test_tilde_T_preserves_congruences(kind, param, steps):
    try:
        a, b = recipe_pairs(kind, param)
    except InvalidParamsError:
        return
    p = McrPair(a, b)
    for _ in range(steps):
        try:
            p = tilde_T(p)
        except InvalidParamsError:
            return  # hit a degenerate entry; the move correctly refused
        # McrPair's constructor re-checks, but assert the raw congruences too
        assert is_mutually_cubic_pair(p.a, p.b)


@given(st.integers(min_value=2, max_value=2000))
def test_tilde_D_on_b2b1_pairs(b):
    # (b^2+b+1, b) always satisfies the divisibility hypothesis with roles
    # swapped: b | a^2+a+1 is false in general, but b=1 always works
    p = McrPair(b, 1)
    q = tilde_D(p)
    assert q == McrPair(b, 1 - b)
    assert is_mutually_cubic_pair(q.a, q.b)


# ---------------------------------------------------------------------------
# ratio estimates
# ---------------------------------------------------------------------------


def test_ratio_estimate_classifications():
    est = ratio_estimate([McrPair(1, 1)])
    assert est.classification == "degenerate-regular-triangle"
    assert not est.in_window
    est = ratio_estimate([McrPair(5, 1)])
    assert est.classification == "infinity" and est.value.is_infinity
    est = ratio_estimate([McrPair(1, 5)])
    assert est.classification == "zero" and est.value == ProjectiveRatio(0)


def test_ratio_estimate_chain_approaches_T_fixed_point():
    p = McrPair(7, 2)
    seq = [p]
    for _ in range(8):
        p = tilde_T(p)
        seq.append(p)
    est = ratio_estimate(seq, prec=200)
    assert est.classification == "finite"
    assert est.in_window
    with mp.workprec(200):
        target = (3 + mp.sqrt(5)) / 2
        assert abs(est.samples[-1] - target) < mp.mpf("1e-3")
    # successive samples settle down
    assert abs(est.diffs[-1]) < abs(est.diffs[0])


def test_ratio_estimate_guards():
    with pytest.raises(InvalidParamsError):
        ratio_estimate([])


def test_orbit_csv_rows():
    pts = orbit("T", Fraction(1, 3), 3)
    rows = orbit_csv_rows(pts, digits=20)
    assert rows[0] == (0, "1", "3", "0.33333333333333333333")
    assert rows[2] == (2, "1", "0", "inf")
    assert rows[3][1:3] == ("3", "1")
    assert rows[3][3].startswith("3.0")
    # byte-deterministic across calls
    assert orbit_csv_rows(pts, digits=20) == rows
