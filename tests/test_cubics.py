import json
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cubicunits import (
    InvalidParamsError,
    MonicCubic,
    OneUnitParams,
    TwoUnitParams,
    build_one_unit,
    build_two_unit,
    discriminant,
    eval_scaled,
    extend_seed,
    is_irreducible,
    is_totally_real,
    isolating_intervals,
    norm_linear_form,
    poly_from_json,
    scale_root,
)
from cubicunits import cubics as cubics_module
from cubicunits.cubics import sign_at

from .oracles import (
    disc_from_roots,
    disc_oracle,
    has_integer_root,
    roots_oracle,
    sturm_distinct_real_roots,
    sturm_root_count,
)

coeffs = st.integers(min_value=-200, max_value=200)
cubics = st.builds(MonicCubic, coeffs, coeffs, coeffs)


def test_eval_examples():
    f = MonicCubic(0, -3, -1)
    assert f(Fraction(2)) == 1
    assert f(0) == -1
    # a^3 f(b/a) expanded: b^3 + p2 b^2 a + p1 b a^2 + p0 a^3
    assert eval_scaled(f, 1, 2) == 1 + 0 - 12 - 8
    assert eval_scaled(f, 0, 1) == -1
    assert norm_linear_form(f, 1, 0) == 1  # N(theta) = -p0 for monic cubics


def test_eval_scaled_rejects_zero_denominator():
    with pytest.raises(InvalidParamsError):
        eval_scaled(MonicCubic(0, 0, -2), 1, 0)


def test_discriminant_frozen_values():
    assert discriminant(MonicCubic(0, -3, -1)) == 81
    # t=1 member of the classical one-parameter cyclic family
    assert discriminant(MonicCubic(-1, -4, -1)) == 169
    assert discriminant(MonicCubic(0, 0, -2)) == -108
    assert discriminant(MonicCubic(0, -1, 0)) == 4


@settings(max_examples=300, deadline=None)
@given(cubics)
def test_discriminant_matches_resultant_oracle(f):
    assert discriminant(f) == disc_oracle(f.p2, f.p1, f.p0)


@settings(max_examples=100, deadline=None)
@given(cubics)
def test_discriminant_matches_root_product(f):
    d = discriminant(f)
    if d == 0:
        return  # repeated roots sink the generic numeric solver
    approx = disc_from_roots(f.p2, f.p1, f.p0)
    assert abs(approx - d) <= mp.ldexp(max(1, abs(d)), -64)


@settings(max_examples=100, deadline=None)
@given(cubics, st.integers(min_value=1, max_value=40),
       st.integers(min_value=-40, max_value=40))
def test_eval_scaled_is_scaled_evaluation(f, a, b):
    exact = eval_scaled(f, b, a)
    assert exact == a ** 3 * f(Fraction(b, a))
    approx = a ** 3 * float(f(Fraction(b, a)))
    assert math.isclose(float(exact), approx, rel_tol=1e-9, abs_tol=1e-6)


@settings(max_examples=100, deadline=None)
@given(cubics, st.integers(min_value=-6, max_value=6).filter(lambda n: n != 0))
def test_disc_scaling_degree_six(f, n):
    assert discriminant(scale_root(f, n)) == n ** 6 * discriminant(f)


def test_scale_root_moves_roots():
    f = MonicCubic(0, -3, -1)
    g = scale_root(f, 2)  # roots double
    assert g == MonicCubic(0, -12, -8)
    with mp.workprec(256):
        for r in roots_oracle(0, -3, -1):
            v = (2 * r) ** 3 + g.p2 * (2 * r) ** 2 + g.p1 * (2 * r) + g.p0
            assert abs(v) < 1e-60


def test_totally_real_classification():
    assert is_totally_real(MonicCubic(0, -3, -1))
    assert not is_totally_real(MonicCubic(0, 0, -2))  # one real root
    # x^3 - x is totally real (roots -1, 0, 1) even though reducible
    assert is_totally_real(MonicCubic(0, -1, 0))


def test_irreducibility():
    assert is_irreducible(MonicCubic(0, -3, -1))
    assert is_irreducible(MonicCubic(0, 0, -2))
    assert not is_irreducible(MonicCubic(0, -1, 0))  # x(x-1)(x+1)
    assert not is_irreducible(MonicCubic(-2, 0, 1))  # root x=1
    assert not is_irreducible(MonicCubic(5, 0, 0))  # root x=0


def test_isolating_intervals_bracket_single_roots():
    f = MonicCubic(0, -3, -1)
    ivs = isolating_intervals(f)
    assert len(ivs) == 3
    rs = sorted(r.real for r in roots_oracle(0, -3, -1))
    for (lo, hi), r in zip(ivs, rs):
        assert float(lo) < r <= float(hi)
    # pairwise disjoint and ordered
    for k in range(2):
        assert ivs[k][1] <= ivs[k + 1][0]


@settings(max_examples=150, deadline=None)
@given(cubics)
def test_isolating_intervals_on_random_totally_real(f):
    if discriminant(f) <= 0:
        return
    ivs = isolating_intervals(f)
    assert len(ivs) == 3
    rs = sorted(r.real for r in roots_oracle(f.p2, f.p1, f.p0))
    for (lo, hi), r in zip(ivs, rs):
        assert float(lo) - 1e-50 < r <= float(hi) + 1e-50


# Closed-form isolation against the Sturm-chain oracle: every interval holds
# exactly one root, and together they hold all of them.
big = st.integers(min_value=-10 ** 60, max_value=10 ** 60)
root20 = st.integers(min_value=-10 ** 20, max_value=10 ** 20)


def _from_roots(r1, r2, r3, shift=0):
    """(x - r1)(x - r2)(x - r3) + shift."""
    return MonicCubic(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3 + shift)


def _assert_isolates(f):
    ivs = isolating_intervals(f)
    for lo, hi in ivs:
        assert lo < hi and sturm_root_count(f.p2, f.p1, f.p0, lo, hi) == 1
    for (_, hi), (lo, _) in zip(ivs, ivs[1:]):
        assert hi <= lo  # ascending and disjoint
    assert len(ivs) == sturm_distinct_real_roots(f.p2, f.p1, f.p0)
    if discriminant(f) > 0:  # refinement needs a strict sign change
        for lo, hi in ivs:
            assert sign_at(f, lo) * sign_at(f, hi) < 0


@settings(max_examples=150, deadline=None)
@given(big, big, big)
def test_isolation_matches_sturm_oracle_one_real_root(p2, p1, p0):
    f = MonicCubic(p2, p1, p0)
    assume(discriminant(f) < 0)
    _assert_isolates(f)


@settings(max_examples=150, deadline=None)
@given(st.lists(root20, min_size=3, max_size=3, unique=True),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_isolation_matches_sturm_oracle_three_real_roots(roots, shift):
    f = _from_roots(*roots, shift)
    assume(discriminant(f) > 0)
    _assert_isolates(f)


@settings(max_examples=100, deadline=None)
@given(root20, root20, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_isolation_matches_sturm_oracle_near_double_roots(a, b, u, s):
    # (x - a)^2 (x - b) + u(x - a) + s: for small u, s two roots sit close
    # to a and the critical point between them is irrational, so the
    # separator there needs many bits
    f = _from_roots(a, a, b)
    f = MonicCubic(f.p2, f.p1 + u, f.p0 - u * a + s)
    assume(discriminant(f) > 0)
    _assert_isolates(f)


@settings(max_examples=100, deadline=None)
@given(big, big, big)
def test_isolation_matches_sturm_oracle_totally_real_from_coefficients(p2, p1, p0):
    # p1 << 0 makes three real roots likely at any coefficient size
    f = MonicCubic(p2, -abs(p1) * 10 ** 6, p0)
    assume(discriminant(f) > 0)
    _assert_isolates(f)


@settings(max_examples=100, deadline=None)
@given(root20, root20)
def test_isolation_matches_sturm_oracle_double_and_triple_roots(a, b):
    double = _from_roots(a, a, b)
    assert discriminant(double) == 0
    _assert_isolates(double)
    ivs = isolating_intervals(double)
    assert len(ivs) == (1 if a == b else 2)
    _assert_isolates(_from_roots(a, a, a))
    assert len(isolating_intervals(_from_roots(a, a, a))) == 1


def test_isolation_matches_sturm_oracle_small_exhaustive():
    for p2 in range(-6, 7):
        for p1 in range(-6, 7):
            for p0 in range(-6, 7):
                _assert_isolates(MonicCubic(p2, p1, p0))


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.integers(min_value=-10 ** 30, max_value=10 ** 30),
       st.integers(min_value=-10 ** 30, max_value=10 ** 30))
def test_is_irreducible_false_on_constructed_reducible(k, q2, q1):
    # (x - k)(x^2 + q2 x + q1)
    f = MonicCubic(q2 - k, q1 - k * q2, -k * q1)
    assert has_integer_root(f.p2, f.p1, f.p0)
    assert not is_irreducible(f)


def test_is_irreducible_matches_rational_root_theorem():
    for p2 in range(-12, 13):
        for p1 in range(-12, 13):
            for p0 in range(-12, 13):
                f = MonicCubic(p2, p1, p0)
                assert is_irreducible(f) == (not has_integer_root(p2, p1, p0)), f


_DIGITS_20 = st.integers(min_value=-10 ** 20, max_value=10 ** 20)


@settings(max_examples=40, deadline=None)
@given(_DIGITS_20, _DIGITS_20, _DIGITS_20)
def test_is_irreducible_matches_the_oracle_on_random_cubics(p2, p1, p0):
    assert is_irreducible(MonicCubic(p2, p1, p0)) == (not has_integer_root(p2, p1, p0))


def _family_member(kind: str, t: int) -> MonicCubic:
    if kind == "one_unit":
        return build_one_unit(OneUnitParams(1, 1), t)
    if kind == "two_unit":
        return build_two_unit(TwoUnitParams(1, 1, 2, 3), t)
    return extend_seed(MonicCubic(0, -3, -1), 1, 0, 1, -1, t)  # the simplest cubics


def _counting_evaluations(monkeypatch) -> list[int]:
    """A counter of the exact evaluations at integers, by eval_scaled or
    by calling the cubic on an int."""
    count = [0]
    evaluate, call = cubics_module.eval_scaled, MonicCubic.__call__

    def counting(*args):
        count[0] += 1
        return evaluate(*args)

    def counting_call(f, x):
        count[0] += isinstance(x, int)
        return call(f, x)

    monkeypatch.setattr(cubics_module, "eval_scaled", counting)
    monkeypatch.setattr(MonicCubic, "__call__", counting_call)
    return count


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
def test_integer_root_search_is_cheap_on_family_members(monkeypatch, kind):
    # false position with a bisection step after any step that keeps more
    # than half the run; bisection alone took 166 to 246 evaluations on
    # the worst member of each family
    members = [_family_member(kind, sign * 10 ** e) for e in range(3, 25) for sign in (1, -1)]
    count = _counting_evaluations(monkeypatch)
    for f in members:
        count[0] = 0
        assert is_irreducible(f)
        assert count[0] <= 40, (f, count[0])


def test_integer_root_search_on_a_crawling_run_stays_near_bisection(monkeypatch):
    # x^3 - N on [0, 2^61]: the root 2^20 + eps sits near the low end of a
    # convex run, so the plain secant through the ends lands at lo + 1 time
    # after time; the bisection step after a step that keeps more than
    # half the run bounds the search by about twice bisection's
    f, lo, hi = MonicCubic(0, 0, -(2 ** 60 + 1)), 0, 2 ** 61
    count = _counting_evaluations(monkeypatch)
    assert not cubics_module._has_int_root(f, lo, hi, 1)
    assert count[0] <= 2 * math.ceil(math.log2(hi - lo)) + 4
    count[0] = 0
    g = MonicCubic(0, 0, -(2 ** 60))  # the root 2^20 is an integer
    assert cubics_module._has_int_root(g, lo, hi, 1)
    assert count[0] <= 2 * math.ceil(math.log2(hi - lo)) + 4


def poly_json(f: MonicCubic) -> str:
    # the descriptor form certify reads: decimal strings
    return json.dumps({"p2": str(f.p2), "p1": str(f.p1), "p0": str(f.p0)})


def test_poly_json_roundtrip():
    f = MonicCubic(-(10 ** 30), 7, -1)
    assert poly_from_json(poly_json(f)) == f
    assert poly_from_json({"p2": "0", "p1": "-3", "p0": "-1"}) == MonicCubic(0, -3, -1)
    for bad in ('{"p2": "1", "p1": "2"}', '{"p2": "x", "p1": "2", "p0": "3"}'):
        with pytest.raises(InvalidParamsError):
            poly_from_json(bad)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=-10 ** 12, max_value=10 ** 12),
       st.integers(min_value=-10 ** 12, max_value=10 ** 12))
def test_poly_json_roundtrip_property(p2, p1, p0):
    f = MonicCubic(p2, p1, p0)
    assert poly_from_json(poly_json(f)) == f
