"""Certified root refinement from exact brackets."""

import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cubicunits import (
    DEFAULT_POLICY,
    DomainError,
    InvalidParamsError,
    IsolatedRoot,
    MonicCubic,
    OneUnitParams,
    PrecisionPolicy,
    TwoUnitParams,
    build_one_unit,
    build_two_unit,
    eval_scaled,
    extend_seed,
    is_totally_real,
    isolating_intervals,
    refine_root,
    refined_roots,
    simplest_cubic,
)
from cubicunits import cubics, roots
from cubicunits.cubics import sign_at
from cubicunits.precision import mpf_to_fraction

from .oracles import bisect_root, roots_oracle

SEED = MonicCubic(0, -3, -1)


def test_seed_roots_are_cosines():
    # roots of x^3 - 3x - 1 are 2cos(pi/9), 2cos(5pi/9), 2cos(7pi/9)
    rts = refined_roots(SEED)
    with mp.workprec(300):
        expect = sorted(2 * mp.cos(k * mp.pi / 9) for k in (1, 5, 7))
        for r, e in zip(rts, expect):
            assert abs(r.value - e) <= r.err + mp.ldexp(1, -280)


def test_refined_roots_certified_brackets():
    for f in (SEED, simplest_cubic(5), MonicCubic(0, -1, 0)):
        rts = refined_roots(f)
        assert len(rts) == 3
        assert rts == sorted(rts, key=lambda r: r.lo)
        for r in rts:
            assert r.lo <= r.hi
            assert r.err <= mp.ldexp(1, -DEFAULT_POLICY.target_bits) * 1.001
            if r.lo == r.hi:
                # exact rational root
                assert eval_scaled(f, r.lo.numerator, r.lo.denominator) == 0
            else:
                slo = eval_scaled(f, r.lo.numerator, r.lo.denominator)
                shi = eval_scaled(f, r.hi.numerator, r.hi.denominator)
                assert (slo > 0) != (shi > 0)


def test_rational_roots_enclosed_tightly():
    # x^3 - x has roots -1, 0, 1; enclosures must contain them at full width
    rts = refined_roots(MonicCubic(0, -1, 0))
    for r, k in zip(rts, (-1, 0, 1)):
        assert r.lo <= k <= r.hi
        assert r.hi - r.lo <= Fraction(2, 1 << DEFAULT_POLICY.target_bits)
        assert abs(r.value - k) <= r.err


def test_refine_exact_endpoint_root():
    # a bracket whose endpoint is the root short-circuits to a width-0 result
    f = MonicCubic(0, -1, 0)
    r = refine_root(f, Fraction(0), Fraction(1, 2))
    assert r.lo == r.hi == Fraction(0)
    assert r.err == 0 and r.value == 0


@pytest.mark.parametrize("target", [8, 64, 192])
@pytest.mark.parametrize("lo, hi", [(2 ** 70 + 1, 2 ** 71), (2 ** 70, 2 ** 70 + 1)],
                         ids=["root-at-low-end", "root-at-high-end"])
def test_refine_returns_an_integer_root_exactly(target, lo, hi):
    # the integer root 2^70 + 1 of (x - (2^70 + 1))(x^2 - 2) has 71 bits,
    # more than the target: it comes back exact with err 0 whether it is
    # the bracket's low end or Newton's window reaches it at the high end
    r0 = 2 ** 70 + 1
    f = MonicCubic(-r0, -2, 2 * r0)
    r = refine_root(f, Fraction(lo), Fraction(hi), PrecisionPolicy(target, 4096))
    assert r.lo == r.hi == r0
    assert r.err == 0 and mpf_to_fraction(r.value) == r0


def test_isolation_rejects_complex_roots():
    with pytest.raises(DomainError):
        refined_roots(MonicCubic(0, 0, -2))


def test_refine_respects_policy():
    pol = PrecisionPolicy(target_bits=400, max_bits=4096)
    r = refined_roots(SEED, pol)[2]
    assert r.err <= mp.ldexp(1, -400)
    with mp.workprec(500):
        assert abs(r.value - 2 * mp.cos(mp.pi / 9)) < mp.ldexp(1, -398)


def test_mpf_to_fraction_ignores_the_ambient_precision():
    # a 200-bit 1/3 reads the same inside and outside its precision
    with mp.workprec(200):
        third = mp.mpf(1) / 3
        inside = mpf_to_fraction(third)
    assert mpf_to_fraction(third) == inside
    assert abs(Fraction(1, 3) - inside) < Fraction(1, 2 ** 201)
    assert mpf_to_fraction(-(10 ** 30)) == -(10 ** 30)
    assert mpf_to_fraction(0.1) == Fraction(0.1) and mpf_to_fraction(mp.mpf(0)) == 0
    for bad in (mp.inf, mp.nan, float("-inf")):
        with pytest.raises(InvalidParamsError):
            mpf_to_fraction(bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 6))
def test_simplest_cubic_roots_match_oracle(t):
    f = simplest_cubic(t)
    rts = refined_roots(f)
    with mp.workprec(320):
        oracle = sorted(r.real for r in roots_oracle(f.p2, f.p1, f.p0))
        for r, e in zip(rts, oracle):
            assert abs(r.value - e) < max(mp.ldexp(abs(e), -180), mp.ldexp(1, -180))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=10 ** 3, max_value=10 ** 7))
def test_one_unit_member_roots_bracketed(b, t):
    f = build_one_unit(OneUnitParams(1, b), t)
    brackets = isolating_intervals(f)
    assert len(brackets) == 3
    for lo, hi in brackets:
        assert lo < hi
        slo = eval_scaled(f, lo.numerator, lo.denominator)
        shi = eval_scaled(f, hi.numerator, hi.denominator)
        assert (slo > 0) != (shi > 0)


def _member(kind: str, t: int) -> MonicCubic:
    if kind == "one_unit":
        return build_one_unit(OneUnitParams(1, 1), t)
    if kind == "two_unit":
        return build_two_unit(TwoUnitParams(1, 1, 2, 3), t)
    return extend_seed(SEED, 1, 0, 1, -1, t)  # the simplest cubics


def _assert_enclosures_hold_bisected_roots(f: MonicCubic) -> None:
    """Each refined enclosure holds the root that plain exact bisection
    finds in the same isolating bracket, to within that bisection's own
    final half-width, and the error bound is met."""
    target = DEFAULT_POLICY.target_bits
    for (lo, hi), r in zip(isolating_intervals(f), refined_roots(f)):
        width = hi - lo
        steps = max(0, width.numerator.bit_length() - width.denominator.bit_length()) + target + 16
        root = bisect_root(f.p2, f.p1, f.p0, lo, hi, steps)
        slack = width / 2 ** steps  # |root - true root| <= slack
        assert lo <= r.lo <= r.hi <= hi
        assert r.lo - slack <= root <= r.hi + slack
        assert r.err <= mp.ldexp(1, -target)
        value, err = _assert_centred(r)
        assert abs(value - root) <= err + slack


def _assert_centred(r: IsolatedRoot) -> tuple[Fraction, Fraction]:
    """The refined root's window [value - err, value + err], read exactly,
    holds its certified enclosure [lo, hi]; returns (value, err)."""
    value, err = mpf_to_fraction(r.value), mpf_to_fraction(r.err)
    assert value - err <= r.lo <= r.hi <= value + err, r
    return value, err


_DECADE_T = st.integers(3, 23).flatmap(lambda e: st.integers(10 ** e, 10 ** (e + 1)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["one_unit", "two_unit", "seed"]), _DECADE_T, st.sampled_from([1, -1]))
def test_family_enclosures_hold_the_bisected_root(kind, t, sign):
    _assert_enclosures_hold_bisected_roots(_member(kind, sign * t))


@settings(max_examples=30, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.integers(2 ** 44, 2 ** 100), st.sampled_from([1, -1]))
def test_close_root_enclosures_hold_the_bisected_root(k, d, s):
    # (x-k)^2 (x-k+s*d) - s has two roots k +- d^(-1/2) + O(1/d), closer than 2^-20
    f = MonicCubic(s * d - 3 * k, 3 * k * k - 2 * s * d * k, s * d * k * k - k ** 3 - s)
    assert is_totally_real(f)
    near_k = [r for r in refined_roots(f) if abs(r.value - k) < 1]
    assert len(near_k) == 2 and abs(near_k[0].value - near_k[1].value) < mp.ldexp(1, -20)
    _assert_enclosures_hold_bisected_roots(f)


@settings(max_examples=5, deadline=None)
@given(st.integers(310, 420), st.integers(1, 9), st.integers(-5, 5).filter(bool))
def test_huge_coefficient_enclosures_hold_the_bisected_root(e, m, c):
    # coefficients beyond float64: roots +-sqrt(m 10^e) and about c/(m 10^e)
    # for the first; about -m 10^e, beyond float64 too, for the second
    for f in (MonicCubic(0, -m * 10 ** e, c), MonicCubic(m * 10 ** e, 1, -1)):
        _assert_enclosures_hold_bisected_roots(f)


def test_float_seed_steps_aside_only_beyond_float64_range():
    # p1 = -3*10^400 does not fit a float64, but every root does; the root
    # of the second near -3*10^400 does not, and starts from the exact split
    for f in (MonicCubic(0, -3 * 10 ** 400, 1), MonicCubic(3 * 10 ** 400, 1, -1)):
        _assert_enclosures_hold_bisected_roots(f)


# refine_root's own exact evaluations per root, by width, at most
_EVAL_BUDGET = {64: 11, 192: 12, 1024: 14}


@pytest.mark.parametrize("t", [sign * 10 ** e for e in range(3, 25) for sign in (1, -1)])
def test_float_seed_spends_few_exact_signs(monkeypatch, t):
    # Each root's Newton starts from the float rounding of the root of f's
    # exact second-order model at its bracket's separator end (the middle
    # root after one exact sign at -p2/3) and converges at once: the sign
    # at lo, the model, one evaluation per Newton step and the two window
    # ends. Started from the exact split of the bracket instead, Newton
    # costs the worst root of the three families 50 to 57. Every exact
    # evaluation goes through eval_scaled, sign_at's included, so each one
    # is counted.
    cases = [(kind, f, lo, hi) for kind in ("one_unit", "two_unit", "seed")
             for f in [_member(kind, t)] for lo, hi in isolating_intervals(f)]
    count = [0]

    def counting(*args):
        count[0] += 1
        return eval_scaled(*args)

    monkeypatch.setattr(roots, "eval_scaled", counting)
    monkeypatch.setattr(cubics, "eval_scaled", counting)
    for bits, budget in _EVAL_BUDGET.items():
        pol = PrecisionPolicy(bits, 4 * bits)
        evals = {"one_unit": [], "two_unit": [], "seed": []}
        for kind, f, lo, hi in cases:
            count[0] = 0
            refine_root(f, lo, hi, pol)
            assert count[0] <= budget, (kind, bits, lo, hi, count[0])
            evals[kind].append(count[0])
        if abs(t) in (10 ** 16, 10 ** 24):
            # one_unit's large root lies within an ulp of its bracket's
            # Cauchy end, and its model start lies beyond that end, where
            # f f'' > 0: Newton comes back to the root with no split
            one = evals["one_unit"]
            assert (one[0] if t > 0 else one[2]) <= budget, (bits, one)


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [sign * 10 ** e for e in (3, 12, 24) for sign in (1, -1)])
def test_refined_roots_evaluates_each_bracket_end_once(monkeypatch, kind, t):
    # the isolation fixes f at -B, q1, q2 and B; the bracket check, each
    # refinement's sign at lo, its model start and its clipped window ends
    # read those values, so no end is evaluated twice, and each root is
    # refined once
    f = _member(kind, t)
    is_totally_real(f)  # kept on f, as the pipeline has it by now
    ends = {x for bracket in isolating_intervals(f) for x in bracket}
    points, refined = [], []

    def counting(g, b, a):
        points.append(Fraction(b, a))
        return eval_scaled(g, b, a)

    refine = roots.refine_root
    monkeypatch.setattr(roots, "eval_scaled", counting)
    monkeypatch.setattr(cubics, "eval_scaled", counting)
    monkeypatch.setattr(roots, "refine_root", lambda *args: refined.append(args[1:3]) or refine(*args))
    refined_roots(f)
    assert len(ends) == 4 and len(refined) == 3
    assert {x: points.count(x) for x in ends} == dict.fromkeys(ends, 1), (kind, t)


_WIDE_RATIONALS = st.builds(lambda q, e: q * Fraction(2) ** e,
                            st.fractions(max_denominator=10 ** 30), st.integers(-1500, 1500))


@settings(max_examples=300, deadline=None)
@given(_WIDE_RATIONALS, _WIDE_RATIONALS)
@example(Fraction(0), Fraction(1, 2 ** 2000))
@example(Fraction(-(2 ** 1100)), Fraction(0))
@example(Fraction(1), Fraction(4))
@example(Fraction(1), Fraction(5))
def test_the_exact_split_lies_strictly_inside_the_bracket(a, b):
    assume(a != b)
    lo, hi = sorted((a, b))
    x = roots._split(lo, hi)
    assert lo < x < hi
    small, big = sorted((abs(lo), abs(hi)))
    if lo < 0 < hi:
        assert x == 0
    elif big > 4 * small:  # a power of two
        n, d = abs(x).as_integer_ratio()
        assert n & (n - 1) == 0 and d & (d - 1) == 0 and (n == 1 or d == 1)
    else:
        assert x == (lo + hi) / 2


def test_the_model_start_lands_beyond_each_outer_root():
    # at a separator q, f(q + h) = h^3 at the model's root, whose sign puts
    # it beyond r1 (f < 0 there) and beyond r3 (f > 0), where f f'' > 0 and
    # Newton moves monotonically towards the root; rounded once to a
    # float, the start is beyond the root or within an ulp of it
    for kind, t in _FAMILY_MEMBERS:
        f = _member(kind, t)
        (lo1, hi1), _, (lo3, hi3) = isolating_intervals(f)
        x1, _, _ = roots._model_start(f, lo1, hi1, sign_at(f, lo1))
        x3, _, _ = roots._model_start(f, lo3, hi3, sign_at(f, lo3))
        assert sign_at(f, Fraction(math.nextafter(x1, -math.inf))) < 0, (kind, t)
        assert sign_at(f, Fraction(math.nextafter(x3, math.inf))) > 0, (kind, t)
        assert x1 < hi1 and x3 > lo3, (kind, t)


def test_a_bracket_end_within_eps_of_the_root_certifies_at_the_first_rung():
    # lo lies within 2^-300 below 2^(1/3), so [x - 2^-192, x + 2^-192]
    # reaches past it; clipped to the bracket, which holds one root, the
    # enclosure certifies at once, at target + 2 + 64 bits (|hi| = 2)
    f = MonicCubic(0, 0, -2)
    with mp.workprec(1200):
        n = int(mp.floor(mp.cbrt(mp.ldexp(1, 901))))
    assert n ** 3 <= 1 << 901 < (n + 1) ** 3
    lo, hi = Fraction(n, 1 << 300), Fraction(2)
    r = refine_root(f, lo, hi)
    assert r.prec == next(DEFAULT_POLICY.ladder(start_extra=2 + 64)) == 258
    assert lo <= r.lo and r.hi <= hi and r.lo ** 3 < 2 < r.hi ** 3
    _, err = _assert_centred(r)
    assert err <= Fraction(1, 1 << DEFAULT_POLICY.target_bits)


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
def test_family_roots_certify_at_the_first_rung(monkeypatch, kind):
    # Every root certifies with one Newton run from its model start, at
    # every decade of both signs and every width: the first rung runs at
    # target + (root magnitude bits) + 64 bits, below 2*(target + 64) for
    # every |t| <= 10^24; the second rung is at least that.
    calls, newton = [0], roots._newton

    def counting(*args):
        calls[0] += 1
        return newton(*args)

    monkeypatch.setattr(roots, "_newton", counting)
    for bits in (64, 192, 1024):
        pol = PrecisionPolicy(bits, 4 * bits)
        for t in (sign * 10 ** e for e in range(3, 25) for sign in (1, -1)):
            calls[0] = 0
            for r in refined_roots(_member(kind, t), pol):
                assert r.prec < 2 * (bits + 64), (bits, t, r)
            assert calls[0] == 3, (bits, t, calls[0])


_FAMILY_MEMBERS = [(kind, sign * 10 ** e) for kind in ("one_unit", "two_unit", "seed")
                   for e in range(3, 25) for sign in (1, -1)]


def test_isolation_err_bounds_the_distance_from_value_to_the_bracket():
    # _centred, which the bisection fallback returns: value is the midpoint
    # rounded once to nearest, err the radius about value rounded once up,
    # a true bound and within one rounding of tight
    for kind, t in _FAMILY_MEMBERS:
        for lo, hi in isolating_intervals(_member(kind, t)):
            value, err = (mpf_to_fraction(v) for v in roots._centred(lo, hi, 64))
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            assert abs(value - mid) <= abs(mid) / 2 ** 64, (kind, t, lo, hi)
            assert half + abs(value - mid) <= err <= (half + abs(value - mid)) * (1 + Fraction(1, 2 ** 63))


def test_refined_roots_ignore_the_ambient_precision():
    # no wrapper: the ambient precision is set as a caller might leave it
    def read(member):
        return [(r.lo, r.hi, mpf_to_fraction(r.value), mpf_to_fraction(r.err), r.prec)
                for r in refined_roots(_member(*member))]

    saved = mp.mp.prec
    try:
        mp.mp.prec = 53
        low = [read(m) for m in _FAMILY_MEMBERS]
        mp.mp.prec = 300
        high = [read(m) for m in _FAMILY_MEMBERS]
    finally:
        mp.mp.prec = saved
    assert low == high


def test_refined_roots_are_centred_on_their_windows():
    huge = [MonicCubic(0, -m * 10 ** e, c) for e, m, c in ((310, 1, 1), (400, 3, -5), (420, 9, 2))]
    huge += [MonicCubic(m * 10 ** e, 1, -1) for e, m in ((310, 1), (400, 3), (420, 9))]
    # (x-k)^2 (x-k+s*d) - s: two roots within 2^-20 of each other
    close = [MonicCubic(s * d - 3 * k, 3 * k * k - 2 * s * d * k, s * d * k * k - k ** 3 - s)
             for k, d, s in ((0, 2 ** 44, 1), (7, 2 ** 60, -1), (-10 ** 6, 2 ** 100, 1))]
    for f in [_member(kind, t) for kind, t in _FAMILY_MEMBERS] + huge + close:
        for r in refined_roots(f):
            assert r.err <= mp.ldexp(1, -DEFAULT_POLICY.target_bits)
            _assert_centred(r)


def test_a_root_beyond_float64_starts_the_integer_loop_at_the_bracket_midpoint(monkeypatch):
    # x^3 + 3*10^400 x^2 + x - 1: the model root near -3*10^400 overflows a
    # float64, so Newton starts from the exact split of the bracket, whose
    # ends are within a factor 4 of each other: its exact midpoint
    f = MonicCubic(3 * 10 ** 400, 1, -1)
    starts, newton = [], roots._newton

    def recording(f, x, q, bits, target):
        starts.append(Fraction(x, q))
        return newton(f, x, q, bits, target)

    monkeypatch.setattr(roots, "_newton", recording)
    lo, hi = isolating_intervals(f)[0]
    assert roots._model_start(f, lo, hi, sign_at(f, lo))[0] is None
    r = refine_root(f, lo, hi)
    assert starts == [roots._split(lo, hi)] == [(lo + hi) / 2]
    mag_bits = math.ceil(max(abs(lo), abs(hi))).bit_length()
    assert r.prec == next(DEFAULT_POLICY.ladder(start_extra=mag_bits + 64))
    assert r.lo < r.hi and sign_at(f, r.lo) != sign_at(f, r.hi)
    _assert_centred(r)


def test_the_bisection_fallback_is_centred_on_its_window(monkeypatch):
    # with no model start and Newton refused, bisection alone narrows each
    # isolating bracket (its separator ends are not dyadic) to 2^-15, and
    # err must bound the distance from the rounded midpoint value
    monkeypatch.setattr(roots, "_model_start", lambda f, lo, hi, slo, *values: (None, lo, hi))
    monkeypatch.setattr(roots, "_newton", lambda *args: None)
    pol = PrecisionPolicy(target_bits=16, max_bits=64)
    for f in (SEED, simplest_cubic(5), _member("two_unit", 10 ** 6)):
        for r in refined_roots(f, pol):
            assert r.hi - r.lo <= Fraction(2, 1 << 16)
            assert sign_at(f, r.lo) != sign_at(f, r.hi)
            _assert_centred(r)
