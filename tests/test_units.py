"""Unit vetting, log embeddings, regulators, and Cusick certification."""

import copy
import json
import math
import pickle
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from cubicunits import (
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    LogVector,
    MonicCubic,
    OneUnitParams,
    OutOfRegimeError,
    PrecisionExhaustedError,
    PrecisionPolicy,
    RegulatorReport,
    build_one_unit,
    build_order,
    certify_fundamental,
    log_embed,
    relative_regulator_with_error,
    report_to_json,
    shape_from_units,
    simplest_cubic,
)

from cubicunits import units
from cubicunits.cubics import sign_at
from cubicunits.precision import below, float_above, greater, mpf_to_fraction, up

from .oracles import bounds, roots_oracle


def simplest_order(t):
    # theta and theta + 1 are both units of the simplest-cubic order
    return build_order(simplest_cubic(t), [(1, 0), (1, -1)])


def test_build_order_vets_candidates():
    order = build_order(simplest_cubic(5), [(1, 0), (0, 1), (2, 4), (1, 1), (1, -1), (1, 0)])
    assert order.units == ((1, 0), (1, -1))
    reasons = dict(order.dropped)
    assert "a=0" in reasons[(0, 1)]
    assert "gcd" in reasons[(2, 4)]
    assert "norm=13" in reasons[(1, 1)]
    assert order.disc == (25 + 15 + 9) ** 2


def test_build_order_domain_errors():
    with pytest.raises(DomainError):
        build_order(MonicCubic(0, 0, -2), [(1, 0)])  # one real root
    with pytest.raises(DomainError):
        build_order(MonicCubic(0, -1, 0), [(1, 0)])  # reducible


@pytest.mark.parametrize("t, climbs", [(10 ** 6, [32] * 3), (10 ** 12, [32] * 3 + [64] * 3)])
def test_log_embed_climbs_the_ladder_from_the_narrowed_windows(monkeypatch, t, climbs):
    # At 16 bits each root's err is 2^-16, and |theta_i - 1| (or |theta_i|)
    # is about 1/t at one root: the log needs 256 err below it, so
    # log_embed re-refines all three roots from their certified windows,
    # at 32 bits for t = 10^6 and at 32 and then 64 for t = 10^12
    f = build_one_unit(OneUnitParams(1, 1), t)
    order = build_order(f, [(1, 1), (1, 0)], PrecisionPolicy(16, 4096))
    exact = build_order(f, [(1, 1), (1, 0)], PrecisionPolicy(384, 4096))
    refined, refine = [], units.refine_root

    def recording(f, lo, hi, pol):
        r = refine(f, lo, hi, pol)
        refined.append((pol.target_bits, lo, hi, r))
        return r

    monkeypatch.setattr(units, "refine_root", recording)
    for a, b in order.units:
        refined.clear()
        v = log_embed(order, a, b)
        assert [target for target, *_ in refined] == climbs
        for target, lo, hi, r in refined:
            value, err = mpf_to_fraction(r.value), mpf_to_fraction(r.err)
            assert lo <= r.lo <= r.hi <= hi and err <= Fraction(1, 1 << target)
            assert value - err <= r.lo <= r.hi <= value + err
            assert r.lo == r.hi or sign_at(f, r.lo) * sign_at(f, r.hi) < 0
        w = log_embed(exact, a, b)
        for x, y in zip(v.coords, w.coords):
            assert abs(mpf_to_fraction(x) - mpf_to_fraction(y)) <= mpf_to_fraction(v.err) + mpf_to_fraction(w.err)


@pytest.mark.parametrize("max_bits, climbs", [(100, [100] * 3), (87, [87] * 3)])
def test_log_embed_climbs_to_max_bits_itself(monkeypatch, max_bits, climbs):
    # one_unit (1, 1) at t = 10^24: the logs need a rung above 87.7 bits.
    # The ladder of PrecisionPolicy(64, max_bits) is 64, max_bits, so its
    # last rung decides at 100 bits and raises at 87, naming the rung it
    # tried
    f = build_one_unit(OneUnitParams(1, 1), 10 ** 24)
    order = build_order(f, [(1, 1), (1, 0)], PrecisionPolicy(64, max_bits))
    refined, refine = [], units.refine_root
    monkeypatch.setattr(units, "refine_root",
                        lambda f, lo, hi, pol: refined.append(pol.target_bits) or refine(f, lo, hi, pol))
    for a, b in order.units:
        refined.clear()
        if max_bits == 100:
            log_embed(order, a, b)
        else:
            with pytest.raises(PrecisionExhaustedError, match=f"from 0 at {max_bits} bits$"):
                log_embed(order, a, b)
        assert refined == climbs


def test_log_vector_trace_zero_guard():
    LogVector(mp.mpf(1), mp.mpf(1), mp.mpf(-2), mp.mpf(1e-30))
    with pytest.raises(InvalidParamsError):
        LogVector(mp.mpf(1), mp.mpf(1), mp.mpf(1), mp.mpf(1e-30))


@pytest.mark.parametrize("ambient", [16, 20])
def test_log_vector_trace_check_charges_its_own_sum(ambient):
    # one_unit (1, 1) at t = 10^12: v1's coordinates are 192-bit values up to
    # about 28 in size, and their sum rounded at 16 or 20 bits would be off
    # by far more than 3 err or 2^-24 max|x_i|; the check sums them exactly,
    # whatever the ambient precision, and an off-plane sum still raises
    order = build_order(build_one_unit(OneUnitParams(1, 1), 10 ** 12), [(1, 1), (1, 0)])
    v1 = log_embed(order, *order.units[0])
    with mp.workprec(ambient):
        assert LogVector(v1.x1, v1.x2, v1.x3, v1.err).coords == v1.coords
        with pytest.raises(InvalidParamsError, match="coordinates sum to"):
            LogVector(v1.x1 + 1, v1.x2, v1.x3, v1.err)


def test_log_embed_basics():
    order = simplest_order(1000)
    v = log_embed(order, 1, 0)
    with mp.workprec(300):
        assert abs(sum(v.coords)) <= 3 * v.err + mp.ldexp(1, -150)
    assert v.err < mp.mpf("1e-40")
    # |theta_max| ~ t+1, so the largest coordinate is ~ log(1001)
    assert abs(max(v.coords) - mp.log(1001)) < 0.01
    with pytest.raises(InvalidParamsError):
        log_embed(order, 1, 1)  # norm 13, not a unit
    with pytest.raises(InvalidParamsError):
        log_embed(order, 0, 1)


def test_log_vector_arithmetic():
    order = simplest_order(1000)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    s = v1 + v2
    assert [mpf_to_fraction(x) for x in s.coords] == [
        mpf_to_fraction(x) + mpf_to_fraction(y) for x, y in zip(v1.coords, v2.coords)]
    assert bounds(s.err, Fraction(v1.err) + Fraction(v2.err))
    n = -v1
    assert [mpf_to_fraction(x) for x in n.coords] == [-mpf_to_fraction(x) for x in v1.coords]
    assert n.err == v1.err
    d = v1.scaled(3) - v1
    assert [mpf_to_fraction(x) for x in d.coords] == [2 * mpf_to_fraction(x) for x in v1.coords]
    assert bounds(d.err, 4 * Fraction(v1.err))
    # a vector is immutable, and pickle and copy give it back equal
    with pytest.raises(AttributeError):
        v1.err = 0.0
    assert pickle.loads(pickle.dumps(v1)) == copy.deepcopy(v1) == v1 != v2


@pytest.mark.parametrize("ambient", [16, 53, 300])
def test_log_vector_arithmetic_is_exact_at_any_ambient_precision(ambient):
    # +, -, negation and scaled(c) for an int, float or mpf c round no
    # coordinate, whatever the ambient precision, and round err outward to
    # a float within a relative 2^-40 of its exact value; the 200+-bit
    # coordinates of log_embed keep every bit
    order = simplest_order(1000)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    exact = [[mpf_to_fraction(x) for x in v.coords] + [Fraction(v.err)] for v in (v1, v2)]
    c = mp.mpf("0.1")  # a 53-bit mpf
    saved = mp.mp.prec
    mp.mp.prec = ambient
    try:
        got = [v1 + v2, v1 - v2, -v1, v1.scaled(3), v1.scaled(-0.5), v1.scaled(c)]
    finally:
        mp.mp.prec = saved
    (x, e), (y, f) = (([*q[:3]], q[3]) for q in exact)
    cf = mpf_to_fraction(c)
    want = [([a + b for a, b in zip(x, y)], e + f), ([a - b for a, b in zip(x, y)], e + f),
            ([-a for a in x], e), ([3 * a for a in x], 3 * e),
            ([-a / 2 for a in x], e / 2), ([cf * a for a in x], cf * e)]
    for v, (coords, err) in zip(got, want):
        assert [mpf_to_fraction(a) for a in v.coords] == coords
        assert bounds(v.err, err)


def test_a_nonzero_error_bound_never_becomes_zero():
    # the least float, 2^-1074, stays nonzero through + and scaled(c) for
    # c far below 1, and log_embed and the shape keep a nonzero bound at
    # 4096 bits, where the roots' errors are far below the float range
    tiny = 5e-324
    assert tiny == 2.0 ** -1074
    v = LogVector(mp.mpf(1), mp.mpf(2), mp.mpf(-3), tiny)
    for w in (v + v, v - v, -v, v.scaled(1), v.scaled(mp.mpf(1) / 3), v.scaled(2.0 ** -900), v.scaled(0.5)):
        assert w.err > 0
    order = build_order(build_one_unit(OneUnitParams(1, 1), 10 ** 12), [(1, 1), (1, 0)],
                        PrecisionPolicy(4096, 4096))
    v1, v2 = (log_embed(order, *u) for u in order.units[:2])
    assert min(r.prec for r in order.roots) >= 4096
    assert 0 < v1.err < 2.0 ** -1000 and 0 < v2.err < 2.0 ** -1000  # near the floor
    sp = shape_from_units(v1, v2, 4096)
    assert sp.radius > 0
    reg, err = relative_regulator_with_error(v1, v2, 4096)
    assert err > 0


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0, max_value=1e290), st.floats(min_value=0, max_value=1e290),
       st.sampled_from([1, 3, -2, 0.1, mp.mpf(1) / 3, 2.0 ** -1000, 1e10]))
def test_log_vector_error_bounds_round_outward(e, f, c):
    # (a + b).err >= a.err + b.err and |c| err <= a.scaled(c).err, exactly,
    # over the whole float range, subnormals included
    a = LogVector(mp.mpf(1), mp.mpf(2), mp.mpf(-3), e)
    b = LogVector(mp.mpf(-2), mp.mpf(5), mp.mpf(-3), f)
    for s in (a + b, a - b, b - a):
        assert Fraction(s.err) >= Fraction(e) + Fraction(f)
    assert Fraction(a.scaled(c).err) >= abs(mpf_to_fraction(c)) * Fraction(e)
    assert (-a).err == e


@settings(max_examples=1000, deadline=None)
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(-1400, 900),
       st.floats(allow_nan=False, allow_infinity=False))
def test_float_bounds_of_an_mpf_are_exact_where_they_must_be(man, exp, r):
    # float_above and below bracket the exact value, within two ulps where
    # the result is a normal float, and greater compares a dyadic with a
    # float exactly, subnormals included
    x = from_man_exp(man, exp)
    q = Fraction(man) * Fraction(2) ** exp
    hi, lo = float_above(x), below(abs(man), exp)
    if hi == math.inf:  # past the float range
        assert q > Fraction(sys.float_info.max)
    else:
        assert Fraction(hi) >= q
        if 2.0 ** -1022 <= abs(hi) < sys.float_info.max:  # a normal float within the range
            assert abs(Fraction(hi) - q) <= abs(q) * Fraction(1, 2 ** 51)
    assert 0 <= Fraction(lo) <= abs(q)
    assert greater(man, exp, r) == (q > Fraction(r))
    assert up(r) > r


def test_relative_regulator_frozen_t1000():
    order = simplest_order(1000)
    assert order.disc == 1006027054081
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    reg, err = relative_regulator_with_error(v1, v2, 200)
    assert abs(reg - mp.mpf("47.7378195596830792436")) < mp.mpf("1e-12")
    assert err < mp.mpf("1e-30")


def test_relative_regulator_matches_root_oracle():
    for t in (7, 100, 12345):
        f = simplest_cubic(t)
        order = build_order(f, [(1, 0), (1, -1)])
        v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
        reg = relative_regulator_with_error(v1, v2, 260)[0]
        with mp.workprec(260):
            rts = sorted(r.real for r in roots_oracle(f.p2, f.p1, f.p0))
            x = [mp.log(abs(r)) for r in rts]
            y = [mp.log(abs(r + 1)) for r in rts]
            det = abs(x[0] * y[1] - x[1] * y[0])
            assert abs(reg - det) < mp.mpf("1e-30")


def test_dependent_units_detected():
    order = simplest_order(50)
    v1 = log_embed(order, 1, 0)
    with pytest.raises(DependentUnitsError):
        relative_regulator_with_error(v1, v1, 53)[0]
    # -theta has the same absolute values, hence a dependent log vector
    vneg = log_embed(order, -1, 0)
    with pytest.raises(DependentUnitsError):
        relative_regulator_with_error(v1, vneg, 53)[0]


def test_certify_fundamental_frozen():
    order = simplest_order(1000)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    reg, err = relative_regulator_with_error(v1, v2, 200)
    rep = certify_fundamental(reg, order.disc, err)
    assert rep.certified
    assert abs(rep.cusick_ratio - mp.mpf("0.0692754920485553726")) < mp.mpf("1e-12")


def test_certify_fundamental_boundaries():
    disc = 10 ** 12
    with mp.workprec(200):
        L2 = mp.log(mp.mpf(disc) / 4) ** 2
    # comfortably under 1/8: certified
    assert certify_fundamental(mp.mpf("0.112") * L2, disc).certified
    # between 1/8 - margin and 1/8: inconclusive, not an error
    rep = certify_fundamental((mp.mpf(1) / 8 - mp.ldexp(1, -40)) * L2, disc)
    assert not rep.certified
    # over 1/8: inconclusive
    assert not certify_fundamental(mp.mpf("0.2") * L2, disc).certified


def test_certify_fundamental_guards():
    with pytest.raises(OutOfRegimeError):
        certify_fundamental(mp.mpf(1), 16)
    with pytest.raises(InvalidParamsError):
        certify_fundamental(mp.mpf(0), 81)


def test_regulator_report_self_check():
    with pytest.raises(InternalInconsistencyError):
        RegulatorReport(mp.mpf(1), mp.mpf("0.2"), True)


def test_report_to_json():
    rep = certify_fundamental(mp.mpf("1.5"), 10 ** 9)
    d = json.loads(report_to_json(rep))
    assert set(d) == {"rel_reg", "cusick_ratio", "certified", "margin_bits"}
    assert d["certified"] is True
    assert d["rel_reg"].startswith("1.5")


def test_report_to_json_prints_the_digits_its_bounds_back():
    # an error of 1e-6 on 1.5 is a relative 6.7e-7, so 5 digits, whose last
    # unit 1e-4 holds the error up to 2/5 of it; the ratio's relative error
    # is the same, and with no error every value gets all 40 digits
    rep = certify_fundamental(mp.mpf(1.5), 10 ** 9, 1e-6)
    assert rep.rel_reg_err == 1e-6 and rep.ratio_err > 0
    d = json.loads(report_to_json(rep))
    assert d["rel_reg"] == "1.5000" and len(d["cusick_ratio"].lstrip("0.")) == 5
    d = json.loads(report_to_json(units.RegulatorReport(mp.mpf(1.5), mp.mpf(0.03125), False)))
    assert d["rel_reg"] == "1." + "5" + "0" * 38 and d["cusick_ratio"].startswith("0.03125000")


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1000, max_value=10 ** 5))
def test_simplest_cubic_pairs_certify(t):
    order = simplest_order(t)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    reg, err = relative_regulator_with_error(v1, v2, 200)
    assert certify_fundamental(reg, order.disc, err).certified


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=50),
       st.integers(min_value=10 ** 3, max_value=10 ** 6))
def test_one_unit_members_give_independent_units(b, t):
    p = OneUnitParams(1, b)
    f = build_one_unit(p, t)
    order = build_order(f, [(1, b), (1, 0)])
    if len(order.units) < 2:
        return  # reducible-adjacent corner; build_order explains in dropped
    v1 = log_embed(order, 1, b)
    v2 = log_embed(order, 1, 0)
    reg = relative_regulator_with_error(v1, v2, 200)[0]
    assert reg > 0
