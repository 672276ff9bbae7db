"""Unit vetting, log embeddings, regulators, and Cusick certification."""

import json

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicunits import (
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    LogVector,
    MonicCubic,
    OneUnitParams,
    OutOfRegimeError,
    RegulatorReport,
    build_one_unit,
    build_order,
    certify_fundamental,
    log_embed,
    relative_regulator_with_error,
    report_to_json,
    simplest_cubic,
)

from .oracles import roots_oracle


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


def test_log_vector_trace_zero_guard():
    LogVector(mp.mpf(1), mp.mpf(1), mp.mpf(-2), mp.mpf(1e-30))
    with pytest.raises(InvalidParamsError):
        LogVector(mp.mpf(1), mp.mpf(1), mp.mpf(1), mp.mpf(1e-30))


@pytest.mark.parametrize("ambient", [16, 20])
def test_log_vector_trace_check_charges_its_own_sum(ambient):
    # one_unit (1, 1) at t = 10^12: v1's coordinates are 192-bit values up to
    # about 28 in size, and their sum rounded at 16 or 20 bits is off by far
    # more than 3 err or 2^-24 max|x_i|, but within what its two roundings
    # can move it; an off-plane sum beyond that still raises
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


def test_log_embed_is_memoised_per_order():
    order = simplest_order(1000)
    v = log_embed(order, 1, 0)
    assert log_embed(order, 1, 0) is v
    # the memo holds what a fresh order computes at any ambient precision
    fresh = simplest_order(1000)
    with mp.workprec(30):
        w = log_embed(fresh, 1, 0)
    assert w is not v and w == v
    assert fresh == order  # the memo takes no part in comparing orders
    with pytest.raises(InvalidParamsError):
        log_embed(order, 1, 1)  # failures are not memoised as results


def test_log_vector_arithmetic():
    order = simplest_order(1000)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    with mp.workprec(300):
        s = v1 + v2
        assert abs(s.x1 - (v1.x1 + v2.x1)) == 0
        # err grows by the errs plus the ambient rounding slack, nothing more
        assert v1.err + v2.err <= s.err <= v1.err + v2.err + mp.ldexp(1, -280)
        n = -v1
        assert n.x3 == -v1.x3 and v1.err <= n.err <= v1.err + mp.ldexp(1, -280)
        d = v1.scaled(3) - v1
        assert abs(d.x2 - 2 * v1.x2) <= mp.ldexp(1, -100)


def test_log_vector_low_precision_ops_fatten_err():
    # at 53-bit ambient precision the stored 200+-bit coords get rounded;
    # the error bound must absorb that instead of silently lying
    order = simplest_order(1000)
    v1 = log_embed(order, 1, 0)
    doubled = v1.scaled(2)
    assert doubled.err > mp.ldexp(1, -55)
    with mp.workprec(300):
        true_gap = abs(doubled.x1 - 2 * v1.x1)
    assert true_gap <= doubled.err


def test_relative_regulator_frozen_t1000():
    order = simplest_order(1000)
    assert order.disc == 1006027054081
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    with mp.workprec(200):
        reg, err = relative_regulator_with_error(v1, v2)
        assert abs(reg - mp.mpf("47.7378195596830792436")) < mp.mpf("1e-12")
        assert err < mp.mpf("1e-30")


def test_relative_regulator_matches_root_oracle():
    for t in (7, 100, 12345):
        f = simplest_cubic(t)
        order = build_order(f, [(1, 0), (1, -1)])
        v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
        with mp.workprec(260):
            reg = relative_regulator_with_error(v1, v2)[0]
            rts = sorted(r.real for r in roots_oracle(f.p2, f.p1, f.p0))
            x = [mp.log(abs(r)) for r in rts]
            y = [mp.log(abs(r + 1)) for r in rts]
            det = abs(x[0] * y[1] - x[1] * y[0])
            assert abs(reg - det) < mp.mpf("1e-30")


def test_dependent_units_detected():
    order = simplest_order(50)
    v1 = log_embed(order, 1, 0)
    with pytest.raises(DependentUnitsError):
        relative_regulator_with_error(v1, v1)[0]
    # -theta has the same absolute values, hence a dependent log vector
    vneg = log_embed(order, -1, 0)
    with pytest.raises(DependentUnitsError):
        relative_regulator_with_error(v1, vneg)[0]


def test_certify_fundamental_frozen():
    order = simplest_order(1000)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    with mp.workprec(200):
        reg, err = relative_regulator_with_error(v1, v2)
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


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1000, max_value=10 ** 5))
def test_simplest_cubic_pairs_certify(t):
    order = simplest_order(t)
    v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
    with mp.workprec(200):
        reg, err = relative_regulator_with_error(v1, v2)
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
    with mp.workprec(200):
        reg = relative_regulator_with_error(v1, v2)[0]
    assert reg > 0
