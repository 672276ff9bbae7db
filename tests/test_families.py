"""Family builders: admissibility, closed forms, and the perturbation identity."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicunits import (
    InternalInconsistencyError,
    InvalidParamsError,
    MonicCubic,
    OneUnitParams,
    TwoUnitParams,
    build_one_unit,
    build_two_unit,
    discriminant,
    eval_scaled,
    extend_seed,
    family_from_json,
    is_admissible_one_unit,
    is_admissible_two_unit,
    is_mutually_cubic_pair,
    poly_to_json,
    recipe_pairs,
    scale_root,
    simplest_cubic,
)

# ---------------------------------------------------------------------------
# congruence predicates
# ---------------------------------------------------------------------------


def test_mutually_cubic_frozen():
    assert is_mutually_cubic_pair(1, 1)
    assert is_mutually_cubic_pair(1, 5)
    assert is_mutually_cubic_pair(7, 2)
    assert is_mutually_cubic_pair(18, 7)
    assert is_mutually_cubic_pair(1, 0)  # modulus 0 falls back to equality
    assert not is_mutually_cubic_pair(2, 3)
    assert not is_mutually_cubic_pair(3, 2)
    assert not is_mutually_cubic_pair(4, 6)


def test_admissibility_frozen():
    assert is_admissible_one_unit(OneUnitParams(2, 1))
    assert is_admissible_one_unit(OneUnitParams(7, 2))
    # (3,2) needs both signs flipped
    assert not is_admissible_one_unit(OneUnitParams(3, 2))
    assert is_admissible_one_unit(OneUnitParams(3, 2, -1, -1))
    assert is_admissible_two_unit(TwoUnitParams(3, 1, 2, 1))
    assert is_admissible_two_unit(TwoUnitParams(7, 2, 3, 1))


def test_param_validation():
    with pytest.raises(InvalidParamsError):
        OneUnitParams(0, 1)
    with pytest.raises(InvalidParamsError):
        OneUnitParams(4, 2)  # gcd 2
    with pytest.raises(InvalidParamsError):
        OneUnitParams(2, 1, eps1=3)
    with pytest.raises(InvalidParamsError):
        TwoUnitParams(1, 1, 1, 1)  # ad-bc = 0
    with pytest.raises(InvalidParamsError):
        TwoUnitParams(3, 1, 0, 1)
    # legal ones construct fine
    TwoUnitParams(5, 2, 2, 1)
    TwoUnitParams(3, 1, 2, 1)


def test_builders_reject_inadmissible():
    with pytest.raises(InvalidParamsError):
        build_one_unit(OneUnitParams(3, 2), t=5)
    with pytest.raises(InvalidParamsError):
        build_two_unit(TwoUnitParams(2, 1, 3, 2, 1, 1), t=5)  # 2^3 != 1 mod 3


# ---------------------------------------------------------------------------
# closed forms, frozen
# ---------------------------------------------------------------------------


def test_one_unit_frozen():
    f = build_one_unit(OneUnitParams(2, 1), t=7)
    assert f == MonicCubic(38, -21, 1)
    assert eval_scaled(f, 1, 2) == 1
    assert f.p0 == 1


def test_two_unit_frozen():
    f = build_two_unit(TwoUnitParams(3, 1, 2, 1), t=9)
    assert f == MonicCubic(54, -45, 9)
    assert eval_scaled(f, 1, 3) == 1
    assert eval_scaled(f, 1, 2) == 1


def test_two_unit_linear_in_t():
    # (3,1,2,1) family: x^3 + 6t x^2 - 5t x + t
    for t in (1, 2, 100, -4, 10 ** 15):
        f = build_two_unit(TwoUnitParams(3, 1, 2, 1), t)
        assert f == MonicCubic(6 * t, -5 * t, t)


def test_one_unit_a1_recipe_identity():
    # a=1: f(x) = x(x - b)(x + s) + 1 where s is the raw parameter
    for b in (1, 2, 5, -3):
        for s in (0, 1, 7, -2, 10 ** 9):
            f = build_one_unit(OneUnitParams(1, b), s)
            expanded = MonicCubic(s - b, -s * b, 1)
            assert f == expanded


def test_simplest_cubic_frozen():
    assert simplest_cubic(1) == MonicCubic(-1, -4, -1)
    assert discriminant(simplest_cubic(1)) == 169
    # discriminant is the square of t^2 + 3t + 9
    for t in (2, 10, 1000):
        assert discriminant(simplest_cubic(t)) == (t * t + 3 * t + 9) ** 2


def decreasing_order_member(t: int, n: int) -> MonicCubic:
    # x^3 + t (2^n x - 1) (2^(n-1) x - 1): the seed kind with h = x^3
    return extend_seed(MonicCubic(0, 0, 0), 2 ** n, 1, 2 ** (n - 1), 1, t)


def test_decreasing_order_scale_identity():
    # doubling the root sends the (t, n) member to the (8t, n-1) member,
    # which drives the shrinking-order escape construction
    for t in (1, 3, 50):
        for n in (2, 3, 6):
            g = scale_root(decreasing_order_member(t, n), 2)
            assert g == decreasing_order_member(8 * t, n - 1)


def test_extend_seed_errors():
    h = MonicCubic(0, -3, -1)
    with pytest.raises(InvalidParamsError):
        extend_seed(h, 2, 4, 1, 1, 5)
    with pytest.raises(InvalidParamsError):
        extend_seed(h, 1, 2, 2, 4, 5)  # proportional rows


# ---------------------------------------------------------------------------
# recipes
# ---------------------------------------------------------------------------


def test_recipe_pairs_frozen():
    assert recipe_pairs("one_b", 9) == (1, 9)
    assert recipe_pairs("b2b1", 2) == (7, 2)
    assert recipe_pairs("one_minus_b", 3) == (-2, 3)
    assert recipe_pairs("square_cube", 2) == (4, 9)
    with pytest.raises(InvalidParamsError):
        recipe_pairs("one_b", 0)
    with pytest.raises(InvalidParamsError):
        recipe_pairs("one_minus_b", 1)
    with pytest.raises(InvalidParamsError):
        recipe_pairs("nonsense", 2)


@given(st.sampled_from(["one_b", "b2b1", "one_minus_b", "square_cube"]),
       st.integers(min_value=-40, max_value=40))
def test_recipe_pairs_satisfy_congruences(kind, param):
    try:
        a, b = recipe_pairs(kind, param)
    except InvalidParamsError:
        return
    assert is_mutually_cubic_pair(a, b)


# ---------------------------------------------------------------------------
# perturbation structure, property-tested
# ---------------------------------------------------------------------------


def admissible_one_unit_params(a, b):
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            p = OneUnitParams(a, b, e1, e2)
            if is_admissible_one_unit(p):
                out.append(p)
    return out


@settings(max_examples=150)
@given(st.sampled_from(["one_b", "b2b1", "one_minus_b", "square_cube"]),
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_one_unit_designed_evaluations(kind, param, t):
    try:
        a, b = recipe_pairs(kind, param)
    except InvalidParamsError:
        return
    params = admissible_one_unit_params(a, b)
    assert params, f"no sign choice admissible for {(a, b)}"
    for p in params:
        f = build_one_unit(p, t)
        assert eval_scaled(f, p.b, p.a) == p.eps1
        assert f.p0 == p.eps2
        # t only moves the cubic along x*(a x - b)
        assert f == extend_seed(build_one_unit(p, 0), p.a, p.b, 1, 0, t)


def two_unit_cases():
    cases = []
    for b in (1, 2, 3, 5):
        cases.append(TwoUnitParams(b * b + b + 1, b, b + 1, 1))
    for c in (1, 2, 3):
        cases.append(TwoUnitParams(c ** 3 + 1, c * c, c, 1))
    return cases


@settings(max_examples=80)
@given(st.sampled_from(two_unit_cases()),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6))
def test_two_unit_designed_evaluations(p, t):
    f = build_two_unit(p, t)
    assert eval_scaled(f, p.b, p.a) == p.eps1
    assert eval_scaled(f, p.d, p.c) == p.eps2
    assert f == extend_seed(build_two_unit(p, 0), p.a, p.b, p.c, p.d, t)
    # the two designed values really are units of the right shape
    assert abs(Fraction(p.a) ** 3 * (Fraction(p.b, p.a) ** 3
               + f.p2 * Fraction(p.b, p.a) ** 2
               + f.p1 * Fraction(p.b, p.a) + f.p0)) == 1


@given(st.integers(min_value=-10 ** 3, max_value=10 ** 3),
       st.integers(min_value=-10 ** 3, max_value=10 ** 3))
def test_difference_of_members_factors(t1, t2):
    p = TwoUnitParams(3, 1, 2, 1)
    f1, f2 = build_two_unit(p, t1), build_two_unit(p, t2)
    dt = t1 - t2
    assert f1.p2 - f2.p2 == dt * p.a * p.c
    assert f1.p1 - f2.p1 == -dt * (p.a * p.d + p.b * p.c)
    assert f1.p0 - f2.p0 == dt * p.b * p.d


# ---------------------------------------------------------------------------
# descriptors
# ---------------------------------------------------------------------------


def test_family_json_roundtrip_one_unit():
    p = OneUnitParams(7, 2, 1, 1)
    t = 10 ** 24
    blob = json.dumps({"kind": "one_unit", "a": "7", "b": "2", "eps1": 1, "eps2": 1, "t": str(t)})
    p2, t2, f = family_from_json(blob)
    assert p2 == p and t2 == t
    assert f == build_one_unit(p, t)


def test_family_json_roundtrip_two_unit():
    p = TwoUnitParams(3, 1, 2, 1, 1, 1)
    blob = json.dumps({"kind": "two_unit", "a": "3", "b": "1", "c": "2", "d": "1",
                       "eps1": 1, "eps2": 1, "t": "12"})
    p2, t2, f = family_from_json(blob)
    assert p2 == p and t2 == 12
    assert f == MonicCubic(72, -60, 12)


def test_family_json_roundtrip_seed():
    h = MonicCubic(0, -3, -1)
    blob = json.dumps({"kind": "seed", "h": json.loads(poly_to_json(h)),
                       "a": "1", "b": "0", "c": "1", "d": "-1", "t": "5"})
    (h2, abcd), t, f = family_from_json(blob)
    assert h2 == h and abcd == (1, 0, 1, -1) and t == 5
    assert f == extend_seed(h, 1, 0, 1, -1, 5)
    assert f == simplest_cubic(-5)


def test_family_json_rejects_unknown_kind():
    with pytest.raises(InvalidParamsError):
        family_from_json('{"kind": "quartic", "t": "1"}')
