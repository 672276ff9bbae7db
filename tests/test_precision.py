"""precision.round_dyadic against libmp's own rounding to nearest.

The front stages compute on exact integer images and round each step
with round_dyadic, so each value has the bits of the mpmath operator it
replaces: mpf_pos (one rounding), mpf_mul (an exact product, rounded) and
mpf_add and mpf_sub (an exact sum, rounded). Widths run from 2 to 600
bits, operands up to 4096 bits with exponents of both signs, zero, and
exact ties.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, fzero, mpf_add, mpf_mul, mpf_pos, mpf_sub, round_nearest

from cubicunits.precision import round_dyadic

WIDTHS = st.integers(2, 600)
EXPONENTS = st.integers(-3000, 3000)
SIGNS = st.sampled_from((1, -1))


@st.composite
def mantissas(draw):
    """Zero, a small or a wide integer, or an exact tie at some width: the
    kept bits, a one and then zeros."""
    kind = draw(st.sampled_from(("zero", "small", "wide", "tie")))
    if kind == "zero":
        return 0
    if kind == "small":
        return draw(SIGNS) * draw(st.integers(1, 2 ** 64))
    if kind == "wide":
        return draw(SIGNS) * draw(st.integers(1, 2 ** 4096))
    kept = draw(st.integers(1, 2 ** draw(st.integers(1, 600))))
    return draw(SIGNS) * ((2 * kept + 1) << draw(st.integers(0, 64)))


def mpf(n: int, e: int):
    return from_man_exp(n, e)


def rounded(n: int, e: int, p: int):
    """round_dyadic's result as a raw mpf, checking that it is canonical:
    an odd mantissa of at most p bits, or 0."""
    m, x = round_dyadic(n, e, p)
    assert m == 0 or (m & 1 and abs(m).bit_length() <= p)
    return fzero if m == 0 else mpf(m, x)


@settings(max_examples=1500, deadline=None)
@given(mantissas(), EXPONENTS, WIDTHS)
@example(0, 5, 2)
@example(5, 0, 2)  # 101b: a tie, to the even 100b
@example(7, 0, 2)  # 111b: a tie, to the even 1000b, which carries
@example(-(2 ** 4096 - 1), -4096, 600)
def test_rounding_matches_mpf_pos(n, e, p):
    assert rounded(n, e, p) == mpf_pos(mpf(n, e), p, round_nearest)


@settings(max_examples=1500, deadline=None)
@given(mantissas(), EXPONENTS, mantissas(), EXPONENTS, WIDTHS)
def test_rounded_product_matches_mpf_mul(m, x, n, y, p):
    assert rounded(m * n, x + y, p) == mpf_mul(mpf(m, x), mpf(n, y), p, round_nearest)


def exact_sum(m: int, x: int, n: int, y: int, sign: int) -> tuple[int, int]:
    # m 2^x + sign n 2^y as an integer at the lesser exponent
    e = min(x, y)
    return (m << x - e) + sign * (n << y - e), e


def libmp_nudges_wide(s, t, p: int) -> bool:
    """Whether libmp's mpf_add replaces the smaller operand by a one-bit
    nudge below the larger one's last bit (their exponents more than 100
    apart, their magnitudes more than p + 4 bits) while the larger one has
    more than p bits: only there can its result differ from the exact sum
    rounded once. With the larger one at most p bits wide, every midpoint
    lies farther from it than the smaller one reaches."""
    (_, sm, se, sb), (_, tm, te, tb) = s, t
    if not (sm and tm):
        return False
    if se < te:
        (sm, se, sb), (tm, te, tb) = (tm, te, tb), (sm, se, sb)
    return se - te > 100 and sb + se - tb - te > p + 4 and sb > p


@settings(max_examples=3000, deadline=None)
@given(mantissas(), EXPONENTS, mantissas(), EXPONENTS, WIDTHS, st.sampled_from((1, -1)))
@example(3 << 100, -100, 1, -5000, 2, 1)  # far apart, the larger operand within p bits
def test_rounded_sum_matches_mpf_add_and_mpf_sub(m, x, n, y, p, sign):
    s, t = mpf(m, x), mpf(n, y)
    got = rounded(*exact_sum(m, x, n, y, sign), p)
    op = mpf_add if sign > 0 else mpf_sub
    # the exact sum or difference rounded once: libmp's operator gives it
    # except where it nudges a wide operand, and always on operands of at
    # most p bits, as every sum of the front stages has
    assert got == mpf_pos(op(s, t), p, round_nearest)
    if not libmp_nudges_wide(s, t, p):
        assert got == op(s, t, p, round_nearest)
    s, t = mpf_pos(s, p, round_nearest), mpf_pos(t, p, round_nearest)
    (_, sm, se, _), (_, tm, te, _) = s, t
    sm, tm = (-sm if s[0] else sm), (-tm if t[0] else tm)
    assert rounded(*exact_sum(sm, se, tm, te, sign), p) == op(s, t, p, round_nearest)


def test_libmp_shortcut_is_not_the_rounded_sum_for_a_wide_operand():
    # the larger operand has 1001 bits and lies 1 below a 53-bit midpoint
    # in its last place; the smaller one, 101 places below, is more than
    # that last place, so the exact sum rounds up, while libmp's one-bit
    # nudge keeps it below the midpoint. round_dyadic rounds the exact
    # sum, and the front stages add only operands already rounded to p
    # bits, where the two agree
    big = (((1 << 52) + 5) << 948) + (1 << 947) - 1
    s, t = mpf(big, 200), mpf((1 << 150) + 1, 99)
    got = rounded(*exact_sum(big, 200, (1 << 150) + 1, 99, 1), 53)
    assert libmp_nudges_wide(s, t, 53)
    assert got == mpf_pos(mpf_add(s, t), 53, round_nearest)
    assert got != mpf_add(s, t, 53, round_nearest)
