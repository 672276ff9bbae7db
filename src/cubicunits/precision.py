"""Precision policy, the CSV rows' named width, exact readings of mpf, int
and float values as dyadic rationals, the rounding of a dyadic to p bits,
correctly rounded roots of rationals, and the float64 error bounds'
outward rounding. A dyadic pair (m, x) is m 2^x: round_dyadic rounds one
to p bits, round_sum the sum of two, aligned puts pairs at their least
exponent, and dyadic_to_mpf makes one an mpf, exactly."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from .errors import InvalidParamsError

__all__ = ["PrecisionPolicy", "DEFAULT_POLICY"]

# The width, in bits, of the row columns that have always been computed at
# mpmath's default 53 bits: rel_reg and cusick_ratio, the simplex and the
# hexagon behind ceil_w, tight_r and the mass grid, and the 17 digits every
# numeric cell prints. Every stage takes its width as an argument, and the
# pipeline passes this one for those columns. It stays 53 because the
# benchmark's stored reference pins every byte of those columns, and a
# wider simplex moves some of them; raising it to the order's bits waits
# for a change that records the reference again.
ROW_BITS = 53


@dataclass(frozen=True)
class PrecisionPolicy:
    """Escalation ladder: start at target_bits, double until max_bits."""

    target_bits: int = 192
    max_bits: int = 4096

    def __post_init__(self):
        if self.target_bits < 8 or self.target_bits > self.max_bits:
            raise InvalidParamsError(f"need 8 <= target_bits <= max_bits, got {self}")

    def ladder(self, start_extra: int = 0):
        bits = self.target_bits + start_extra
        while True:
            yield min(bits, self.max_bits + start_extra)
            if bits >= self.max_bits + start_extra:
                return
            bits *= 2


DEFAULT_POLICY = PrecisionPolicy()


def dyadic(values) -> tuple[list[int], int]:
    """(ints, e) with values[i] = ints[i] * 2^e exactly, e the least 2-adic
    valuation among the nonzero values; each value is a finite mpf, int or
    float. An mpf is read from its own sign, mantissa and exponent, an int
    as itself times 2^0 and a float from its exact integer ratio, so no
    value is rounded and no precision plays a part (a raw mpf tuple too);
    each is written m 2^x with m odd (or 0), and m is shifted left by x -
    e. A non-finite value raises InvalidParamsError."""
    parts = []
    for v in values:
        if isinstance(v, float):
            if not math.isfinite(v):
                raise InvalidParamsError(f"cannot read {v} as a dyadic rational")
            m, d = v.as_integer_ratio()  # d is a power of two
            x = 1 - d.bit_length()
        elif isinstance(v, int):
            m, x = v, 0
        else:
            sign, m, x, bc = v if type(v) is tuple else v._mpf_
            if not m and bc:  # inf and nan carry a zero mantissa
                raise InvalidParamsError(f"cannot read {v} as a dyadic rational")
            m = -m if sign else m
        if m:  # strip m's trailing zero bits (an mpf's mantissa has none)
            z = (m & -m).bit_length() - 1
            m, x = m >> z, x + z
        parts.append((m, x))
    e = min((x for m, x in parts if m), default=0)
    return [m << (x - e) if m else 0 for m, x in parts], e


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf, int or float, read by `dyadic`."""
    (m,), e = dyadic([x])
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def fraction_to_mpf(q: Fraction | int, prec: int) -> mp.mpf:
    """q rounded once to prec bits, to nearest."""
    q = Fraction(q)
    return mp.make_mpf(from_rational(q.numerator, q.denominator, prec, round_nearest))


def _icbrt(n: int) -> int:
    # floor(n^(1/3)) for n > 0: Newton's iteration on integers decreases to
    # it from any start above the root and stops there. The start is the
    # float cube root of n's leading bits m = n >> 3s (m < 2^903), raised by
    # a relative 2^-30, which covers the float's error, and by 2 >
    # cbrt(m + 1) - cbrt(m), so it lies above cbrt(n) < cbrt(m + 1) 2^s
    s = max(0, n.bit_length() - 900) // 3
    x = (int((n >> 3 * s) ** (1 / 3) * (1 + 2.0 ** -30)) + 2) << s
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            return x
        x = y


def rational_root(num: int, den: int, degree: int, prec: int):
    """(num / den)^(1/degree) for integers num, den > 0 and degree 2 or 6,
    correctly rounded at prec bits (to nearest), as a raw mpf. Its floor at
    k fraction bits, from isqrt (and _icbrt for the sixth root), has prec +
    4 bits or more and is exact on integers, and a sticky bit marks it
    inexact, so its one rounding is correct."""
    k = max(0, prec + 4 - (num.bit_length() - den.bit_length()) // degree)
    num <<= degree * k
    s = math.isqrt(num // den)  # floor((num / den)^(1/2))
    if degree == 6:
        s = _icbrt(s)  # floor((num / den)^(1/6))
    return from_man_exp(2 * s + (s ** degree * den != num), -k - 1, prec, round_nearest)


# Every error bound of the front stages is a float64 upper bound, the
# radius of a ball about its value (van der Hoeven, "Ball arithmetic",
# 2009). Each float step rounds to nearest, and `up` moves its result to
# the next float: that lies above the step's exact result, also where the
# result is subnormal or underflows to 0, so a nonzero bound never becomes
# 0 and the least one is 2^-1074. Above about 1000 bits the bounds stay
# near that floor: sound, but looser than the values' own precision.
_INF = math.inf
_NORMAL = sys.float_info.min  # 2^-1022: below it a float step can round by a whole ulp
_nextafter = math.nextafter


def up(x: float) -> float:
    """The float after x, which lies above the exact result of any float
    operation that rounded to nearest to x."""
    return _nextafter(x, _INF)


def down(x: float) -> float:
    """The float before x: up's mirror."""
    return _nextafter(x, -_INF)


def above(n: int, e: int = 0) -> float:
    """A float64 at or above the dyadic n 2^e: its 53 leading bits,
    rounded toward +inf, are exact as a normal float, and a subnormal one
    goes to the next float; past the float range, inf (or the least
    float, for n < 0). It depends on the value alone."""
    s = n.bit_length() - 53
    if s > 0:
        n, e = -(-n >> s), e + s
    try:
        v = math.ldexp(n, e)
    except OverflowError:
        return -sys.float_info.max if n < 0 else _INF
    return v if not n or abs(v) >= _NORMAL else up(v)


def float_above(x) -> float:
    """`above` for the finite raw mpf tuple x (0 for 0)."""
    sign, man, exp, _ = x
    return above(-man if sign else man, exp)


def below(n: int, e: int = 0) -> float:
    """A float64 at or below the dyadic n 2^e >= 0, and at least 0:
    above's mirror, its 53 leading bits truncated."""
    s = n.bit_length() - 53
    if s > 0:
        n, e = n >> s, e + s
    try:
        v = math.ldexp(n, e)
    except OverflowError:
        return sys.float_info.max
    return v if v >= _NORMAL else max(down(v), 0.0)


def greater(n: int, e: int, r: float) -> bool:
    """n 2^e > r exactly, for integers n, e and a finite float r: r = m /
    2^k with integers, compared with n 2^e on integers."""
    m, d = r.as_integer_ratio()
    s = e + d.bit_length() - 1
    return n << s > m if s >= 0 else n > m << -s


def round_dyadic(n: int, e: int, p: int) -> tuple[int, int]:
    """(m, x) with m 2^x the dyadic n 2^e rounded to p >= 1 significant
    bits, to nearest with ties to even, as libmp's round_nearest rounds a
    value (libmpf.normalize); m is odd, or 0 for n = 0, so (m, x) is also
    the canonical image `dyadic` reads. An mpf operation at p bits, on
    operands of at most p bits each, is its exact result rounded so: a
    product, sum or difference of integers at a shared exponent, rounded
    here, has the operator's bits."""
    if not n:
        return 0, 0
    m = -n if n < 0 else n
    s = m.bit_length() - p
    if s > 0:
        t = m >> (s - 1)  # the kept bits and the half bit
        carry = t & 1 and (t & 2 or m != t << (s - 1))  # past half, or a tie to an odd m
        m, e = (t >> 1) + bool(carry), e + s
    if not m & 1:  # strip trailing zero bits (a carry can leave some)
        z = (m & -m).bit_length() - 1
        m, e = m >> z, e + z
    return (-m if n < 0 else m), e


def round_sum(s: tuple[int, int], t: tuple[int, int], p: int) -> tuple[int, int]:
    """The dyadic pairs s + t, rounded once to p bits (round_dyadic)."""
    (m, x), (n, y) = s, t
    return round_dyadic((m << x - y) + n, y, p) if x >= y else round_dyadic(m + (n << y - x), x, p)


def aligned(values) -> tuple[list[int], int]:
    """(ints, e): the dyadic pairs values as ints at their least exponent e."""
    e = min(x for _, x in values)
    return [m << x - e for m, x in values], e


def dyadic_to_mpf(m: int, x: int) -> mp.mpf:
    """The dyadic m 2^x as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(m, x))
