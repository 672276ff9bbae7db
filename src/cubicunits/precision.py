"""Precision policy, the CSV rows' named width, and exact readings of
mpf, int and float values as dyadic rationals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_rational, round_nearest

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
