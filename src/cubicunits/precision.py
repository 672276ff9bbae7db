"""Precision policy plus exact mpf <-> Fraction conversion helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidParamsError

__all__ = ["PrecisionPolicy", "DEFAULT_POLICY"]


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


def mpf_to_fraction(x) -> Fraction:
    """Exact value of a finite mpf, int or float: each is a dyadic
    rational. An mpf is read from its own mantissa and exponent, so the
    ambient precision plays no part."""
    if isinstance(x, (int, float)):
        if not math.isfinite(x):
            raise InvalidParamsError(f"cannot convert {x} to a fraction")
        return Fraction(x)
    sign, man, exp, bc = x._mpf_
    if not man and bc:
        raise InvalidParamsError(f"cannot convert {x} to a fraction")
    fr = Fraction(-man if sign else man)
    if exp >= 0:
        return fr * (1 << exp)
    return fr / (1 << -exp)


def fraction_to_mpf(q: Fraction | int, prec: int) -> mp.mpf:
    q = Fraction(q)
    with mp.workprec(prec):
        return mp.mpf(q.numerator) / q.denominator
