"""Mutually-cubic-root pair dynamics and the ratio set.

The projective maps T(s) = 3 - 1/s and R(s) = (5s-3)/(2s-1) act on ratios
of coefficient growth exponents; the integer-level moves tilde_T and
tilde_D act on the pairs themselves and preserve the defining congruences.
Orbits are iterated in exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidParamsError, OrbitCapError
from .families import is_mutually_cubic_pair
from .precision import fraction_to_mpf

__all__ = [
    "ProjectiveRatio",
    "INFINITY",
    "McrPair",
    "mobius_T",
    "mobius_R",
    "tilde_T",
    "tilde_D",
    "orbit",
    "orbit_csv_rows",
]


class ProjectiveRatio:
    """A point of P^1(Q): an exact Fraction or the point at infinity.
    Infinity is a real value here, not an overflow."""

    __slots__ = ("_val",)

    def __init__(self, value):
        if value is None:
            self._val = None  # infinity marker
        elif isinstance(value, ProjectiveRatio):
            self._val = value._val
        elif isinstance(value, (int, Fraction)):
            self._val = Fraction(value)
        else:
            raise InvalidParamsError(f"cannot interpret {value!r} as a projective ratio")

    @classmethod
    def infinity(cls) -> "ProjectiveRatio":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self._val is None

    def as_fraction(self) -> Fraction:
        if self.is_infinity:
            raise InvalidParamsError("infinity is not a rational")
        return self._val

    def as_mpf(self, prec: int = 53) -> mp.mpf:
        """The value rounded once to prec bits (to nearest); mp.inf at infinity."""
        return mp.inf if self.is_infinity else fraction_to_mpf(self._val, prec)

    def __eq__(self, other):
        # None is not a ratio here, so INFINITY == None is false
        if isinstance(other, (int, Fraction, ProjectiveRatio)):
            return self._val == ProjectiveRatio(other)._val
        return NotImplemented

    def __hash__(self):
        return hash(self._val)

    def __repr__(self):
        return "ProjectiveRatio(inf)" if self.is_infinity else f"ProjectiveRatio({self._val})"


INFINITY = ProjectiveRatio.infinity()


def _as_ratio(s) -> ProjectiveRatio:
    return s if isinstance(s, ProjectiveRatio) else ProjectiveRatio(s)


def mobius_T(s) -> ProjectiveRatio:
    """T(s) = 3 - 1/s, projectively: T(0) = inf, T(inf) = 3."""
    s = _as_ratio(s)
    if s.is_infinity:
        return ProjectiveRatio(Fraction(3))
    v = s._val
    if v == 0:
        return ProjectiveRatio.infinity()
    return ProjectiveRatio(3 - 1 / v)


def mobius_R(s) -> ProjectiveRatio:
    """R(s) = (5s-3)/(2s-1); contraction toward (3+sqrt(3))/2 on s > that
    fixed point. Projectively total: R(inf) = 5/2, R(1/2) = inf."""
    s = _as_ratio(s)
    if s.is_infinity:
        return ProjectiveRatio(Fraction(5, 2))
    v = s._val
    if 2 * v - 1 == 0:
        return ProjectiveRatio.infinity()
    return ProjectiveRatio((5 * v - 3) / (2 * v - 1))


@dataclass(frozen=True)
class McrPair:
    """Integer pair with a^3 == 1 (mod b) and b^3 == 1 (mod a)."""

    a: int
    b: int

    def __post_init__(self):
        if not is_mutually_cubic_pair(self.a, self.b):
            raise InvalidParamsError(f"({self.a},{self.b}) is not a mutually cubic root pair")


def tilde_T(p: McrPair) -> McrPair:
    """(a, b) -> ((1-a^3)/b, a). Needs b != 0 and a^3 != 1 (else the image
    leaves the admissible set)."""
    if p.b == 0:
        raise InvalidParamsError("tilde_T needs b != 0")
    if p.a ** 3 == 1:
        raise InvalidParamsError("tilde_T degenerates when a^3 = 1 (first entry would be 0)")
    q, r = divmod(1 - p.a ** 3, p.b)
    if r != 0:
        # The pair invariant guarantees divisibility; reaching this is a bug.
        raise InvalidParamsError(f"b={p.b} does not divide 1-a^3 for a={p.a}")
    return McrPair(q, p.a)


def tilde_D(p: McrPair) -> McrPair:
    """(a, b) -> (a, (1-a)*b). Needs a != 1 and b | a^2+a+1."""
    if p.a == 1:
        raise InvalidParamsError("tilde_D excludes a = 1")
    if p.b == 0 or (p.a * p.a + p.a + 1) % p.b != 0:
        raise InvalidParamsError(f"tilde_D needs b | a^2+a+1; got ({p.a},{p.b})")
    return McrPair(p.a, (1 - p.a) * p.b)


def orbit(map_name: str, s0, n: int, max_bits: int = 10 ** 6) -> list[ProjectiveRatio]:
    """[s0, F(s0), ..., F^n(s0)] for F in {T, R}, in exact arithmetic.

    Numerators/denominators grow geometrically under exact iteration; the
    iteration stops with OrbitCapError once they exceed max_bits bits.
    """
    if n < 0:
        raise InvalidParamsError("orbit length must be >= 0")
    step = {"T": mobius_T, "R": mobius_R}.get(map_name)
    if step is None:
        raise InvalidParamsError(f"unknown map {map_name!r}, expected 'T' or 'R'")
    s = _as_ratio(s0)
    out = [s]
    for k in range(n):
        s = step(s)
        if not s.is_infinity:
            fr = s.as_fraction()
            if fr.numerator.bit_length() > max_bits or fr.denominator.bit_length() > max_bits:
                raise OrbitCapError(f"orbit entry {k + 1} exceeds {max_bits} bits")
        out.append(s)
    return out


def orbit_csv_rows(points: list[ProjectiveRatio], digits: int = 50):
    """Rows (step, numerator, denominator, fixed-digit decimal) for CSV
    output; infinity prints as 1/0 with approximation 'inf'."""
    rows = []
    for k, s in enumerate(points):
        if s.is_infinity:
            rows.append((k, "1", "0", "inf"))
        else:
            fr = s.as_fraction()
            with mp.workprec(int(digits * 3.33) + 32):
                dec = mp.nstr(mp.mpf(fr.numerator) / fr.denominator, digits,
                              strip_zeros=False)
            rows.append((k, str(fr.numerator), str(fr.denominator), dec))
    return rows
