"""Mutually-cubic-root pair dynamics and the ratio set.

The projective maps T(s) = 3 - 1/s and R(s) = (5s-3)/(2s-1) act on ratios
of coefficient growth exponents; the integer-level moves tilde_T and
tilde_D act on the pairs themselves and preserve the defining congruences.
Orbits are iterated in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidParamsError, OrbitCapError
from .families import is_mutually_cubic_pair
from .precision import mpf_to_fraction

__all__ = [
    "ProjectiveRatio",
    "INFINITY",
    "McrPair",
    "mobius_T",
    "mobius_R",
    "tilde_T",
    "tilde_D",
    "orbit",
    "RatioEstimate",
    "ratio_estimate",
    "orbit_csv_rows",
]


class ProjectiveRatio:
    """A point of P^1(R): an exact Fraction, a high-precision real, or the
    point at infinity. Infinity is a real value here, not an overflow."""

    __slots__ = ("_val",)

    def __init__(self, value):
        if value is None:
            self._val = None  # infinity marker
        elif isinstance(value, ProjectiveRatio):
            self._val = value._val
        elif isinstance(value, (int, Fraction)):
            self._val = Fraction(value)
        elif isinstance(value, mp.mpf):
            self._val = value
        elif isinstance(value, float):
            if math.isinf(value):
                self._val = None
            else:
                self._val = Fraction(value)  # floats are exact dyadics
        else:
            raise InvalidParamsError(f"cannot interpret {value!r} as a projective ratio")

    @classmethod
    def infinity(cls) -> "ProjectiveRatio":
        return cls(None)

    @property
    def is_infinity(self) -> bool:
        return self._val is None

    @property
    def is_exact(self) -> bool:
        return isinstance(self._val, Fraction)

    def as_fraction(self) -> Fraction:
        if not self.is_exact:
            raise InvalidParamsError("not an exact rational")
        return self._val

    def as_mpf(self, prec: int = 53) -> mp.mpf:
        if self.is_infinity:
            return mp.inf
        with mp.workprec(prec):
            if isinstance(self._val, Fraction):
                return mp.mpf(self._val.numerator) / self._val.denominator
            return +self._val

    def __eq__(self, other):
        if isinstance(other, ProjectiveRatio):
            return self._val == other._val
        if other is None:
            return False
        try:
            return self._val == other if not self.is_infinity else math.isinf(other)
        except TypeError:
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
    """[s0, F(s0), ..., F^n(s0)] for F in {T, R}; exact when s0 is exact.

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
        if s.is_exact:
            fr = s.as_fraction()
            if fr.numerator.bit_length() > max_bits or fr.denominator.bit_length() > max_bits:
                raise OrbitCapError(f"orbit entry {k + 1} exceeds {max_bits} bits")
        out.append(s)
    return out


@dataclass(frozen=True)
class RatioEstimate:
    """Finite-sample report on log|a_t| / log|b_t|.

    value: the ratio at the largest sampled t (or the 0/infinity symbols).
    classification: 'finite', 'zero', 'infinity', or
        'degenerate-regular-triangle' when both coordinates sit at +-1.
    samples: per-t ratios (mpf; nan where undefined).
    diffs: successive differences of samples, the trend report.
    in_window: whether value lies in [1/3, 3] (or is 0/infinity), the box
        every true limit must land in. Finite data only suggests, never
        certifies, membership.
    """

    value: ProjectiveRatio
    classification: str
    samples: tuple
    diffs: tuple
    in_window: bool


def ratio_estimate(seq: list[McrPair], t_values: list[int] | None = None,
                   prec: int = 96) -> RatioEstimate:
    if not seq:
        raise InvalidParamsError("empty sequence")
    if t_values is not None and len(t_values) != len(seq):
        raise InvalidParamsError("t_values must match the sequence length")

    tail = seq[-1]
    a_deg = abs(tail.a) <= 1
    b_deg = abs(tail.b) <= 1
    with mp.workprec(prec):
        samples = []
        for p in seq:
            if abs(p.a) <= 1 and abs(p.b) <= 1:
                samples.append(mp.nan)
            elif abs(p.b) <= 1:
                samples.append(mp.inf)
            elif abs(p.a) <= 1:
                samples.append(mp.mpf(0))
            else:
                samples.append(mp.log(abs(p.a)) / mp.log(abs(p.b)))
        diffs = tuple(samples[i + 1] - samples[i] for i in range(len(samples) - 1))

    if a_deg and b_deg:
        return RatioEstimate(ProjectiveRatio(0), "degenerate-regular-triangle",
                             tuple(samples), diffs, False)
    if b_deg:
        return RatioEstimate(INFINITY, "infinity", tuple(samples), diffs, True)
    if a_deg:
        return RatioEstimate(ProjectiveRatio(0), "zero", tuple(samples), diffs, True)
    value = samples[-1]
    in_window = bool(Fraction(1, 3) <= mpf_to_fraction(value) <= 3)
    return RatioEstimate(ProjectiveRatio(value), "finite", tuple(samples), diffs, in_window)


def orbit_csv_rows(points: list[ProjectiveRatio], digits: int = 50):
    """Rows (step, numerator, denominator, fixed-digit decimal) for CSV
    output; infinity prints as 1/0 with approximation 'inf'."""
    rows = []
    for k, s in enumerate(points):
        if s.is_infinity:
            rows.append((k, "1", "0", "inf"))
        elif s.is_exact:
            fr = s.as_fraction()
            with mp.workprec(int(digits * 3.33) + 32):
                dec = mp.nstr(mp.mpf(fr.numerator) / fr.denominator, digits,
                              strip_zeros=False)
            rows.append((k, str(fr.numerator), str(fr.denominator), dec))
        else:
            v = s.as_mpf(int(digits * 3.33) + 32)
            rows.append((k, "", "", mp.nstr(v, digits, strip_zeros=False)))
    return rows
