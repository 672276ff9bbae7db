"""Unit-lattice shapes as reduced points of the modular surface.

A pair of independent log vectors spans a rank-2 lattice in the trace-zero
plane; a fixed similarity identifies that plane with C, and the lattice
class becomes a point tau of the upper half plane, reduced here to the
standard fundamental domain of SL2(Z) with explicit boundary conventions.
The limit-shape formulas for the constructed families are evaluated
directly so scans can be compared against their theoretical targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import DependentUnitsError, InternalInconsistencyError, InvalidParamsError
from .units import LogVector

__all__ = [
    "ShapePoint",
    "omega",
    "corner",
    "to_plane",
    "shape_from_units",
    "reduce_fundamental",
    "limit_shape_z",
    "curve_range",
    "curve_gamma",
    "cusick_angle_cos",
    "same_shape",
    "corner_distance",
]


def omega(prec: int | None = None) -> mp.mpc:
    """Primitive cube root of unity in the upper half plane, (-1+sqrt(3)i)/2.
    Computed at `prec` bits (ambient precision when omitted)."""
    with mp.workprec(prec or mp.mp.prec):
        return mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2)


def corner(prec: int | None = None) -> mp.mpc:
    """The corner of the fundamental domain at e^{i pi/3} = 1 + omega."""
    with mp.workprec(prec or mp.mp.prec):
        return 1 + omega(prec)


@dataclass(frozen=True)
class ShapePoint:
    tau: mp.mpc
    reduced: bool
    reduction_word: tuple[str, ...] = ()


def to_plane(v: LogVector, prec: int | None = None) -> mp.mpc:
    """The similarity from the trace-zero plane to C determined by
    (-1,0,1) -> 1 and (0,-1,1) -> 1+omega. Writing v = a*(-1,0,1) +
    b*(0,-1,1) gives a = -v1, b = -v2, so the image is -v1 - v2*(1+omega)."""
    prec = prec or mp.mp.prec
    s = abs(v.x1 + v.x2 + v.x3)
    scale = max(1, abs(v.x1), abs(v.x2), abs(v.x3))
    if s > max(9 * v.err, mp.ldexp(scale, -16)):
        raise InvalidParamsError(f"input is off the trace-zero plane by {mp.nstr(s, 8)}")
    with mp.workprec(prec):
        return -v.x1 - v.x2 * (1 + omega(prec))


def reduce_fundamental(tau, prec: int | None = None) -> ShapePoint:
    """Gauss reduction to |Re| <= 1/2, |tau| >= 1.

    Boundary conventions (needed for reproducible output): Re = +1/2 is
    chosen over -1/2, and on the arc |tau| = 1 the representative with
    Re >= 0. The moves are recorded: 'T<n>' is tau -> tau + n, 'S' is
    tau -> -1/tau.
    """
    prec = prec or mp.mp.prec
    with mp.workprec(prec):
        tau = mp.mpc(tau)
        if not tau.imag > 0:
            raise InvalidParamsError(f"need Im(tau) > 0, got {mp.nstr(tau, 12)}")
        tol = mp.ldexp(1, -max(24, (2 * prec) // 3))
        word = []
        for _ in range(100000):
            n = int(mp.floor(tau.real + mp.mpf(1) / 2))
            if n != 0:
                tau -= n
                word.append(f"T{-n}")
            if abs(tau) < 1 - tol:
                tau = -1 / tau
                word.append("S")
            else:
                break
        else:
            raise InternalInconsistencyError("reduction did not terminate")
        # ties: left vertical edge -> right; arc with Re < 0 -> Re > 0
        if abs(tau.real + mp.mpf(1) / 2) <= tol:
            tau += 1
            word.append("T1")
        if abs(abs(tau) - 1) <= tol and tau.real < -tol:
            tau = -1 / tau
            word.append("S")
        return ShapePoint(tau, True, tuple(word))


def shape_from_units(v1: LogVector, v2: LogVector, prec: int | None = None) -> ShapePoint:
    """Reduced shape of the lattice spanned by v1, v2: the quotient
    to_plane(v2)/to_plane(v1) normalized into the upper half plane
    (conjugating when it lands below; the shape ignores orientation) and
    Gauss-reduced."""
    prec = prec or mp.mp.prec
    with mp.workprec(prec):
        z1 = to_plane(v1, prec)
        z2 = to_plane(v2, prec)
        if abs(z1) == 0:
            raise DependentUnitsError("first vector maps to 0")
        tau = z2 / z1
        # error: |d(z2/z1)| <= (|dz2| + |tau||dz1|)/|z1|; plane map has O(1) norm
        scale = (v2.err + abs(tau) * v1.err) / abs(z1)
        tol = 4 * scale + mp.ldexp(1 + abs(tau), -(prec - 16))
        word = []
        if abs(tau.imag) <= tol:
            raise DependentUnitsError(
                f"quotient {mp.nstr(tau, 10)} is real within tolerance: dependent units")
        if tau.imag < 0:
            tau = mp.conj(tau)
            word.append("reflect")
        red = reduce_fundamental(tau, prec)
        return ShapePoint(red.tau, True, tuple(word) + red.reduction_word)


def limit_shape_z(a_tilde, b_tilde, prec: int = 96) -> mp.mpc:
    """Limit shape of the one-unit family whose parameter growth exponents
    are (a_tilde, b_tilde):
        z = (1+2a + (1+b+2a) w) / (1+a + (a-b) w),  w = e^{2 pi i/3}.
    Valid for 0 <= a_tilde <= min(b_tilde, 1/3), b_tilde <= 1 (closed ends
    so curves can hit their boundary)."""
    at, bt = Fraction(a_tilde), Fraction(b_tilde)
    if not (0 <= at <= bt and at <= Fraction(1, 3) and bt <= 1):
        raise InvalidParamsError(f"exponents out of regime: a~={at}, b~={bt}")
    with mp.workprec(prec):
        w = omega(prec)
        a = mp.mpf(at.numerator) / at.denominator
        b = mp.mpf(bt.numerator) / bt.denominator
        num = (1 + 2 * a) + (1 + b + 2 * a) * w
        den = (1 + a) + (a - b) * w
        return num / den


def curve_range(a_tilde, b_tilde) -> Fraction | None:
    """Right end min(1/(3a~), 1/b~) of the curve's r-range, over the
    positive exponents; None for the constant curve a~ = b~ = 0."""
    at, bt = Fraction(a_tilde), Fraction(b_tilde)
    bounds = ([Fraction(1, 3) / at] if at > 0 else []) + ([1 / bt] if bt > 0 else [])
    return min(bounds, default=None)


def curve_gamma(a_tilde, b_tilde, r, prec: int = 96) -> mp.mpc:
    """gamma(r) = limit shape at scaled exponents (r*a~, r*b~); the scan of
    r over [0, curve_range(a~, b~)] draws the family's curve on the surface."""
    at, bt, rr = Fraction(a_tilde), Fraction(b_tilde), Fraction(r)
    if rr < 0:
        raise InvalidParamsError("r must be >= 0")
    rmax = curve_range(at, bt)
    if rmax is not None and rr > rmax:
        raise InvalidParamsError(f"r={rr} beyond the curve range [0, {rmax}]")
    return limit_shape_z(rr * at, rr * bt, prec)


def cusick_angle_cos(alpha):
    """cos of the lattice angle for the slow-growth one-unit scans:
    (1 - 2a - 2a^2)/(2 + 2a + 2a^2), decreasing from 1/2 at a=0 toward
    -1/2 as a -> 1. Exact when alpha is exact."""
    if isinstance(alpha, (int, Fraction)) or isinstance(alpha, float):
        a = Fraction(alpha)
        if not 0 <= a < 1:
            raise InvalidParamsError(f"alpha must be in [0,1), got {alpha}")
        return Fraction(1 - 2 * a - 2 * a * a, 1) / (2 + 2 * a + 2 * a * a)
    a = mp.mpf(alpha)
    if not (0 <= a < 1):
        raise InvalidParamsError(f"alpha must be in [0,1), got {alpha}")
    return (1 - 2 * a - 2 * a * a) / (2 + 2 * a + 2 * a * a)


def corner_distance(tau) -> mp.mpf:
    """Distance from a reduced point to the corner class: the corner
    e^{i pi/3} and its translate e^{2 pi i/3} are the same point of the
    surface and reduction may return a neighborhood of either."""
    t = mp.mpc(tau.tau if isinstance(tau, ShapePoint) else tau)
    p = corner(mp.mp.prec)
    return min(abs(t - p), abs(t - (p - 1)))


def same_shape(p, q, tol=None) -> bool:
    """Equality of reduced points modulo the boundary identifications and
    the mirror symmetry. Candidates: q, q+-1 (vertical edges), -1/q (arc),
    and the mirror -conj of each."""
    tp = p.tau if isinstance(p, ShapePoint) else mp.mpc(p)
    tq = q.tau if isinstance(q, ShapePoint) else mp.mpc(q)
    tol = tol if tol is not None else mp.ldexp(1, -(mp.mp.prec // 2))
    cands = [tq, tq + 1, tq - 1, -1 / tq]
    cands += [-mp.conj(c) for c in cands]
    return any(abs(tp - c) <= tol for c in cands)
