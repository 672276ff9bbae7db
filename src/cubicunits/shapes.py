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
from functools import cache

import mpmath as mp
from mpmath.libmp import (
    fone, from_int, fzero, mpc_abs, mpc_add_mpf, mpc_conjugate, mpc_div, mpc_mpf_div, mpc_mul_mpf,
    mpc_sub, mpc_sub_mpf, mpf_abs, mpf_add, mpf_div, mpf_floor, mpf_gt, mpf_le, mpf_lt, mpf_mul,
    mpf_mul_int, mpf_neg, mpf_shift, mpf_sqrt, mpf_sub, to_int)

from .errors import DependentUnitsError, InternalInconsistencyError, InvalidParamsError
from .units import _RND, LogVector, _max1, _sum_slack

__all__ = [
    "ShapePoint",
    "omega",
    "corner",
    "to_plane",
    "shape_from_units",
    "reduce_fundamental",
    "limit_shape_z",
    "curve_gamma",
    "cusick_angle_cos",
    "same_shape",
    "corner_distance",
]


def _bits(prec: int | None) -> int:
    # the working precision: the ambient one when prec is None
    if prec is not None and prec < 8:
        raise InvalidParamsError(f"shape precision must be at least 8 bits, got {prec}")
    return mp.mp.prec if prec is None else prec


# The shape is computed on mpmath's raw tuples: each step is the libmp call,
# precision and rounding that mpmath's operator for it makes (units.py), so
# every bit is the operator code's. _RND is mpmath's default rounding.
_HALF, _MINUS_ONE = mpf_shift(fone, -1), from_int(-1)


@cache
def _omega(q: int):
    # omega and the corner 1 + omega, raw, as the operator code builds them at q bits
    w = tuple(mpf_div(x, from_int(2), q, _RND) for x in (mpf_neg(fone, q, _RND), mpf_sqrt(from_int(3), q, _RND)))
    return w, mpc_add_mpf(w, fone, q, _RND)


def omega(prec: int | None = None) -> mp.mpc:
    """Primitive cube root of unity in the upper half plane, (-1+sqrt(3)i)/2.
    Computed at `prec` bits (ambient precision when omitted)."""
    return mp.make_mpc(_omega(_bits(prec))[0])


def corner(prec: int | None = None) -> mp.mpc:
    """The corner of the fundamental domain at e^{i pi/3} = 1 + omega."""
    return mp.make_mpc(_omega(_bits(prec))[1])


@dataclass(frozen=True)
class ShapePoint:
    tau: mp.mpc
    reduced: bool
    reduction_word: tuple[str, ...] = ()


def to_plane(v: LogVector, prec: int | None = None) -> mp.mpc:
    """The similarity from the trace-zero plane to C determined by
    (-1,0,1) -> 1 and (0,-1,1) -> 1+omega. Writing v = a*(-1,0,1) +
    b*(0,-1,1) gives a = -v1, b = -v2, so the image is -v1 - v2*(1+omega).
    The plane check runs at the ambient precision, the image at prec bits."""
    return mp.make_mpc(_plane(v, mp.mp.prec, _bits(prec)))


def _plane(v: LogVector, p: int, q: int):
    x = [t._mpf_ for t in (v.x1, v.x2, v.x3)]
    s = mpf_abs(mpf_add(mpf_add(x[0], x[1], p, _RND), x[2], p, _RND), p, _RND)
    edge = mpf_shift(_max1([mpf_abs(t, p, _RND) for t in x]) or fone, -16)
    err9 = mpf_mul_int(v.err._mpf_, 9, p, _RND)
    # s > max(9 err, edge) + what the sum's own rounding can move it
    if mpf_gt(s, mpf_add(edge if mpf_gt(edge, err9) else err9, _sum_slack(x, p), p, _RND)):
        raise InvalidParamsError(f"input is off the trace-zero plane by {mp.nstr(mp.make_mpf(s), 8)}")
    # -x1 - x2 (1 + omega): mpf - mpc is mpc_sub((x, 0), z)
    return mpc_sub((mpf_neg(x[0], q, _RND), fzero), mpc_mul_mpf(_omega(q)[1], x[1], q, _RND), q, _RND)


def reduce_fundamental(tau, prec: int | None = None) -> ShapePoint:
    """Gauss reduction to |Re| <= 1/2, |tau| >= 1.

    Boundary conventions (needed for reproducible output): Re = +1/2 is
    chosen over -1/2, and on the arc |tau| = 1 the representative with
    Re >= 0. The moves are recorded: 'T<n>' is tau -> tau + n, 'S' is
    tau -> -1/tau.
    """
    q = _bits(prec)
    with mp.workprec(q):  # tau enters as mp.mpc rounds it
        z = mp.mpc(tau)._mpc_
    if not mpf_gt(z[1], fzero):
        raise InvalidParamsError(f"need Im(tau) > 0, got {mp.nstr(mp.make_mpc(z), 12)}")
    tol = mpf_shift(fone, -max(24, (2 * q) // 3))
    word = []
    for _ in range(100000):
        n = to_int(mpf_floor(mpf_add(z[0], _HALF, q, _RND), q, _RND))
        if n != 0:
            z = mpc_sub_mpf(z, from_int(n), q, _RND)
            word.append(f"T{-n}")
        r = mpc_abs(z, q, _RND)
        if mpf_lt(r, mpf_sub(fone, tol, q, _RND)):
            z = mpc_mpf_div(_MINUS_ONE, z, q, _RND)
            word.append("S")
        else:
            break
    else:
        raise InternalInconsistencyError("reduction did not terminate")
    # ties: left vertical edge -> right; arc with Re < 0 -> Re > 0
    if mpf_le(mpf_abs(mpf_add(z[0], _HALF, q, _RND), q, _RND), tol):
        z = mpc_add_mpf(z, fone, q, _RND)
        word.append("T1")
        r = mpc_abs(z, q, _RND)
    if (mpf_lt(z[0], mpf_neg(tol, q, _RND))
            and mpf_le(mpf_abs(mpf_sub(r, fone, q, _RND), q, _RND), tol)):
        z = mpc_mpf_div(_MINUS_ONE, z, q, _RND)
        word.append("S")
    return ShapePoint(mp.make_mpc(z), True, tuple(word))


# The roundings of the quotient at q bits, u = 2^-q, move it by at most
# 2^(_QUOTIENT_ROUNDING - q) |tau|. _plane rounds -x1, x2/2, their sum,
# sqrt(3)/2 and x2 sqrt(3)/2, each to nearest, so |dz| <= (3/4) u M + (1/2)
# u |Re z| + u |Im z| for M = max(|x1|, |x2|); a trace-zero x has M <=
# (2/sqrt(3)) |z|, so |dz| <= 2.1 u |z|, and the quotient of two such z
# is off by at most 4.3 u |tau|. mpc_div adds under 0.51 u |tau| (products
# exact, sums at q + 10 bits, one rounding at q): under 5 u |tau| in all,
# so 2^(3-q) |tau| covers it.
_QUOTIENT_ROUNDING = 3


def shape_from_units(v1: LogVector, v2: LogVector, prec: int | None = None) -> ShapePoint:
    """Reduced shape of the lattice spanned by v1, v2: the quotient
    to_plane(v2)/to_plane(v1) normalized into the upper half plane
    (conjugating when it lands below; the shape ignores orientation) and
    Gauss-reduced."""
    q = _bits(prec)
    z1, z2 = _plane(v1, q, q), _plane(v2, q, q)
    if (r1 := mpc_abs(z1, q, _RND)) == fzero:
        raise DependentUnitsError("first vector maps to 0")
    tau = mpc_div(z2, z1, q, _RND)
    r = mpc_abs(tau, q, _RND)
    # error: |d(z2/z1)| <= (|dz2| + |tau||dz1|)/|z1|; plane map has O(1) norm
    scale = mpf_div(mpf_add(v2.err._mpf_, mpf_mul(r, v1.err._mpf_, q, _RND), q, _RND), r1, q, _RND)
    tol = mpf_add(mpf_mul_int(scale, 4, q, _RND), mpf_shift(r, _QUOTIENT_ROUNDING - q), q, _RND)
    word = ()
    if mpf_le(mpf_abs(tau[1], q, _RND), tol):
        raise DependentUnitsError(
            f"quotient {mp.nstr(mp.make_mpc(tau), 10)} is real within tolerance: dependent units")
    if mpf_lt(tau[1], fzero):
        tau = mpc_conjugate(tau, q, _RND)
        word = ("reflect",)
    red = reduce_fundamental(mp.make_mpc(tau), q)
    return ShapePoint(red.tau, True, word + red.reduction_word)


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
    p = corner()
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
