"""Unit-lattice shapes as reduced points of the modular surface.

A pair of independent log vectors spans a rank-2 lattice in the trace-zero
plane; a fixed similarity identifies that plane with C, and the lattice
class becomes the root tau of the pair's Gram matrix, an integer binary
quadratic form. Exact Gauss reduction takes it to the standard fundamental
domain of SL2(Z), where tau is rounded once and carries the data's error
as its radius. The families' limit shapes have exact rational forms too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_mul, mpf_mul_int, mpf_neg,
    mpf_shift, mpf_sqrt, round_down, round_up)

from .errors import DependentUnitsError, InvalidParamsError
from .precision import dyadic
from .units import _RND, LogVector

__all__ = [
    "ShapePoint",
    "omega",
    "corner",
    "shape_from_units",
    "reduce_fundamental",
    "limit_shape_z",
    "curve_gamma",
    "curve_point",
    "cusick_angle_cos",
    "same_shape",
    "corner_distance",
]


def _bits(prec: int) -> int:
    # the working precision, checked
    if prec < 8:
        raise InvalidParamsError(f"shape precision must be at least 8 bits, got {prec}")
    return prec


def omega(prec: int = 53) -> mp.mpc:
    """Primitive cube root of unity in the upper half plane, (-1+sqrt(3)i)/2.
    Computed at `prec` bits."""
    q = _bits(prec)
    w = (mpf_neg(fone, q, _RND), mpf_sqrt(from_int(3), q, _RND))
    return mp.make_mpc(tuple(mpf_div(x, from_int(2), q, _RND) for x in w))


def corner(prec: int = 53) -> mp.mpc:
    """The corner of the fundamental domain at e^{i pi/3} = 1 + omega."""
    return mp.make_mpc((mpf_shift(fone, -1), omega(prec)._mpc_[1]))  # 1 - 1/2 is exact


@dataclass(frozen=True)
class ShapePoint:
    """A reduced point, the moves that reached it, and its radius: the true
    point lies within radius of tau, up to the gluing of edges and arc."""
    tau: mp.mpc
    reduced: bool
    reduction_word: tuple[str, ...] = ()
    radius: mp.mpf = mp.mpf(0)


# A radius is an upper bound: it is computed at _RB bits, each step rounded
# toward the side that keeps it one.
_RB, _UP, _DOWN = 32, round_up, round_down


def _tau(a: int, b: int, c: int, q: int):
    # the root (-b + i sqrt(4ac - b^2)) / (2a) of the form, raw, each part
    # rounded once at q bits: Im's floor at k fraction bits has q + 4 bits or
    # more, and a sticky bit marks it inexact, so its one rounding is correct
    n, d = 4 * a * c - b * b, 4 * a * a
    k = max(0, q + 4 - (n.bit_length() - d.bit_length()) // 2)
    s = math.isqrt((n << 2 * k) // d)
    im = from_man_exp(2 * s + (s * s * d != n << 2 * k), -k - 1, q, _RND)
    return mpf_div(from_int(-b), from_int(2 * a), q, _RND), im


def _radius(a: int, c: int, u, q: int | None, errs):
    # tau's two output roundings at q bits (none for q None), 2^-q |tau|
    # together, with |tau| = sqrt(c/a); for a member's form, whose errs =
    # (e, err1, err2) are its scale 2^e and its vectors' errors, also the
    # data's 4 (err2' + |tau| err1') / |z1'| on the basis u1 = u0 v1 + u1 v2,
    # u2 = u2 v1 + u3 v2 of the form: each coordinate of u_i is off by
    # err_i' = |u_{2i-2}| err1 + |u_{2i-1}| err2 at most, the plane map at
    # most doubles that, |d(z2/z1)| <= (|dz2| + |tau| |dz1|) / |z1| to first
    # order, and the other 2 covers the rest
    size = mpf_sqrt(mpf_div(from_int(c, _RB, _UP), from_int(a, _RB, _DOWN), _RB, _UP), _RB, _UP)
    r = fzero if q is None else mpf_shift(size, -q)
    if errs is None:
        return r
    e, err1, err2 = errs
    e1, e2 = (mpf_add(mpf_mul_int(err1, abs(s), _RB, _UP), mpf_mul_int(err2, abs(t), _RB, _UP), _RB, _UP)
              for s, t in (u[:2], u[2:]))
    data = mpf_add(e2, mpf_mul(size, e1, _RB, _UP), _RB, _UP)
    data = mpf_div(data, mpf_sqrt(from_int(a, _RB, _DOWN), _RB, _DOWN), _RB, _UP)
    return mpf_add(r, mpf_shift(data, 2 - e), _RB, _UP)


# Exact Gauss reduction of a positive definite integer form (a, b, c) to
# |b| <= a <= c, that is |Re tau| <= 1/2 and |tau| >= 1 (Cohen, A Course in
# Computational Algebraic Number Theory, GTM 138, 5.3-5.4): each S lowers
# the integer a, so the loop ends. The moves are appended to word ('T<n>'
# is tau -> tau + n, 'S' is tau -> -1/tau), and u tracks the basis that
# spans the reduced form. Boundary conventions: Re = +1/2 is chosen over
# -1/2, and on the arc |tau| = 1 the representative with Re >= 0. They
# apply only where the enclosure meets the left edge or the left half of
# the arc: its radius is a member's, and 0 for an exact form, whose ties
# are therefore exact.
def _reduce(a: int, b: int, c: int, q: int, word: list, errs=None) -> ShapePoint:
    u = [1, 0, 0, 1]
    while True:
        n = (a - b) // (2 * a)  # floor(Re tau + 1/2)
        if n:  # tau -> tau - n
            b, c = b + 2 * a * n, (a * n + b) * n + c
            u[2], u[3] = u[2] - n * u[0], u[3] - n * u[1]
            word.append(f"T{-n}")
        if c >= a:
            break
        a, b, c, u = c, -b, a, [u[2], u[3], -u[0], -u[1]]  # tau -> -1/tau
        word.append("S")
    # the tie radius r, 0 for an exact form; libmp adds and multiplies raw
    # mpfs exactly at precision 0, so both comparisons below are exact
    r = fzero if errs is None else _radius(a, c, u, q, errs)
    r1 = mpf_add(fone, r)
    if mpf_le(from_int(a - b), mpf_mul(from_int(2 * a), r)):  # Re tau + 1/2 <= r: the left edge goes right
        b, c = b - 2 * a, a - b + c
        u[2], u[3] = u[2] + u[0], u[3] + u[1]
        word.append("T1")
    elif b > 0 and mpf_le(from_int(c), mpf_mul(from_int(a), mpf_mul(r1, r1))):  # Re tau < 0, |tau| <= 1 + r
        a, b, c, u = c, -b, a, [u[2], u[3], -u[0], -u[1]]
        word.append("S")
    return ShapePoint(mp.make_mpc(_tau(a, b, c, q)), True, tuple(word), mp.make_mpf(_radius(a, c, u, q, errs)))


def reduce_fundamental(tau, prec: int = 53) -> ShapePoint:
    """Gauss reduction to |Re| <= 1/2, |tau| >= 1, of tau rounded to prec
    bits, and then exact: its form (1, -2x, x^2 + y^2), tau = x + iy, is
    reduced on integers, so its ties are exactly on the boundary.

    Boundary conventions (needed for reproducible output): Re = +1/2 is
    chosen over -1/2, and on the arc |tau| = 1 the representative with
    Re >= 0. The moves are recorded: 'T<n>' is tau -> tau + n, 'S' is
    tau -> -1/tau. The radius is the output rounding.
    """
    q = _bits(prec)
    with mp.workprec(q):  # tau enters as mp.mpc rounds it
        z = mp.mpc(tau)._mpc_
    if not mpf_gt(z[1], fzero):
        raise InvalidParamsError(f"need Im(tau) > 0, got {mp.nstr(mp.make_mpc(z), 12)}")
    (x, y), e = dyadic(z)
    s = max(0, -e)  # the form times 4^s is integral
    return _reduce(1 << 2 * s, -x << (e + 2 * s + 1), (x * x + y * y) << 2 * (e + s), q, [])


def shape_from_units(v1: LogVector, v2: LogVector, prec: int = 53) -> ShapePoint:
    """Reduced shape of the lattice spanned by v1, v2: tau = z2/z1 for the
    plane map z(v) = -x1 - x2 (1 + omega), taking (-1,0,1) -> 1 and
    (0,-1,1) -> 1+omega, conjugated into the upper half plane when it lands
    below (the shape ignores orientation; the word starts 'reflect'), and
    reduced exactly. The units are dependent when Im tau is within the
    data's radius."""
    q = _bits(prec)
    # x1, x2 of both vectors are integers times 2^e; |z|^2 = x1^2 + x1 x2 +
    # x2^2, tau is the root of (|z1|^2, -2 Re(z2 conj(z1)), |z2|^2), and
    # 4ac - b^2 = 3 det^2, so Im tau = sqrt(3) |det| / (2a) with the sign of det
    (x1, x2, y1, y2), e = dyadic((v1.x1, v1.x2, v2.x1, v2.x2))
    a, c = x1 * x1 + x1 * x2 + x2 * x2, y1 * y1 + y1 * y2 + y2 * y2
    b, det = -(2 * x1 * y1 + x1 * y2 + x2 * y1 + 2 * x2 * y2), x1 * y2 - x2 * y1
    errs = (e, v1.err._mpf_, v2.err._mpf_)
    # dependent when Im tau is within the data's radius on this basis: the
    # determinant is exact, and tau is not rounded here
    r = _radius(a, c, (1, 0, 0, 1), None, errs) if det else fzero
    if mpf_le(from_int(3 * det * det), mpf_mul(from_int(4 * a * a), mpf_mul(r, r))):  # 4a^2 (Im^2 <= r^2)
        raise DependentUnitsError("Im(tau) is within its radius of 0: dependent units")
    return _reduce(a, b, c, q, ["reflect"] if det < 0 else [], errs)


def _limit_form(a_tilde, b_tilde) -> tuple[int, int, int]:
    # the form of the limit lattice spanned by den = (1+a) + (a-b) w and num
    # = (1+2a) + (1+b+2a) w, w = omega: (|den|^2, -2 Re(num conj(den)),
    # |num|^2) with |p + q w|^2 = p^2 - pq + q^2, times the square of a
    # common denominator
    at, bt = Fraction(a_tilde), Fraction(b_tilde)
    if not (0 <= at <= bt and at <= Fraction(1, 3) and bt <= 1):
        raise InvalidParamsError(f"exponents out of regime: a~={at}, b~={bt}")
    d = at.denominator * bt.denominator
    p1, q1, p2, q2 = (int(x * d) for x in (1 + at, at - bt, 1 + 2 * at, 1 + bt + 2 * at))
    return p1 * p1 - p1 * q1 + q1 * q1, p1 * q2 + p2 * q1 - 2 * (p1 * p2 + q1 * q2), p2 * p2 - p2 * q2 + q2 * q2


def limit_shape_z(a_tilde, b_tilde, prec: int = 96) -> mp.mpc:
    """Limit shape of the one-unit family whose parameter growth exponents
    are (a_tilde, b_tilde), unreduced, rounded once from its exact form:
        z = (1+2a + (1+b+2a) w) / (1+a + (a-b) w),  w = e^{2 pi i/3}.
    Valid for 0 <= a_tilde <= min(b_tilde, 1/3), b_tilde <= 1 (closed ends
    so curves can hit their boundary)."""
    return mp.make_mpc(_tau(*_limit_form(a_tilde, b_tilde), _bits(prec)))


def curve_range(a_tilde, b_tilde) -> Fraction | None:
    """Right end min(1/(3a~), 1/b~) of the curve's r-range, over the
    positive exponents; None for the constant curve a~ = b~ = 0."""
    at, bt = Fraction(a_tilde), Fraction(b_tilde)
    bounds = ([Fraction(1, 3) / at] if at > 0 else []) + ([1 / bt] if bt > 0 else [])
    return min(bounds, default=None)


def _curve_exponents(a_tilde, b_tilde, r) -> tuple[Fraction, Fraction]:
    # the scaled exponents (r*a~, r*b~), for r in [0, curve_range(a~, b~)]
    at, bt, rr = Fraction(a_tilde), Fraction(b_tilde), Fraction(r)
    if rr < 0:
        raise InvalidParamsError("r must be >= 0")
    rmax = curve_range(at, bt)
    if rmax is not None and rr > rmax:
        raise InvalidParamsError(f"r={rr} beyond the curve range [0, {rmax}]")
    return rr * at, rr * bt


def curve_gamma(a_tilde, b_tilde, r, prec: int = 96) -> mp.mpc:
    """gamma(r) = limit shape at scaled exponents (r*a~, r*b~); the scan of
    r over [0, curve_range(a~, b~)] draws the family's curve on the surface."""
    return limit_shape_z(*_curve_exponents(a_tilde, b_tilde, r), prec)


def curve_point(a_tilde, b_tilde, r, prec: int = 96) -> ShapePoint:
    """gamma(r) reduced: the exact form of its lattice goes through the
    exact reduction, so a point on the boundary meets its convention."""
    return _reduce(*_limit_form(*_curve_exponents(a_tilde, b_tilde, r)), _bits(prec), [])


def cusick_angle_cos(alpha):
    """cos of the lattice angle for the slow-growth one-unit scans:
    (1 - 2a - 2a^2)/(2 + 2a + 2a^2), decreasing from 1/2 at a=0 toward
    -1/2 as a -> 1. Exact when alpha is exact."""
    a = Fraction(alpha) if isinstance(alpha, (int, Fraction, float)) else mp.mpf(alpha)
    if not 0 <= a < 1:
        raise InvalidParamsError(f"alpha must be in [0,1), got {alpha}")
    return (1 - 2 * a - 2 * a * a) / (2 + 2 * a + 2 * a * a)


def corner_distance(tau, prec: int = 53) -> mp.mpf:
    """Distance from a reduced point to the corner class, at prec bits: the
    corner e^{i pi/3} and its translate e^{2 pi i/3} are the same point of
    the surface and reduction may return a neighborhood of either."""
    with mp.workprec(_bits(prec)):
        t = mp.mpc(tau.tau if isinstance(tau, ShapePoint) else tau)
        return min(abs(t - p) for p in (corner(prec), omega(prec)))


def same_shape(p, q, tol=None) -> bool:
    """Equality of reduced points modulo the boundary identifications and
    the mirror symmetry. Candidates: q, q+-1 (vertical edges), -1/q (arc),
    and the mirror -conj of each. Two ShapePoints default to the sum of
    their radii, anything else to 2^-26; a positive tolerance is compared
    at bits that resolve it, a zero one at 53 bits."""
    # a number that is no ShapePoint enters exactly, as mp.convert reads it
    tp, tq = (x.tau if isinstance(x, ShapePoint) else mp.convert(x) for x in (p, q))
    if tol is None:
        points = isinstance(p, ShapePoint) and isinstance(q, ShapePoint)
        tol = mp.make_mpf(mpf_add(p.radius._mpf_, q.radius._mpf_, _RB, _UP)) if points else mp.ldexp(1, -26)
    bits = max(53, 24 + max(mp.mag(tp), mp.mag(tq), 0) - mp.mag(tol)) if tol > 0 else 53
    with mp.workprec(bits):
        cands = [tq, tq + 1, tq - 1, -1 / tq]
        cands += [-mp.conj(c) for c in cands]
        return any(abs(tp - c) <= tol for c in cands)
