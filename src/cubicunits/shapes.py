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
from mpmath.libmp import from_int, fzero, mpf_div, mpf_gt

from .errors import DependentUnitsError, InvalidParamsError
from .precision import above, below, down, dyadic, mpf_to_fraction, rational_root, up
from .units import _RND, LogVector

__all__ = [
    "ShapePoint",
    "shape_from_units",
    "reduce_fundamental",
    "limit_shape_z",
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


@dataclass(frozen=True)
class ShapePoint:
    """A reduced point, the moves that reached it, and its radius, a
    float64 upper bound: the true point lies within radius of tau, up to
    the gluing of edges and arc."""
    tau: mp.mpc
    reduced: bool
    reduction_word: tuple[str, ...] = ()
    radius: float = 0.0


def _tau(a: int, b: int, c: int, q: int):
    # the root (-b + i sqrt(4ac - b^2)) / (2a) of the form, raw, each part
    # rounded once at q bits (Im as the correctly rounded square root)
    im = rational_root(4 * a * c - b * b, 4 * a * a, 2, q)
    return mpf_div(from_int(-b), from_int(2 * a), q, _RND), im


def _radius(a: int, c: int, u, q: int | None, errs) -> float:
    # tau's two output roundings at q bits (none for q None), 2^-q |tau|
    # together, with |tau| = sqrt(c/a); for a member's form, whose errs =
    # (e, err1, err2) are its scale 2^e and its vectors' errors, also the
    # data's 4 (err2' + |tau| err1') / |z1'| on the basis u1 = u0 v1 + u1 v2,
    # u2 = u2 v1 + u3 v2 of the form: each coordinate of u_i is off by
    # err_i' = |u_{2i-2}| err1 + |u_{2i-1}| err2 at most, the plane map at
    # most doubles that, |d(z2/z1)| <= (|dz2| + |tau| |dz1|) / |z1| to first
    # order, and the other 2 covers the rest; |z1'| = sqrt(a) 2^e. Each
    # float step rounds outward (up), and |z1'| is taken from below, as
    # z1 2^s with z1 near 1, so that no |z1'| leaves the float range
    size = up(math.sqrt(up(c / a)))  # int / int rounds correctly
    r = 0.0 if q is None else up(math.ldexp(size, -q))
    if errs is None:
        return r
    e, err1, err2 = errs
    e1, e2 = (up(up(abs(s) * err1) + up(abs(t) * err2)) for s, t in (u[:2], u[2:]))
    s = (a.bit_length() + 2 * e) // 2  # a 2^(2e) = A 4^s, A in [1/2, 2)
    z1 = down(math.sqrt(below(a, 2 * (e - s))))
    return up(r + up(math.ldexp(up(4 * up(e2 + up(size * e1)) / z1), -s)))


# Exact Gauss reduction of a positive definite integer form (a, b, c) to
# |b| <= a <= c, that is |Re tau| <= 1/2 and |tau| >= 1 (Cohen, A Course in
# Computational Algebraic Number Theory, GTM 138, 5.3-5.4): each S lowers
# the integer a, so the loop ends. The moves are appended to word ('T<n>'
# is tau -> tau + n, 'S' is tau -> -1/tau), and u tracks the basis that
# spans the reduced form. Boundary conventions: Re = +1/2 is chosen over
# -1/2, and on the arc |tau| = 1 the representative with Re >= 0. They
# apply only where the enclosure meets the left edge or the left half of
# the arc: its radius is a member's, and 0 for an exact form, whose ties
# are therefore exact. The printed point is off the exact one by its
# rounding, so the move is made also where the printed point is within r/2
# of the left edge or the left half of the arc (on them, for an exact
# form); after a move the radius grows, where it must, to the printed
# point's distance from the domain. Every test reads r exactly, on
# integers: r = n / d, and the printed point and r are read at one
# dyadic scale.
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
    # the tie radius r, 0 for an exact form
    r = 0.0 if errs is None else _radius(a, c, u, q, errs)
    n, d = r.as_integer_ratio()
    tau = _tau(a, b, c, q)
    # the printed point (px + i py) 2^e, r = rr 2^e and 1/2 = h 2^e, exactly
    (px, py, rr, h), e = dyadic((*tau, r, 0.5))
    if (a - b) * d <= 2 * a * n or 2 * (px + h) <= rr:  # Re tau + 1/2 <= r, or printed Re + 1/2 <= r/2
        b, c = b - 2 * a, a - b + c
        u[2], u[3] = u[2] + u[0], u[3] + u[1]
        word.append("T1")
    elif b > 0 and (c * d * d <= a * (d + n) ** 2  # Re tau < 0, and |tau| <= 1 + r or printed |tau| <= 1 + r/2
                    or 4 * (px * px + py * py) <= (4 * h + rr) ** 2):
        a, b, c, u = c, -b, a, [u[2], u[3], -u[0], -u[1]]
        word.append("S")
    else:  # no move: a member's radius is r, an exact form's its rounding alone
        return ShapePoint(mp.make_mpc(tau), True, tuple(word), r if errs else _radius(a, c, u, q, None))
    tau = _tau(a, b, c, q)
    (px, py, h), e = dyadic((*tau, 0.5))
    # Re tau - 1/2, and 1 - |tau| <= (1 - |tau|^2) / (1 + |tau|) where it is
    # positive, |tau|^2 = (px^2 + py^2) 4^e
    edge = above(px - h, e)
    num = (2 * h) ** 2 - px * px - py * py
    inside = up(above(num, 2 * e) / down(1 + down(math.sqrt(below(px * px + py * py, 2 * e))))) \
        if num > 0 else 0.0
    return ShapePoint(mp.make_mpc(tau), True, tuple(word), max(_radius(a, c, u, q, errs), edge, inside))


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
    # x1, x2 of both vectors are their ints at the lesser exponent e;
    # |z|^2 = x1^2 + x1 x2 + x2^2, tau is the root of (|z1|^2, -2 Re(z2
    # conj(z1)), |z2|^2), and 4ac - b^2 = 3 det^2, so Im tau = sqrt(3) |det|
    # / (2a) with the sign of det. The form and det scale by a power of 4
    # with e, and nothing below depends on it but through their ratios
    e = min(v1.exp, v2.exp)
    (x1, x2, _), (y1, y2, _) = ([n << v.exp - e for n in v.ints] for v in (v1, v2))
    a, c = x1 * x1 + x1 * x2 + x2 * x2, y1 * y1 + y1 * y2 + y2 * y2
    b, det = -(2 * x1 * y1 + x1 * y2 + x2 * y1 + 2 * x2 * y2), x1 * y2 - x2 * y1
    errs = (e, v1.err, v2.err)
    # dependent when Im tau is within the data's radius on this basis: the
    # determinant is exact, and tau is not rounded here
    n, d = (_radius(a, c, (1, 0, 0, 1), None, errs) if det else 0.0).as_integer_ratio()
    if 3 * (det * d) ** 2 <= 4 * (a * n) ** 2:  # 4a^2 (Im^2 <= r^2), r = n / d
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


def curve_point(a_tilde, b_tilde, r, prec: int = 96) -> ShapePoint:
    """gamma(r) reduced: the exact form of its lattice goes through the
    exact reduction, so a point on the boundary meets its convention."""
    return _reduce(*_limit_form(*_curve_exponents(a_tilde, b_tilde, r)), _bits(prec), [])


def cusick_angle_cos(alpha) -> Fraction:
    """cos of the lattice angle for the slow-growth one-unit scans, -b/2a for
    the limit form (a, b, c) at (0, x), x = alpha read exactly: (1 - 2x -
    2x^2)/(2 + 2x + 2x^2), from 1/2 at x = 0 toward -1/2 as x -> 1."""
    a = alpha if isinstance(alpha, Fraction) else mpf_to_fraction(alpha)
    if not 0 <= a < 1:
        raise InvalidParamsError(f"alpha must be in [0,1), got {alpha}")
    a, b, _ = _limit_form(0, a)
    return Fraction(-b, 2 * a)


def corner_distance(tau, prec: int = 53) -> mp.mpf:
    """Distance from a reduced point to the corner class, at prec bits: the
    corner e^{i pi/3} = limit_shape_z(0, 0) and omega = limit_shape_z(0, 1)
    are one point of the surface, and reduction may return either."""
    with mp.workprec(_bits(prec)):
        t = mp.mpc(tau.tau if isinstance(tau, ShapePoint) else tau)
        return min(abs(t - limit_shape_z(0, b, prec)) for b in (0, 1))


def same_shape(p, q, tol=None) -> bool:
    """Equality of reduced points modulo the boundary identifications and
    the mirror symmetry: |p - c| <= tol for a candidate c among q, q+-1
    (vertical edges), -1/q (arc), and the mirror -conj of each. Two
    ShapePoints default to the sum of their radii, anything else to 2^-26.
    The points (mpc or ShapePoint) and tol are read exactly, and every
    candidate is rational, so the test is decided on integers."""
    if tol is None:
        points = isinstance(p, ShapePoint) and isinstance(q, ShapePoint)
        tol = up(p.radius + q.radius) if points else math.ldexp(1.0, -26)
    # p, q, tol and 1 as integers times 2^e
    zp, zq = ((x.tau if isinstance(x, ShapePoint) else x)._mpc_ for x in (p, q))
    (px, py, qx, qy, t, h), _ = dyadic((*zp, *zq, tol, 1))
    # each candidate as (x + i y) / d: q + k, and -1/q = -conj(q) / |q|^2,
    # with |q|^2 = (qx^2 + qy^2) / h^2 in units of 2^e; s = -1 reads the
    # mirror -conj(c) = -x + i y
    cands = [(qx + k * h, qy, 1) for k in (0, 1, -1)]
    if qx or qy:
        cands.append((-qx * h * h, qy * h * h, qx * qx + qy * qy))
    return t >= 0 and any((px * d - s * x) ** 2 + (py * d - y) ** 2 <= (t * d) ** 2
                          for x, y, d in cands for s in (1, -1))
