"""Escape of mass along compact diagonal orbits.

The order embeds as a unimodular lattice in R^3 (rows indexed by the real
places, columns by the power basis, scaled by disc^{-1/6}); the diagonal
flow acts by exponentials of trace-zero vectors. Height of a point is the
reciprocal of the shortest nonzero vector, the mass above height H is the
proportion of a fundamental hexagon of the unit action whose points have
height > H, and the expected escape rate is checked against the ceiling of
the hexagon through check_tight.

Heights are certified, with all search work in float64 and every
certified value exact or from mpf. A basis is carried as its exact
integer image, three integer columns times one power of two. Each entry
of the embedding is an exact integer, a polynomial in a root's dyadic
image, times one correctly rounded integer sixth root of disc, rounded
once; the flow multiplies its columns by the mantissas of three mpf
exponentials, rounding each entry once.
The kernel forms that image's exact integer Gram matrix and reduces it
in one exact greedy loop on integers, which reads only inner products
and carries the unimodular transform: sorted by exact squared norm, the
basis vectors take Gauss's step, the rounded exact Gram solve of the
longest against the other two, or a move by the shorter vectors with
coefficients in {0, +-1}, whichever first shortens one of them, until
none does. That basis is Minkowski-reduced, as in dimension 3 those
coefficients cover Minkowski's conditions, and in dimension at most 4 a
Minkowski-reduced basis reaches the successive minima (Nguyen and
Stehle, "Low-dimensional lattice basis reduction revisited", ACM TALG
2009). So the first two vectors' exact integer norms are lambda_1^2 and
lambda_2^2, the first is a shortest vector, and one mpf square root at
the caller's precision gives the minimum. No float enters the
reduction, so no float error bound has to hold for the minima.

The same reduction serves the order's own height. The lattice's Gram
matrix in the power basis is disc^(-1/3) T, T_ij = Tr(theta^(i+j)) the
exact integer trace form, built from the coefficients by Newton's
identities and of determinant disc (Cohen, A Course in Computational
Algebraic Number Theory, GTM 138, 4.4). So ht = (disc / n0^3)^(1/6), n0
the minimum of T, one exact integer root rounded once: it depends on no
root, no embedding and no working precision. The mass stage moves the
lattice in T's reduced basis, whose coefficient vectors it evaluates
exactly at the stored roots (_prereduced), so no sum of the reduction
cancels a rounded bit.

The mass stage reads the order alone: its hexagon is that of the simplex
make_simplex builds from the log vectors of the order's first two
verified units, so no caller hands it a simplex that would need checking.
The hexagon is a fundamental domain of the compact orbit, the torus R^2 /
Lambda, Lambda = Z alpha1 + Z alpha2 the lattice of unit log vectors, and
the sweep keeps its state on that torus: one mark per cell (a mod k, b mod
k) of the grid points (a alpha1 + b alpha2) / k. A verdict holds at every
translate. The unit eps = eps1^i eps2^j, with log vector y = i alpha1 +
j alpha2, maps the order onto itself, so diag(eps) L = L M with M
unimodular, and exp(y) = D diag(eps) with D the diagonal matrix of the
signs of eps's embedding. So exp(x + y) L = D exp(x) L M is the lattice
D exp(x) L, and D is an isometry: lambda_1, lambda_2 and the absolute
coordinates of a shortest vector are the same at every translate. Each
cover and unit row therefore marks its cells modulo k, wrapping where it
crosses the hexagon's edge, and the identified edges and vertices of the
hexagon share one mark.

The mass scan runs in two steps per height. First the unit rows: the
unit eps1^i eps2^j has log vector y = i alpha1 + j alpha2 and exactly
known norm |exp(x) eps|^2 = disc^{-1/3} sum_k e^{2(x_k + y_k)}. Along a
grid row x is affine in the column, so that sum is convex there, and the
grid points of a row where eps is shorter than 1/H form one interval. Its
two end points pass a cancellation-free float64 test, whose derived bound
on its float error must fit a stated headroom, and convexity proves every
point between them escaped. Only monomials whose region, inside x_k +
y_k < R = log(disc^{1/3} / H^2) / 2, meets the row can be short on it, so
each row searches a short computed range of (i, j); and as the grid
point (a, b) with the monomial (i, j) is the point (a + ik, b + jk) of
the extended grid, one interval per extended row marks its cells of the
torus. Then the centre walk visits only the points still open: the two
deep holes (one vertex from each of the hexagon's two classes of glued
vertices, where the origin's covers reach last), the origin, then coarse
to fine. It gives each one a certified kernel call, lambda_1 within [s -
m, s + m], which decides every point with min_i d_i > -log((s - m) H)
(no escape) or max_i d_i < -log((s + m) H) (escape): moving x by d
scales coordinate i of exp(x) v by e^{d_i}, so |exp(x + d) v| lies
between e^{min d_i} and e^{max d_i} times |exp(x) v|. In the trace-zero
plane each such region is a triangle with 3/2 the area of the sup-ball
hexagon |d_i| < r inside it. The centres are all moved from one basis of
L that each call reduces once.
Each centre (a alpha1 + b alpha2) / k is formed from exact dyadic images
of the alphas, rounded once per coordinate. The offset between two grid
points depends only on their index difference, which the cover reads
exactly from the same images, so each centre marks one interval per
extended row. With B - m_B below the norm of every vector not parallel
to the centre's shortest vector v1, the centre also marks "height at
most H" on the open points p = x + d with min_i d_i > -log((B - m_B) H)
where a float64 test, whose derived error bound must fit a stated
headroom, certifies |exp(p) v1| >= 1/H: a vector shorter than 1/H at p
is shorter than B - m_B at x, so it is n v1 for an integer n != 0, and no
shorter than v1. That proof reads nothing of the centre's own verdict,
so the origin comes even when the unit rows decided its cell, and then
runs this wide cover alone: its v1 is the unit 1 and its B - m_B the
order lattice's own lambda_2, so it settles the band just outside the
unit rows' escape set, out to radius log((B - m_B) H) around every unit
translate at once. It comes after the deep holes, whose cells its wide
cover would otherwise mark before their larger covers ran. A centre in
doubt covers nothing, and a cell no verdict covers raises
PrecisionExhaustedError.

Only the unit rows and the walk read the height, so one call takes every
height of a member and builds the rest once: the grid, the cover and the
certified norm, with its memo of s -+ margin and, once asked for, B - m_B
and v1's image per centre, so each centre reaches the kernel at most
once however many heights ask. A certified
centre's set-up is integers and floats: x's exact integer numerators
(and their exact trace), three mpf exponentials, and a float64 margin
rounded outward. Its verdicts compare exact dyadics on integers, and
each cover radius is the float log of one correctly rounded value.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache, reduce
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    fone, from_int, from_man_exp, from_rational, fzero, mpf_abs, mpf_add, mpf_div, mpf_exp, mpf_gt,
    mpf_le, mpf_mul, mpf_mul_int, mpf_pos, mpf_shift, mpf_sqrt, mpf_sub, round_nearest, to_float)

from .errors import (
    DependentUnitsError,
    InternalInconsistencyError,
    InvalidParamsError,
    PrecisionExhaustedError,
)
from .precision import ROW_BITS, dyadic, fraction_to_mpf
from .units import _RND, CubicOrderData, LogVector, _max1, log_embed

__all__ = [
    "LatticeBasis3",
    "SimplexSet",
    "HexDomain",
    "embed_order_lattice",
    "shortest_vector_norm",
    "lattice_height",
    "make_simplex",
    "hex_domain",
    "check_tight",
    "hexagon_grid",
    "mass_above_height",
]

# Relative headroom by which the float64 norm tests must clear the cutoff:
# below it for a unit short on a row (_unit_rows), above it for the
# shortest vector at a point of a wide cover (_cover); each derives the
# float error it has to cover.
_UNIT_HEADROOM = 1e-9

_EPS = sys.float_info.epsilon  # float64 machine epsilon, 2^-52


@dataclass(frozen=True)
class LatticeBasis3:
    """A 3x3 real basis as its exact integer image, column j being
    2^exp * cols[j]."""

    cols: tuple[tuple[int, int, int], ...]
    exp: int

    @classmethod
    def from_columns(cls, cols) -> "LatticeBasis3":
        """The basis whose column j holds the finite entries cols[j] (mpf,
        int or float, each a dyadic rational), read exactly."""
        ints, e = dyadic([v for c in cols for v in c])
        return cls(tuple(tuple(ints[3 * j:3 * j + 3]) for j in range(3)), e)

    @cached_property
    def _minimum(self) -> tuple[list[int], int, int]:
        """(b0, n0, n1): a shortest nonzero vector b0 of the integer
        columns' lattice and the exact squared minima n0 = lambda_1^2 and
        n1 = lambda_2^2, in units of 2^(2 exp), from one exact greedy
        reduction of the columns' Gram matrix (_reduce); b0 = M u0 for the
        first reduced coefficient vector u0. No float enters the minima."""
        a, b, c = self.cols
        ab, ac, bc = _dot(a, b), _dot(a, c), _dot(b, c)
        (n0, (x, y, z)), (n1, _), _ = _reduce(((_dot(a, a), ab, ac), (ab, _dot(b, b), bc),
                                               (ac, bc, _dot(c, c))))
        return [x * p + y * q + z * r for p, q, r in zip(a, b, c)], n0, n1


@dataclass(frozen=True)
class SimplexSet:
    """Trace-zero triple alpha1 + alpha2 + alpha3 = 0 spanning the plane."""

    alpha1: LogVector
    alpha2: LogVector
    alpha3: LogVector


@dataclass(frozen=True)
class HexDomain:
    vertices: tuple
    ceiling: mp.mpf
    ceiling_err: mp.mpf


def _dot(x, y) -> int:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _det3(rows) -> int:
    # the determinant of a 3x3 integer matrix, by cofactors along row 0
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _less(w, x: int, u) -> list[int]:
    # w - x u
    return [w[0] - x * u[0], w[1] - x * u[1], w[2] - x * u[2]]


def _less2(w, x: int, u, y: int, v) -> list[int]:
    # w - x u - y v
    return [w[0] - x * u[0] - y * v[0], w[1] - x * u[1] - y * v[1], w[2] - x * u[2] - y * v[2]]


def _reduce(gram) -> list[tuple[int, list[int]]]:
    """The greedy reduction of the basis with the exact integer Gram
    matrix gram (3x3, symmetric), on integers alone: the reduced basis
    vectors as (exact squared norm, coefficient vector over the given
    basis) pairs, sorted. Each vector b = B u also carries w = gram u, so
    <b, b'> = <u, w'> costs three products, as it would on the columns.

    Sorted by exact squared norm, the vectors take the first move that
    makes one of them strictly shorter: b1 - q b0 with q the nearest
    integer to <b0, b1> / |b0|^2 (Gauss's step); b2 - x b0 - y b1 with (x,
    y) the nearest integers to the exact solution of the 2x2 Gram system
    of b2 against b0 and b1; or b2 + s (x b0 + y b1) for a sign s and (x,
    y) in {(1, 0), (0, 1), (1, 1), (1, -1)}. The moves read only inner
    products; each is unimodular and lowers an integer norm, so the loop
    ends. A sorted basis that no move shortens satisfies Minkowski's
    conditions, which in dimension 3 need only coefficients in {0, +-1},
    and a Minkowski-reduced basis of dimension at most 4 reaches the
    successive minima, |b_i| = lambda_(i+1) (Nguyen and Stehle,
    "Low-dimensional lattice basis reduction revisited", ACM TALG 2009;
    Semaev, "A 3-dimensional lattice reduction algorithm", CaLC 2001).
    A degenerate form reaches a zero vector, which raises: a Gauss-reduced
    b0, b1 leave b2 in their plane at most 3/4 of |b1|^2 after the Gram
    step."""
    (a, b, c), (d, e, f), (g, h, i) = gram
    ranked = sorted([(a, [1, 0, 0], [a, b, c]), (e, [0, 1, 0], [d, e, f]), (i, [0, 0, 1], [g, h, i])])
    while True:
        (n0, u0, w0), (n1, u1, w1), (n2, u2, w2) = ranked
        if not n0:
            raise InternalInconsistencyError("degenerate basis in reduction")
        g01 = _dot(u0, w1)
        q = (2 * g01 + n0) // (2 * n0)
        d = q * (q * n0 - 2 * g01)  # |b1 - q b0|^2 - |b1|^2
        if d < 0:
            ranked[1] = n1 + d, _less(u1, q, u0), _less(w1, q, w0)
            ranked.sort()
            continue
        g02, g12 = _dot(u0, w2), _dot(u1, w2)
        det = n0 * n1 - g01 * g01  # > 0, as |g01| <= n0 / 2 here
        x = (2 * (g02 * n1 - g12 * g01) + det) // (2 * det)
        y = (2 * (g12 * n0 - g02 * g01) + det) // (2 * det)
        # d = |b2 - x b0 - y b1|^2 - |b2|^2, first for the Gram step's (x, y),
        # then for the best move by +-1: it is least at sg(x, y) = sg(x g02 + y g12)
        d = x * (x * n0 + 2 * y * g01 - 2 * g02) + y * (y * n1 - 2 * g12)
        if d >= 0:
            d, x, y, g = min((n0 - 2 * abs(g02), 1, 0, g02), (n1 - 2 * abs(g12), 0, 1, g12),
                             (n0 + n1 + 2 * g01 - 2 * abs(g02 + g12), 1, 1, g02 + g12),
                             (n0 + n1 - 2 * g01 - 2 * abs(g02 - g12), 1, -1, g02 - g12))
            if d >= 0:
                return [(n, u) for n, u, _ in ranked]
            x, y = (x, y) if g > 0 else (-x, -y)
        ranked[2] = n2 + d, _less2(u2, x, u0, y, u1), _less2(w2, x, w0, y, w1)
        ranked.sort()


def _trace_form(f) -> tuple[tuple[int, int, int], ...]:
    """T_ij = Tr(theta^(i+j)) = s_(i+j), the power sums of f's roots by
    Newton's identities: the Gram matrix of the order's power basis
    embedded in R^3, times disc^(1/3)."""
    p2, p1, p0 = f.p2, f.p1, f.p0
    s1 = -p2
    s2 = -p2 * s1 - 2 * p1
    s3 = -p2 * s2 - p1 * s1 - 3 * p0
    s4 = -p2 * s3 - p1 * s2 - p0 * s1
    return (3, s1, s2), (s1, s2, s3), (s2, s3, s4)


def _reduced_trace_form(order: CubicOrderData) -> list[tuple[int, list[int]]]:
    """The order's trace form reduced (_reduce): its minima n0 <= n1 <= n2,
    lambda_i^2 = disc^(-1/3) n_(i-1), with the coefficient vectors over the
    power basis that reach them. det T is the discriminant, which is
    checked."""
    form = _trace_form(order.f)
    if _det3(form) != order.disc:
        raise InternalInconsistencyError(f"trace form of {order.f} has determinant {_det3(form)}, "
                                         f"not the discriminant {order.disc}")
    return _reduce(form)


def _rounded_basis(scales, rows, exp: int, p: int) -> LatticeBasis3:
    """The basis whose entry (i, j) is man_i rows[i][j] 2^(f_i + exp), for
    scales[i] = (man_i, f_i): each product of integers is rounded once to p
    bits (to nearest, ties up), so it is within a relative 2^-p of its
    exact value, and the nine entries are written at their least exponent."""
    entries = []  # (q, s), row-major: entry (i, j) of the result is q 2^s
    for (man, f), row in zip(scales, rows):
        for c in row:
            v = man * c
            n = v.bit_length() - p  # bit_length reads |v|
            entries.append(((v + (1 << (n - 1))) >> n, f + n) if n > 0 else (v, f))
    e = min([s for q, s in entries if q], default=0)
    q = [m << (s - e) if m else 0 for m, s in entries]
    return LatticeBasis3(((q[0], q[3], q[6]), (q[1], q[4], q[7]), (q[2], q[5], q[8])), exp + e)


def _embedding(order: CubicOrderData, coeffs, prec: int) -> LatticeBasis3:
    """The order lattice in the basis g_k(theta) for the coefficient
    vectors coeffs[k] = (u0, u1, u2) over the power basis, g_k(x) = u0 + u1
    x + u2 x^2: column k is disc^(-1/6) (g_k(theta_i))_i, each entry within
    a relative 2^-(prec+30) of its value at the stored roots.

    g_k is evaluated exactly on the roots' dyadic images, so a combination
    that cancels loses no bits. disc^(-1/6) is one correctly rounded
    integer sixth root at w = prec + 32 bits (_sixth_root), and each entry
    is its exact product with the integer g_k(theta_i), rounded once at w
    bits (_rounded_basis): two relative errors of at most 2^-w each. The
    image's exact determinant n 2^e must be +-1 up to 2^-(prec // 2),
    which is checked on integers, scaled by a power of two."""
    w = prec + 32
    (one, *ms), e = dyadic([1, *(r.value for r in order.roots)])  # theta_i = m_i / one
    _, man, f, _ = _sixth_root(1, order.disc, w)
    rows = [[u0 * one * one + u1 * m * one + u2 * m * m for u0, u1, u2 in coeffs] for m in ms]
    basis = _rounded_basis([(man, f)] * 3, rows, 2 * e, w)
    n, e, h = _det3(basis.cols), 3 * basis.exp, prec // 2  # det = n 2^e
    z = max(0, -e)  # | |det| - 1 | > 2^-h, times 2^(h + z): all integers
    if abs((abs(n) << (e + h + z)) - (1 << (h + z))) > 1 << z:
        det = fraction_to_mpf(n * Fraction(2) ** e, 64)
        raise InternalInconsistencyError(
            f"embedding determinant {mp.nstr(det, 12)} is not unimodular")
    return basis


def embed_order_lattice(order: CubicOrderData, prec: int | None = None) -> LatticeBasis3:
    """Unimodular embedding: column j is disc^{-1/6} * (theta_i^j)_i, the
    power basis's case of _embedding at prec bits (prec defaults to the
    order's target bits). The pipeline builds its embedding through
    _prereduced and the height reads none; this name stays as the call
    site the benchmark's tracer patches."""
    if prec is None:
        prec = order.policy.target_bits
    elif prec < 8:
        raise InvalidParamsError(f"embedding precision must be at least 8 bits, got {prec}")
    return _embedding(order, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), prec)


def _exp_act(x, basis: LatticeBasis3, p: int) -> LatticeBasis3:
    """Action of the diagonal flow: row i of the basis scales by e^{x_i},
    for x three raw mpf tuples, at p bits.

    e^{x_i} is one mpf exp, and entry (i, j) of the result is the exact
    product of its mantissa with the integer entry cols[j][i], rounded once
    to p bits (_rounded_basis), so it is within a relative 2^-p of e^{x_i}
    (rounded) times the entry.
    """
    return _rounded_basis([mpf_exp(t, p, round_nearest)[1:3] for t in x], zip(*basis.cols), basis.exp, p)


def _scaled_float(n: int, shift: int) -> float:
    """n * 2^-shift as a float64, also for n beyond the float range: n is
    floored to its 64 leading bits, then rounded to nearest, so the result
    is within a relative 2^-53 + 2^-63 (+ 2^-116) of n 2^-shift. The
    dual weight and the certified margin read such floats, among the
    roundings _MARGIN_ROUND covers; the minima never do."""
    x = n.bit_length() - 64
    return math.ldexp(float(n >> x), x - shift) if x > 0 else math.ldexp(float(n), -shift)


def shortest_vector_norm(basis: LatticeBasis3, prec: int = 192) -> mp.mpf:
    """Certified euclidean length of a shortest nonzero lattice vector.

    The Gram matrix of the basis's exact integer image is reduced greedily
    in exact arithmetic (LatticeBasis3._minimum), so the first reduced
    vector's exact integer norm is lambda_1^2 of the lattice the columns
    span; its square root is rounded once at prec bits (to nearest). The
    minima stay on the basis, where _certified_norm reads lambda_2^2 and
    the shortest vector.
    """
    return mp.make_mpf(mpf_sqrt(from_man_exp(basis._minimum[1], 2 * basis.exp), prec, round_nearest))


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


def _sixth_root(num: int, den: int, prec: int):
    """(num / den)^(1/6) for integers num, den > 0, correctly rounded at prec
    bits (to nearest), as a raw mpf. Its floor at k fraction bits has prec
    + 4 bits or more and is exact on integers, and a sticky bit marks it
    inexact, so its one rounding is correct (as shapes._tau rounds Im
    tau)."""
    k = max(0, prec + 4 - (num.bit_length() - den.bit_length()) // 6)
    num <<= 6 * k
    s = _icbrt(math.isqrt(num // den))  # floor((num / den)^(1/6))
    return from_man_exp(2 * s + (s ** 6 * den != num), -k - 1, prec, _RND)


def lattice_height(order: CubicOrderData, prec: int | None = None) -> mp.mpf:
    """ht = 1 / lambda_1 of the order lattice, correctly rounded at prec
    bits (to nearest; prec defaults to the order's target bits).

    The lattice's Gram matrix in the power basis is disc^(-1/3) T, T the
    exact integer trace form (_trace_form), so ht = (disc / n0^3)^(1/6)
    with n0 the minimum of T on Z^3 - 0, from one exact reduction of T
    (_reduced_trace_form) and one integer sixth root (_sixth_root). It
    reads no root, no embedding and no ambient precision."""
    if prec is None:
        prec = order.policy.target_bits
    elif prec < 8:
        raise InvalidParamsError(f"height precision must be at least 8 bits, got {prec}")
    return mp.make_mpf(_sixth_root(order.disc, _reduced_trace_form(order)[0][0] ** 3, prec))


def make_simplex(v1: LogVector, v2: LogVector, prec: int) -> SimplexSet:
    """The triple (v1, v2 - v1, -v2): sums to zero, spans the same lattice
    as (v1, v2), and its hexagonal fundamental domain drives the mass
    predictions. The two derived alphas are rounded once to prec bits
    (_rounded); the span check computes at prec bits, and charges the
    errors of a1 and a2."""
    # raw tuples at prec bits, each step as mpmath's operator takes it
    # (units.py)
    p = prec
    a1 = v1
    a2 = _rounded(v2 - v1, mpf_add(v2.err._mpf_, v1.err._mpf_, p, _RND), p)
    a3 = _rounded(-v2, v2.err._mpf_, p)
    cross = mpf_sub(mpf_mul(a1.x1._mpf_, a2.x2._mpf_, p, _RND), mpf_mul(a1.x2._mpf_, a2.x1._mpf_, p, _RND), p, _RND)
    norms = []  # |a1| and |a2|
    for a in (a1, a2):
        sq = [mpf_mul(x._mpf_, x._mpf_, p, _RND) for x in a.coords]  # x ** 2 rounds x x once
        norms.append(mpf_sqrt(mpf_add(mpf_add(sq[0], sq[1], p, _RND), sq[2], p, _RND), p, _RND))
    scale = _max1(norms) or fone  # max(|a1|, |a2|, 1): only its value enters
    # a2.err charges a2's own rounding at p bits
    errs = mpf_mul_int(mpf_add(a1.err._mpf_, a2.err._mpf_, p, _RND), 8, p, _RND)
    if mpf_le(mpf_abs(cross, p, _RND), mpf_mul(errs, scale, p, _RND)):
        raise DependentUnitsError("simplex vectors do not span the plane")
    return SimplexSet(a1, a2, a3)


def _rounded(v: LogVector, err, p: int) -> LogVector:
    # v's coordinates rounded once at p bits, charged the raw error err plus
    # 2^-(p-2) max(1, |x_i|), which covers that rounding
    x = [mpf_pos(t._mpf_, p, _RND) for t in v.coords]
    slack = mpf_shift(_max1([mpf_abs(t) for t in x]) or fone, -(p - 2))
    return LogVector(*map(mp.make_mpf, x), mp.make_mpf(mpf_add(err, slack, p, _RND)))


def _order_simplex(order: CubicOrderData, v1: LogVector, v2: LogVector) -> SimplexSet:
    """make_simplex(v1, v2, ROW_BITS) for the log vectors v1 and v2 of the
    order's first two verified units; the order memoises it keyed by the
    width ROW_BITS it is made at, so a member's ceiling and its mass stage
    share one, and a call at another width makes its own."""
    if ROW_BITS not in order._simplex:
        order._simplex[ROW_BITS] = make_simplex(v1, v2, ROW_BITS)
    return order._simplex[ROW_BITS]


@cache
def _thirds(p: int):
    # 1/3 and 2/3, each as mp.mpf(k) / 3 rounds it at p bits
    return tuple(mpf_div(from_int(k), from_int(3), p, _RND) for k in (1, 2))


def hex_domain(phi: SimplexSet, prec: int) -> HexDomain:
    """Fundamental hexagon of the lattice translates of the simplex set:
    vertices are the barycentric {0,1/3,2/3} permutations of the alphas;
    ceiling is the largest coordinate over all vertices. The six vertices
    share 18 distinct products (weight 1/3 or 2/3 times a coordinate),
    each rounded once to prec bits, and each vertex coordinate is one
    correctly rounded sum of two of them; raw tuples throughout."""
    p = prec
    alphas = (phi.alpha1, phi.alpha2, phi.alpha3)
    # terms[k][i]: weight k/3 times alpha_i; the zero-weight term is left
    # out, as adding an exact zero returns the other unchanged
    terms = [None] + [[[mpf_mul(w, x._mpf_, p, _RND) for x in alpha.coords] for alpha in alphas]
                      for w in _thirds(p)]
    verts = []
    for perm in itertools.permutations(range(3)):
        a, b = (terms[k][i] for i, k in enumerate(perm) if k)
        verts.append([mpf_add(x, y, p, _RND) for x, y in zip(a, b)])
    # the first maximal coordinate; sum() starts from the int 0, so it
    # rounds its first term
    ceiling = reduce(lambda m, x: x if mpf_gt(x, m) else m, itertools.chain(*verts))
    err = reduce(lambda s, a: mpf_add(s, a.err._mpf_, p, _RND), alphas, fzero)
    return HexDomain(tuple(tuple(map(mp.make_mpf, v)) for v in verts), mp.make_mpf(ceiling), mp.make_mpf(err))


def check_tight(hd: HexDomain, ht, big_r, r, prec: int) -> bool:
    """Whether exp(r * ceiling) <= ht * R holds with certified slack for
    the hexagon hd (`hex_domain`), each step rounded at prec bits: the
    ceiling is read as hd.ceiling + hd.ceiling_err, so a True answer
    survives the recorded numeric error, and any doubt reports False."""
    ht, big_r, r = (fraction_to_mpf(x, prec) if isinstance(x, Fraction) else mp.mpf(x, prec=prec)
                    for x in (ht, big_r, r))
    if big_r < 1 or not (0 <= r <= 1):
        raise InvalidParamsError("need R >= 1 and r in [0, 1]")
    p = prec
    lhs = mpf_exp(mpf_mul(r._mpf_, mpf_add(hd.ceiling._mpf_, hd.ceiling_err._mpf_, p, _RND), p, _RND), p, _RND)
    rhs = mpf_mul(mpf_mul(ht._mpf_, big_r._mpf_, p, _RND), mpf_sub(fone, mpf_shift(fone, -40), p, _RND), p, _RND)
    return mpf_le(lhs, rhs)


@lru_cache(maxsize=16)
def _hexagon_rows(samples: int) -> tuple[int, tuple[range, ...]]:
    """(k, rows): the hexagon_grid points as integer pairs (u, v) standing
    for (u/k, v/k), over the common denominator k = 3m; rows[u + 2m] is the
    range of v in row u, for u = -2m..2m. Memoised per samples; the rows
    are a tuple, so no caller can change the shared value."""
    if samples < 1:
        raise InvalidParamsError("samples must be >= 1")
    m = max(1, math.isqrt(max(0, samples - 1) // 9))
    while 9 * m * m + 3 * m + 1 < samples:  # the point count at dilation m
        m += 1
    k = 3 * m
    # the six edges of the scaled hexagon with vertices m*(2,1), m*(1,2),
    # m*(-1,1), m*(-2,-1), m*(-1,-2), m*(1,-1) are |u+v| <= 3m,
    # |2v-u| <= 3m and |v-2u| <= 3m, which bound v in each row u
    return k, tuple(range(max(-k - u, -((k - u) // 2), 2 * u - k),
                          min(k - u, (k + u) // 2, k + 2 * u) + 1)
                    for u in range(-2 * m, 2 * m + 1))


def hexagon_grid(samples: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational sample points of the coefficient hexagon:
    integer points of the m-dilated, 3x-scaled hexagon, mapped back by
    1/(3m), with m the smallest dilation giving at least `samples` points.
    Row-major (u, v) order."""
    k, rows = _hexagon_rows(samples)
    top = 2 * k // 3
    coord = {a: Fraction(a, k) for a in range(-top, top + 1)}
    return [(coord[u], coord[v]) for u, row in enumerate(rows, -top) for v in row]


_STAYS, _ESCAPES = 1, 2  # sweep verdicts: height at most H, or above H


@dataclass(frozen=True)
class _Alphas:
    """alpha1 and alpha2 of a simplex, read once for the mass sweep:
    ints[j][m] 2^e is coordinate m of alpha_{j+1} exactly (one dyadic
    image), floats[j][m] its float64, errs their error bounds (raw mpf)
    and err the float64 of the larger."""

    ints: tuple[list[int], list[int]]
    e: int
    floats: tuple[list[float], list[float]]
    errs: tuple
    err: float

    @classmethod
    def of(cls, phi: SimplexSet) -> "_Alphas":
        one, two = phi.alpha1, phi.alpha2
        ints, e = dyadic(one.coords + two.coords)
        return cls((ints[:3], ints[3:]), e, ([float(c) for c in one.coords], [float(c) for c in two.coords]),
                   (one.err._mpf_, two.err._mpf_), float(max(one.err, two.err)))


def _radius(n: int, e: int, sg: int) -> float | None:
    """sg log x for the dyadic x = n 2^e if sg (x - 1) > 0, compared
    exactly, else None. x is rounded once to a float64 for the log (to
    nearest, so within a relative 2^-53, or inf past the float range),
    within what _cover allows for r's error."""
    one, n = (1 << -e, n) if e < 0 else (1, n << e)
    if sg * (n - one) <= 0:
        return None
    try:
        return sg * math.log(n / one)  # int division rounds correctly
    except OverflowError:  # only x > 1 can be that large
        return math.inf


def mass_above_height(
    order: CubicOrderData,
    heights: tuple[float, ...] | list[float],
    samples: int = 10000,
) -> tuple[Fraction, ...]:
    """For each height H in `heights`, in order, the proportion of hexagon
    sample points x with ht(exp(x) L) > H.

    The state is the torus: k rows of k cells, the grid point (a, b) in cell
    (a mod k, b mod k). Moving by a unit's log vector changes the lattice by
    an isometry (see the module docstring), so one verdict decides every
    grid point of its cell. Each height first runs the unit rows
    (_unit_rows): every cell where some unit monomial is certified shorter
    than 1/H is marked escaped, one convex interval per extended row. The
    centre walk then visits only the points whose cell is still open
    (_open_points): the deep holes (2m, m) and (m, 2m), the origin, then
    descending 2-adic valuation of gcd(a, b), then grid order. It settles
    each with one certified kernel call (_certified_norm), whose verdict
    covers every cell in the one-sided region it proves (_cover): no
    coordinate of the offset above the radius for escape, none below minus
    the radius for no escape. A non-unit can still be short, so the kernel
    keeps both verdicts. A centre in doubt covers nothing this way; its
    cell is recorded as in doubt at that height, and the walk visits no
    other point of it, since every point of a cell is the same lattice up
    to isometry. A cell in doubt still counts as open, and another
    centre's cover may yet decide it. An open cell raises, naming its
    first hexagon point. The count reads each hexagon row's cells, so a
    cell counts once per hexagon point in it, and it is exact for the
    decisions made; each verdict compares the exact dyadic (s -+ margin)
    H or (B - m_B) H with 1 (_radius).

    While points stay open, a centre x also gives B - m_B, below the least
    norm of a vector not parallel to its shortest vector v1, and a second,
    wider cover marks "at most H" on each open cell at p = x + d with min_i
    d_i > -log((B - m_B) H) where v1 is certified long: |exp(p) v1| >= 1/H.
    A vector w with |exp(p) w| < 1/H has |exp(x) w| < B - m_B, so w = n v1
    with n != 0 (v1 is primitive), and |exp(p) w| >= |exp(p) v1|. That
    reads nothing of x's own verdict, so the walk's one decided centre,
    the origin, runs this wide cover alone; at the origin v1 is the unit
    1, and the cover settles the band the unit rows leave around every
    unit translate.

    The hexagon is the order's own: its simplex is make_simplex of the log
    vectors of the first two verified units, at the rows' width ROW_BITS,
    as the CLI's ceil_w reads it, and the unit rows, the cover and the
    certified norm share one read of its alphas (_Alphas); every other
    step reads only the order's bits. Only the unit rows and the walk read
    the height, so everything else is built once per call: every height
    shares one grid, one cover and one certified norm per centre. The
    simplex is the order's own memo (_order_simplex), which the CLI's
    ceil_w made already. No point has infinite height, so H = inf has
    fraction 0.
    """
    if not heights or any(not h > 1 for h in heights):  # NaN fails this too
        raise InvalidParamsError("need at least one height threshold, each above 1")
    if len(order.units) < 2:
        raise InvalidParamsError("the member has fewer than two verified units")
    k, rows = _hexagon_rows(samples)
    alphas = _Alphas.of(_order_simplex(order, *(log_embed(order, a, b) for a, b in order.units[:2])))
    cover, certified_norm = _cover(alphas, k), _certified_norm(order, alphas, k)
    unit_rows = _unit_rows(order, alphas, k)
    top = 2 * k // 3
    fractions = []
    for height in heights:
        if height == math.inf:
            fractions.append(Fraction(0))
            continue
        # state[a % k][b % k] is the torus cell of grid point (a, b), 0 while open
        state = [bytearray(k) for _ in range(k)]
        unit_rows(state, height)
        hn, hd = float(height).as_integer_ratio()
        hx = 1 - hd.bit_length()  # H = hn 2^hx
        doubt = set()  # the cells (a mod k, b mod k) of centres that decided nothing
        for a, b in _open_points(state, rows, doubt):
            s, margin, e, floor = certified_norm(a, b)
            if not state[a % k][b % k]:  # only the origin comes decided: its wide cover alone
                if (r := _radius((s - margin) * hn, e + hx, 1)) is not None:
                    cover(state, a, b, r, _STAYS)
                elif (r := _radius((s + margin) * hn, e + hx, -1)) is not None:
                    cover(state, a, b, r, _ESCAPES)
            if any(0 in marks for marks in state):  # a wide cover marks open cells only
                wide, we, v1 = floor()
                if (r := _radius(wide * hn, we + hx, 1)) is not None:
                    cover(state, a, b, r, _STAYS, v1, height)
            if not state[a % k][b % k]:
                doubt.add((a % k, b % k))
        if any(0 in marks for marks in state):
            point = next((Fraction(u, k), Fraction(v, k)) for u, row in enumerate(rows, -top)
                         for v in row if not state[u % k][v % k])
            raise PrecisionExhaustedError(
                f"height vs {height} undecidable within error bounds near {point}; "
                "rebuild the order with a finer precision policy")
        escaped = 0
        for u, row in enumerate(rows, -top):
            marks = state[u % k]
            for start, stop in _slices(row.start, row.stop - 1, k):
                escaped += marks.count(_ESCAPES, start, stop)
            if len(row) > k:  # k + 1 points: the two ends share a cell
                escaped += marks[row.start % k] == _ESCAPES
        fractions.append(Fraction(escaped, sum(map(len, rows))))
    return tuple(fractions)


def _slices(lo: int, hi: int, k: int) -> tuple[tuple[int, int], ...]:
    """The torus cells of the points lo..hi (lo <= hi) of an extended row,
    as slices (start, stop) of a torus row of length k: the whole row when
    hi - lo >= k - 1, else one slice, or two where the interval wraps."""
    if hi - lo >= k - 1:
        return ((0, k),)
    start = lo % k
    stop = start + hi - lo + 1
    return ((start, stop),) if stop <= k else ((start, k), (0, stop - k))


def _open_points(state: list[bytearray], rows: tuple[range, ...], doubt: set):
    """The grid points (a, b) whose torus cell is still open (state 0), and
    not in doubt, when the walk reaches them: the deep holes (2m, m) and
    (m, 2m), k = 3m, then the origin, then each level s = 2^j of the 2-adic
    valuation of gcd(a, b), highest first, row-major within a level, which
    never holds the origin. The deep holes are one vertex from each of the
    hexagon's two classes of three vertices, which the torus glues into one
    point each; in the hexagon's own norm they lie farthest from the
    origin's translates, where the origin's covers reach last. The origin
    is the anchor: it comes once, while any cell is open, even when its own
    cell is decided, since its wide cover alone settles the band the unit
    rows leave; it comes after the deep holes, whose cells that cover would
    otherwise mark before their own wider covers ran. The state and the
    cells in doubt are read as the walk goes, so a point whose cell was
    marked, or put in doubt, after an earlier visit is skipped. A row whose
    torus row has no open cell is passed over before its level's points are
    sliced out of the row's cells, read in v order; bytearray.find on them
    jumps over decided runs."""
    k = len(state)
    top, m = 2 * k // 3, k // 3
    for a, b in ((2 * m, m), (m, 2 * m)):
        if not state[a % k][b % k]:
            yield a, b
    if any(0 in marks for marks in state):
        yield 0, 0
    s = 1 << top.bit_length()  # above every |a|, |b| <= top
    while s > 1:
        s >>= 1
        for a in range(-(top // s) * s, top + 1, s):
            row, marks = rows[a + top], state[a % k]
            if 0 not in marks:  # marks are never cleared: the row stays decided
                continue
            # the lowest set bit of gcd(a, b) is s: b any multiple of s when
            # a has bit s, else an odd one
            b = -(-row.start // s) * s
            if not (a | b) & s:
                b += s
            first, step = b - row.start, s if a & s else 2 * s
            start = row.start % k  # the row's at most k + 1 cells, in v order
            level = (marks + marks)[start + first:start + len(row):step]
            pos = level.find(0)
            while pos >= 0:
                v = b + pos * step
                if not marks[v % k] and (a % k, v % k) not in doubt:
                    yield a, v
                pos = level.find(0, pos + 1)


def _unit_rows(order: CubicOrderData, alphas: _Alphas, k: int):
    """unit_rows(state, height) -> [(u, vmin, vmax, lo, hi)]: mark
    _ESCAPES on every torus cell where some unit monomial is certified
    shorter than 1/height, and return, per row u of the extended grid (u
    alpha1 + v alpha2) / k (u and v any integers) that the search reaches,
    the bounds vmin < v < vmax it searched and the certified interval
    lo..hi (empty when lo > hi) it found.

    The unit monomial eps = eps1^i eps2^j has log vector y = i alpha1 + j
    alpha2 and exactly known norm |exp(x) eps|^2 = disc^{-1/3} sum_m
    exp(2 (x + y)_m). At the grid point (a, b), x + y is the extended point
    (a + ik, b + jk), a point of the same torus cell, so the cell escapes
    by eps exactly when that extended point lies in the one set E = {z :
    disc^{-1/3} sum_m exp(2 z_m) < 1/H^2}. E lies inside the triangle z_m <
    R = log(disc^{1/3} / H^2) / 2 on every m, and vmin < v < vmax bounds
    that triangle on row u (widened by a relative and an absolute 2^-20),
    so only monomials that put some grid point of a row inside those
    bounds can be short there, and every other one is long. Along a row the sum is convex in v (three
    exponentials of functions affine in v), so E meets each row in one
    interval: float64 Newton from each end of the bounds finds its ends,
    which are rounded inward to integers and certified by the float test
    below; by convexity that certifies every point between them. An end
    that fails the test steps inward; after three failures the row is
    left to the kernel. The widest rows go first, and a row whose torus
    row u mod k is all marked already is not solved.

    Each row costs a few float operations. Once per member: the split of
    the coordinates by the sign of alpha2_m, so vmax (vmin) is the least
    (greatest) of at most two bounds (wide - s alpha1_m) k / alpha2_m.
    Once per row: s alpha1_m, which Newton's offsets and each end's test
    share. A certified interval lo..hi marks the cells v mod k of torus row
    u mod k, as one or two slices of one preallocated buffer (_slices), or
    the whole row when it holds k points or more.

    The test at the extended point c = (s, t) = (u, v) / k, in float64
    with eps = _EPS: the exponents 2 (s alpha1_m + t alpha2_m) are off from
    their exact values by at most 2 delta, delta = (|s| + |t|) (alpha_err +
    3 eps A), where alpha_err bounds the alphas' own error and A = max_m
    max(|alpha1_m|, |alpha2_m|); 3 eps (|s| + |t|) A covers rounding the
    alphas and c to float64 and the two-term dot product. Each w_m = exp(2
    z_m) is then off by a relative e^{2 delta} - 1, plus the exp call
    (budgeted at 4 eps), the three-term sum (3 eps/2), dscale (one
    correctly rounded sixth root, _sixth_root: eps/2, budgeted at eps) and
    the product (eps/2);
    cutoff = (1/H)^2 is off by 3 eps/2. The alphas have trace zero, so some z_m >= 0 and
    the exact sum is at least 1, which bounds what underflow drops. So the
    true squared norm over the cutoff is within a factor 1 + err, err = 3
    delta + 25 eps, of the float one either way, for err up to about 1e-6:
    an end passes when the float norm is below cutoff (1 -
    _UNIT_HEADROOM), with err <= _UNIT_HEADROOM. An exponential that
    overflows fails the test.
    """
    a1, a2 = alphas.floats
    dscale = to_float(_sixth_root(1, order.disc ** 2, 53))  # disc^(-1/3), correctly rounded
    det = a1[0] * a2[1] - a1[1] * a2[0]

    (x0, x1, x2), (y0, y1, y2) = a1, a2
    q0, q1, q2 = (2.0 * y / k for y in a2)  # d/dv of the exponents 2 z_m

    grow = 3 * (alphas.err + 3 * _EPS * max(map(abs, a1 + a2)))  # err per unit |s| + |t|
    # the at most two coordinates that bound v above (alpha2_m > 0), and
    # below (< 0); a lone one is taken twice
    ups = [(x, y) for x, y in zip(a1, a2) if y > 0]
    downs = [(x, y) for x, y in zip(a1, a2) if y < 0]
    (xa, ya), (xb, yb), (xc, yc), (xd, yd) = ups * (3 - len(ups)) + downs * (3 - len(downs))
    fill = memoryview(bytes([_ESCAPES]) * k)

    def end(c0, c1, c2, v, sg, stop):
        """Float64 Newton on g(v) = log sum_m exp(c_m + q_m v), convex,
        from v, where g > 0, towards its root on the side sg of the
        minimum (sg = +1: the larger root); None when g stays positive
        before `stop`."""
        for _ in range(64):
            w0, w1, w2 = math.exp(c0 + q0 * v), math.exp(c1 + q1 * v), math.exp(c2 + q2 * v)
            total = w0 + w1 + w2
            g = math.log(total)
            if g <= 0:
                return v
            slope = (q0 * w0 + q1 * w1 + q2 * w2) / total
            if not sg * slope > 0:  # past the minimum: g > 0 all the way
                return None
            step = g / slope
            v -= step
            if sg * (v - stop) < 0:
                return None
            if abs(step) < 2.0 ** -10:  # v is off the root by about step^2
                return v
        return v

    def unit_rows(state: list[bytearray], height: float) -> list[tuple]:
        cutoff = (1.0 / float(height)) ** 2
        out = []
        if not cutoff > dscale:  # the sum is at least 1: no unit is short
            return out
        big_r = 0.5 * math.log(cutoff / dscale)
        wide = big_r * (1 + 2.0 ** -20) + 2.0 ** -20
        limit, headroom = cutoff * (1 - _UNIT_HEADROOM), _UNIT_HEADROOM
        # (u, vmin, vmax) for every extended row u that meets the triangle
        # z_m < wide, with vmin < v < vmax there; the triangle's vertices
        # are z = wide (1, 1, 1) - 3 wide e_m, in s
        corners = [((wide - 3 * wide * (m == 0)) * a2[1] - (wide - 3 * wide * (m == 1)) * a2[0])
                   / det for m in range(3)]
        spans = []
        for u in range(math.floor(min(corners) * k), math.ceil(max(corners) * k) + 1):
            s = u / k
            va, vb = (wide - s * xa) / ya * k, (wide - s * xb) / yb * k
            vc, vd = (wide - s * xc) / yc * k, (wide - s * xd) / yd * k
            vmin, vmax = (vd if vd > vc else vc), (vb if vb < va else va)
            if vmin < vmax:
                spans.append((u, vmin, vmax))
        # widest first: a row whose torus row is all marked already is skipped
        spans.sort(key=lambda b: b[1] - b[2])
        for u, vmin, vmax in spans:
            marks = state[u % k]
            lo, hi = 0, -1
            if 0 in marks:
                s = u / k
                sx0, sx1, sx2 = s * x0, s * x1, s * x2
                c0, c1, c2 = 2.0 * (sx0 - big_r), 2.0 * (sx1 - big_r), 2.0 * (sx2 - big_r)
                right = end(c0, c1, c2, vmax, 1, vmin)
                left = None if right is None else end(c0, c1, c2, vmin, -1, right)
                if left is not None:
                    lo, hi = math.ceil(left), math.floor(right)
                    # certify hi, then lo: an end that fails the float test
                    # steps inward, and a third failure leaves the row open
                    for e in (1, 0):
                        for _ in range(3):
                            if lo > hi:
                                break
                            t = (hi if e else lo) / k
                            try:
                                if ((abs(s) + abs(t)) * grow + 25 * _EPS <= headroom
                                        and dscale * (math.exp(2.0 * (sx0 + t * y0))
                                                      + math.exp(2.0 * (sx1 + t * y1))
                                                      + math.exp(2.0 * (sx2 + t * y2))) < limit):
                                    break
                            except OverflowError:  # fails the test
                                pass
                            lo, hi = (lo, hi - 1) if e else (lo + 1, hi)
                        else:
                            lo, hi = 0, -1
                            break
            if lo <= hi:  # the torus cells of the extended points (u, lo..hi)
                for start, stop in _slices(lo, hi, k):
                    marks[start:stop] = fill[:stop - start]
            out.append((u, vmin, vmax, lo, hi))
        return out

    return unit_rows


# The cover reads alpha1 and alpha2 as integer vectors at scale
# 2^_COVER_BITS, so the distance of every grid offset is exact.
_COVER_BITS = 64


def _round_shift(v: int, n: int) -> int:
    """round(v 2^-n) for n >= 1, ties to even: v = q 2^n + d, 0 <= d < 2^n,
    goes up when d > 2^(n-1), or d = 2^(n-1) and q is odd."""
    return (v + (1 << (n - 1)) - 1 + ((v >> n) & 1)) >> n


def _cover(alphas: _Alphas, k: int):
    """cover(state, a, b, r, mark, v1=None, height=None): set `mark` on the
    centre's torus cell (a mod k, b mod k) and on the cell of every point x
    + d of the extended grid whose offset d from it the verdict decides: sg
    d_i below r on every coordinate i, with sg = +1 for _ESCAPES (no
    coordinate grows by r) and -1 for _STAYS (none shrinks by r). r is a
    float that exceeds a proven radius by at most a relative 2 eps and an
    absolute 2 eps. The verdict holds at x + d, so at every translate of
    it, which is the cell.

    Grid points at offset (da, db) are (da alpha1 + db alpha2) / k apart,
    whatever the centre. A and B are the alphas' integer images, rounded in
    the first two coordinates and with trace zero, so each coordinate of
    A 2^-S is within e = 2 alpha_err + 2^-S of the exact alpha's, S =
    _COVER_BITS; the rows and their intervals are clipped to |da| + |db| <=
    (8/3) k, so sg (da A_i + db B_i) <= R proves sg d_i below R 2^-S / k +
    (8/3) e. Two points of the hexagon are at most 2k apart, so the clip
    keeps every offset between them, and the hexagon centred on x, which
    holds a translate of every cell, lies within k. That set is a triangle
    in (da, db): the three sums cancel, so each lies in [-2R, R], |da| <=
    2R max|B_i| / |det(A, B)|, and each extended row meets it in one
    interval of db, bounded above by the coordinates with sg B_i > 0 and
    below by those with sg B_i < 0. The interval's cells are one or two
    slices of the torus row (a + da) mod k, or the whole row (_slices).
    Two certified verdicts on a cell agree, so a covered cell is
    overwritten with its own mark; a disagreement is a bug.

    Each call sets up each side of the triangle once, as the least of at
    most two integer constraints db <= (R - da p) // q, so a row's interval
    is four exact floor divisions and a few comparisons. A verdict cover
    looks for a disagreeing mark in each slice with bytearray.find and
    fills it from one preallocated buffer; a wide cover skips a row with
    no open cell before it reads the row's bounds.

    Given v1 = (q_0, q_1, q_2, x_err) from _certified_norm's floor() and
    the height H, the cover is wide: it marks only cells in state 0, each
    tested once per row at its first offset db from the row's lower end,
    and of those only the ones where a float64 test certifies |exp(x + d)
    v1| >= 1/H, that is sum_m e^{2 d_m} (exp(x) v1)_m^2 >= 1/H^2. q_m bounds
    (exp(x~) v1)_m^2 from below at the rounded centre x~, within a relative
    eps, and x~ is off from x by at most x_err per coordinate, a factor
    e^{+-2 x_err} on each term. The test reads 2 d_m from the images as
    da a_m + db b_m, a_m and b_m the float64 of 2 A_m 2^-S / k and 2 B_m
    2^-S / k: off by 2 slack from the images and 5 eps diameter from the
    roundings. With delta = slack + 3 eps diameter + x_err, each term
    e^{2 d_m} (exp(x) v1)_m^2 is off from the float one by a relative e^{2
    delta} - 1, plus the exp call (4 eps), q_m (eps), the product (eps/2)
    and the sum (eps), and the cutoff (1/H)^2 (1 + _UNIT_HEADROOM) by 3 eps:
    as in _unit_rows, a cell passes when the float sum exceeds that cutoff,
    with err = 3 delta + 25 eps <= _UNIT_HEADROOM. r is capped at 100 and H
    at 2^300, so every term is a normal float: q_m is 0 or in [2^-600, 2],
    e^{2 d_m} in [e^-201, e^401], as d_m >= -r and the d_m sum to zero.
    """
    n = -alphas.e - _COVER_BITS  # the image is round(v 2^-n) per coordinate v 2^e

    def image(ints):
        x1, x2 = (v << -n if n <= 0 else _round_shift(v, n) for v in ints[:2])
        return x1, x2, -x1 - x2

    bound = 8 * k // 3  # |da| + |db| <= (8/3) k, as far as the images' error is charged
    img1, img2 = map(image, alphas.ints)
    det = abs(img1[0] * img2[1] - img1[1] * img2[0])
    bmax = max(abs(q) for q in img2)
    slack = 6 * alphas.err + 3 * 2.0 ** -_COVER_BITS
    # no offset within the clip moves a coordinate by more than (8/3) max|alpha_k|
    diameter = 3 * max(abs(c) for floats in alphas.floats for c in floats)
    (a0, a1, a2), (b0, b1, b2) = ([math.ldexp(q, 1 - _COVER_BITS) / k for q in img]
                                  for img in (img1, img2))
    spread = slack + 3 * _EPS * diameter  # the error of each float64 d_m

    fills = {mark: memoryview(bytes([mark]) * k) for mark in (_STAYS, _ESCAPES)}

    def cover(state: list[bytearray], a: int, b: int, r: float, mark: int,
              v1: tuple[float, float, float, float] | None = None,
              height: float | None = None) -> None:
        if v1 is None:
            state[a % k][b % k] = mark
        else:
            q0, q1, q2, x_err = v1
            if not (3 * (spread + x_err) + 25 * _EPS <= _UNIT_HEADROOM and height <= 2.0 ** 300):
                return
            cutoff = (1.0 / height) ** 2 * (1 + _UNIT_HEADROOM)
            r = min(r, 100.0)
        # 8 eps and 4 eps cover r's own error and the roundings here
        reach = math.floor((min(r, diameter) * (1 - 8 * _EPS) - 4 * _EPS - slack)
                           * k * 2.0 ** _COVER_BITS)
        if reach < 0:
            return
        sg = 1 if mark == _ESCAPES else -1
        # da p + db q <= reach on every coordinate; where q = 0 it bounds da alone
        pairs = [(sg * p, sg * q) for p, q in zip(img1, img2)]
        dhi = min(2 * reach * bmax // det, bound)
        dlo = -dhi
        for p, q in pairs:
            if q == 0 < p:
                dhi = min(dhi, reach // p)
            elif q == 0:  # then p < 0, as the alphas span the plane
                dlo = max(dlo, -(reach // -p))
        # each side of the triangle is the least of at most two constraints
        # on db, (reach - da p) // q with q > 0 (a lone one is taken twice):
        # above for db, below for -db
        above = [(p, q) for p, q in pairs if q > 0]
        below = [(p, -q) for p, q in pairs if q < 0]
        (pa, qa), (pb, qb) = above * (3 - len(above))
        (pc, qc), (pd, qd) = below * (3 - len(below))
        other, fill = _STAYS + _ESCAPES - mark, fills[mark]
        for da in range(dlo, dhi + 1):
            marks = state[(a + da) % k]
            if v1 is not None and 0 not in marks:
                continue
            ha, hb = (reach - da * pa) // qa, (reach - da * pb) // qb
            la, lb = (reach - da * pc) // qc, (reach - da * pd) // qd
            w = bound - abs(da)
            lo, hi = -(la if la < lb else lb), (ha if ha < hb else hb)
            lo, hi = (lo if lo > -w else -w), (hi if hi < w else w)
            if lo > hi:
                continue
            if v1 is not None:
                g0, g1, g2 = da * a0, da * a1, da * a2
            for start, stop in _slices(b + lo, b + hi, k):
                if v1 is not None:
                    i = marks.find(0, start, stop)
                    while i >= 0:
                        db = lo + (i - b - lo) % k  # the cell's offset in lo..hi
                        if (q0 * math.exp(g0 + db * b0) + q1 * math.exp(g1 + db * b1)
                                + q2 * math.exp(g2 + db * b2)) > cutoff:
                            marks[i] = mark
                        i = marks.find(0, i + 1, stop)
                elif marks.find(other, start, stop) >= 0:
                    raise InternalInconsistencyError("two certified verdicts disagree")
                else:
                    marks[start:stop] = fill[:stop - start]

    return cover


def _bits(order: CubicOrderData) -> int:
    return max(order.policy.target_bits, 192)


def _prereduced(order: CubicOrderData) -> LatticeBasis3:
    """The order lattice in a reduced basis, each entry within a relative
    2^-(bits+30) of its value at the stored roots: the exact reduction of
    the trace form (_reduced_trace_form) gives the coefficient vectors,
    and _embedding evaluates them exactly on the roots at the order's
    bits."""
    return _embedding(order, [u for _, u in _reduced_trace_form(order)], _bits(order))


def _dual_weight(basis: LatticeBasis3) -> float:
    """Upper bound on sum_k |m_k| |d_k| over the columns m_k and the dual
    basis d_k = (m_i x m_j) / det, (k, i, j) cyclic, with |det| >= 1/2 (it
    is 1 up to the embedding and flow errors); each cross-product entry is
    bounded without cancellation. Reads float64 of the integer columns
    (_scaled_float); the three terms are written out, summed k = 0, 1, 2."""
    a0, a1, a2, b0, b1, b2, c0, c1, c2 = (_scaled_float(abs(v), -basis.exp)
                                          for c in basis.cols for v in c)
    hypot = math.hypot
    return 2 * (hypot(a0, a1, a2) * hypot(b1 * c2 + b2 * c1, b2 * c0 + b0 * c2, b0 * c1 + b1 * c0)
                + hypot(b0, b1, b2) * hypot(c1 * a2 + c2 * a1, c2 * a0 + c0 * a2, c0 * a1 + c1 * a0)
                + hypot(c0, c1, c2) * hypot(a1 * b2 + a2 * b1, a2 * b0 + a0 * b2, a0 * b1 + a1 * b0))


# Relative factor by which _certified_norm rounds its float64 margin
# outward; it covers about ten float roundings (2^-53 each) with room.
_MARGIN_ROUND = 1 + 2.0 ** -40


def _certified_norm(order: CubicOrderData, alphas: _Alphas, k: int):
    """norm(a, b): (s, margin, e, floor) with |lambda_1(exp(x) L) - s 2^e|
    <= margin 2^e at the exact hexagon point x = (a alpha1 + b alpha2) / k,
    s and margin exact integers, and floor() -> (w, f, v1): w 2^f = B -
    m_B, a value below the least norm of a lattice vector not parallel to
    the kernel's shortest vector v1, and v1 as the wide cover reads it
    (_cover), (q_0, q_1, q_2, x_err). floor computes on its first call,
    since a centre that leaves no point open has no use for it. Memoised
    per (a, b), since no height enters it.

    Works at the order's own precision. The alphas come as exact dyadic
    images (_Alphas), so x_i = n_i 2^e / k with exact integer numerators n_i;
    their sum, the exact trace, is checked against x's error as LogVector
    checks its coordinates. Each coordinate of x is one integer quotient
    rounded to nearest, off by at most a relative 2^-bits, and x.err
    charges that, as 2^(1-bits) max|x_i|, and (|a| alpha1.err + |b|
    alpha2.err) / k. Each entry of `base` is within a relative
    2^-(bits+30) of its value at the stored roots (_prereduced, read when
    norm is made); _exp_act, given the rounded
    coordinates as raw mpf tuples, rounds each entry once and its exp is
    good to an ulp, so every entry of the moved basis M is
    within a relative delta = 2^-(bits-2) of exp(x) L's. A lattice vector
    M c has |c_k| = |<d_k, M c>| <= |M c| |d_k| (d the dual basis), so its
    norm in either basis differs by at most delta |M c| sum_k |m_k| |d_k|
    <= 4 D 2^-bits |M c|, D = _dual_weight(M), and so do the minima over
    any set of coefficient vectors; the kernel rounds its exact minimum
    twice (2^-(bits-1)); and 4 x.err s charges the error of x. The margin
    is s (8 D 2^-bits + 4 x.err): the second 4 D 2^-bits (D > 5, as |m_k|
    |d_k| >= <m_k, d_k> = 1) covers the kernel's rounding and D's own float
    rounding; what it also charged for mpf roundings of the margin and of
    the verdicts is now slack, as the margin is the exact product of s and
    the float bracket and every verdict is exact. The bracket is summed in
    float64, in units of 2^f with f at least the exponent of every alpha
    error term and at least -bits, so no term overflows; about ten roundings of nonnegative terms
    are charged by the factor _MARGIN_ROUND, and 2^-1000 units bound what
    underflow drops. Instead of a precision ladder, a tie inside that
    margin covers nothing and in the end asks for a finer order.

    The least norm B over the coefficient vectors not parallel to v1's is
    lambda_2 of M: two independent vectors reach lambda_2, and one of them
    is not parallel to v1. The kernel's greedy reduction
    (LatticeBasis3._minimum, _reduce) ends Minkowski-reduced, with v1 as
    its first vector and lambda_2^2 as its second vector's exact integer
    norm, so no second search runs. B, one mpf square root rounded at bits
    as s is, takes the same relative margin, so B - m_B = B (1 - margin /
    s), exactly. v1's own
    image w 2^e has every coordinate within 8 D 2^-bits |w| 2^e of exp(x~)
    v1's, x~ the rounded centre (the bound above,
    coordinate by coordinate); the integer gap is at least 8 D 2^-bits |w|,
    so (max(|w_m| - gap, 0) 2^e)^2 is at most (exp(x~) v1)_m^2, and q_m is
    its float64, within a relative eps, or 0 below 2^-600. x_err is x's
    error per coordinate as a float, with 2^-1000 for what underflow drops.
    """
    bits = _bits(order)
    (p1, p2), e = alphas.ints, alphas.e  # x_i = (a p1_i + b p2_i) 2^e / k
    t1, t2 = sum(p1), sum(p2)  # the alphas' exact traces, times 2^-e
    # each alpha error over k as mpf division rounds it at bits, read in
    # units of 2^f as a float64 (each at most 1)
    errs = [mpf_div(v, from_int(k), bits, _RND) for v in alphas.errs]
    f = max([-bits] + [x + bc for _, m, x, bc in errs if m])
    c1, c2 = (to_float(mpf_shift(v, -f), rnd=_RND) for v in errs)
    base = _prereduced(order)
    memo = {}

    def norm(a: int, b: int):
        if (a, b) in memo:
            return memo[a, b]
        ns = [a * u + b * v for u, v in zip(p1, p2)]
        xmax = _scaled_float(max(map(abs, ns)), -e) / k
        x_err = abs(a) * c1 + abs(b) * c2 + math.ldexp(xmax, 1 - bits - f)  # in units of 2^f
        trace = _scaled_float(abs(a * t1 + b * t2), -e) / k
        if trace > 3 * math.ldexp(x_err, f) and trace > 2.0 ** -24 * max(1.0, xmax):
            raise InvalidParamsError(f"centre coordinates sum to {trace:.8g}, beyond 3*err")
        moved = _exp_act([mpf_shift(from_rational(n, k, bits, round_nearest), e) for n in ns],
                         base, bits)
        _, man, sx, _ = shortest_vector_norm(moved, bits)._mpf_  # s = man 2^sx
        weight = _dual_weight(moved)
        rel = (math.ldexp(weight, 3 - bits - f) + 4 * x_err) * _MARGIN_ROUND
        r, one = (rel + 2.0 ** -1000).as_integer_ratio()  # margin / s = r / one, exactly
        r, one = (r << f, one) if f >= 0 else (r, one << -f)
        shift = one.bit_length() - 1  # one = 2^shift

        @cache
        def floor() -> tuple[int, int, tuple[float, float, float, float]]:
            v1, n1, n2 = moved._minimum
            num, den = weight.as_integer_ratio()
            gap = -(-num * (math.isqrt(n1) + 1) // (den << (bits - 3)))
            squares = []
            for w in v1:  # v1's image
                w = max(abs(w) - gap, 0)
                q = _scaled_float(w * w, -2 * moved.exp)
                squares.append(q if q >= 2.0 ** -600 else 0.0)
            _, bman, bx, _ = mpf_sqrt(from_man_exp(n2, 2 * moved.exp), bits, round_nearest)
            return bman * (one - r), bx - shift, (*squares, math.ldexp(x_err, f) + 2.0 ** -1000)

        return memo.setdefault((a, b), (man * one, man * r, sx - shift, floor))

    return norm
