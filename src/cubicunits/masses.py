"""Escape of mass along compact diagonal orbits.

The order embeds as a unimodular lattice in R^3 (rows indexed by the real
places, columns by the power basis, scaled by disc^{-1/6}); the diagonal
flow acts by exponentials of trace-zero vectors. Height of a point is the
reciprocal of the shortest nonzero vector, the mass above height H is the
proportion of a fundamental hexagon of the unit action whose points have
height > H, and the expected escape rate is checked against the ceiling of
the hexagon through check_tight.

Heights are certified: a floating Lenstra-Lenstra-Lovasz pass only
preconditions the basis, the minimum itself comes from a complete
Fincke-Pohst enumeration below a proven bound, with directed rounding
slack on every comparison. The mass scan additionally uses a float64
short-vector *exhibit* (unit monomials near the sample point) to prove
escape cheaply, with a derived bound on its float error that must fit a
stated headroom; only points the exhibit cannot settle fall through to the
certified path.

The certified path is a cover by Lipschitz cells. Moving x by d in the
sup norm scales every coordinate of exp(x) v by at most e^d, so
log lambda_1(exp(x) L) is 1-Lipschitz in that norm. One enumeration at a
centre p, giving lambda_1 within [s - m, s + m] (m charges the
enumeration's rounding and the error of x), therefore decides every point
within sup-distance log((s - m) H) (no escape) or -log((s + m) H)
(escape) of p. A point counts as covered only when its float64 distance
to p, plus both points' position errors and the distance's own rounding,
stays below that radius. Centres are taken coarse to fine over the
unsettled points; a centre in doubt covers nothing, and a point no
certified value covers raises PrecisionExhaustedError.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import (
    DependentUnitsError,
    InternalInconsistencyError,
    InvalidParamsError,
    PrecisionExhaustedError,
)
from .units import CubicOrderData, LogVector, log_embed

__all__ = [
    "LatticeBasis3",
    "SimplexSet",
    "HexDomain",
    "embed_order_lattice",
    "exp_act",
    "shortest_vector_norm",
    "lattice_height",
    "make_simplex",
    "make_simplex_min_ceiling",
    "hex_domain",
    "check_tight",
    "tightness_exponent",
    "hexagon_grid",
    "mass_above_height",
]

# Relative headroom below the cutoff that the float64 exhibit must clear
# before it counts a point as escaped; mass_above_height derives the float
# error it has to cover.
_EXHIBIT_HEADROOM = 1e-9

_EPS = sys.float_info.epsilon  # float64 machine epsilon, 2^-52


@dataclass(frozen=True)
class LatticeBasis3:
    """Columns of a 3x3 real basis, with a bound on the determinant error."""

    mat: mp.matrix
    det_err: mp.mpf

    def column(self, j: int):
        return [self.mat[i, j] for i in range(3)]


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


def embed_order_lattice(order: CubicOrderData, prec: int | None = None) -> LatticeBasis3:
    """Unimodular embedding: column j is disc^{-1/6} * (theta_i^j)_i."""
    prec = prec or order.policy.target_bits
    with mp.workprec(prec + 32):
        scale = mp.power(mp.mpf(order.disc), mp.mpf(-1) / 6)
        cols = []
        for j in range(3):
            cols.append([scale * r.value ** j for r in order.roots])
        m = mp.matrix(3, 3)
        for j in range(3):
            for i in range(3):
                m[i, j] = cols[j][i]
        det = mp.det(m)
        tol = mp.ldexp(1, -(prec // 2))
        if abs(abs(det) - 1) > tol:
            raise InternalInconsistencyError(
                f"embedding determinant {mp.nstr(det, 12)} is not unimodular")
        return LatticeBasis3(m, tol)


def exp_act(x: LogVector, basis: LatticeBasis3) -> LatticeBasis3:
    """Action of the diagonal flow: row i of the basis scales by e^{x_i}."""
    m = mp.matrix(3, 3)
    for i in range(3):
        e = mp.exp(x.coords[i])
        for j in range(3):
            m[i, j] = e * basis.mat[i, j]
    return LatticeBasis3(m, basis.det_err)


def _gram_schmidt(cols):
    """Returns (mu, bstar_sq) for the column list; plain mpf arithmetic."""
    n = len(cols)
    mu = [[mp.mpf(0)] * n for _ in range(n)]
    bstar = [list(c) for c in cols]
    bsq = [mp.mpf(0)] * n
    for i in range(n):
        for j in range(i):
            dot = sum(cols[i][k] * bstar[j][k] for k in range(3))
            mu[i][j] = dot / bsq[j] if bsq[j] != 0 else mp.mpf(0)
            for k in range(3):
                bstar[i][k] -= mu[i][j] * bstar[j][k]
        bsq[i] = sum(v * v for v in bstar[i])
    return mu, bsq


def _lll(cols, delta=None):
    """Lenstra-Lenstra-Lovasz reduction of three 3-vectors (list of lists of
    mpf), delta = 0.99. Only a preconditioner: correctness of the final
    minimum never depends on the reduction quality."""
    delta = delta if delta is not None else mp.mpf(99) / 100
    cols = [list(c) for c in cols]
    n = len(cols)
    mu, bsq = _gram_schmidt(cols)
    k = 1
    guard = 0
    while k < n:
        guard += 1
        if guard > 10 ** 6:
            raise InternalInconsistencyError("basis reduction did not terminate")
        for j in range(k - 1, -1, -1):
            q = mp.nint(mu[k][j])
            if q != 0:
                for t in range(3):
                    cols[k][t] -= q * cols[j][t]
                mu, bsq = _gram_schmidt(cols)
        if bsq[k] >= (delta - mu[k][k - 1] ** 2) * bsq[k - 1]:
            k += 1
        else:
            cols[k], cols[k - 1] = cols[k - 1], cols[k]
            mu, bsq = _gram_schmidt(cols)
            k = max(k - 1, 1)
    return cols


def shortest_vector_norm(basis: LatticeBasis3, prec: int = 192) -> mp.mpf:
    """Certified euclidean length of a shortest nonzero lattice vector.

    LLL preconditions, then Fincke-Pohst enumerates every coefficient
    vector whose norm can be below the best bound found so far. The
    enumeration radius gets a relative pad of 2^-(prec/2) so mpf rounding
    cannot prune the true minimizer.
    """
    with mp.workprec(prec):
        cols = [basis.column(j) for j in range(3)]
        red = _lll(cols)
        mu, bsq = _gram_schmidt(red)
        if min(bsq) <= 0:
            raise InternalInconsistencyError("degenerate basis in enumeration")
        best = min(sum(v * v for v in c) for c in red)
        pad = 1 + mp.ldexp(1, -(prec // 2))
        bound = best * pad
        # norm^2 = sum_i bsq[i] * (c_i + sum_{j>i} mu[j][i] c_j)^2
        r3 = int(mp.floor(mp.sqrt(bound / bsq[2]))) + 1
        if r3 > 10 ** 4:
            raise InternalInconsistencyError("enumeration radius blew up")
        for c3 in range(-r3, r3 + 1):
            t3 = bsq[2] * c3 * c3
            if t3 > bound:
                continue
            center2 = mu[2][1] * c3
            half2 = mp.sqrt((bound - t3) / bsq[1])
            lo2 = int(mp.floor(-half2 - center2)) - 1
            hi2 = int(mp.ceil(half2 - center2)) + 1
            for c2 in range(lo2, hi2 + 1):
                t2 = t3 + bsq[1] * (c2 + center2) ** 2
                if t2 > bound:
                    continue
                center1 = mu[1][0] * c2 + mu[2][0] * c3
                half1 = mp.sqrt((bound - t2) / bsq[0])
                lo1 = int(mp.floor(-half1 - center1)) - 1
                hi1 = int(mp.ceil(half1 - center1)) + 1
                for c1 in range(lo1, hi1 + 1):
                    if c1 == 0 and c2 == 0 and c3 == 0:
                        continue
                    nrm = t2 + bsq[0] * (c1 + center1) ** 2
                    if nrm < best:
                        best = nrm
        return mp.sqrt(best)


def lattice_height(basis: LatticeBasis3, prec: int = 192) -> mp.mpf:
    """ht = 1 / (length of the shortest nonzero vector)."""
    return 1 / shortest_vector_norm(basis, prec)


def make_simplex(v1: LogVector, v2: LogVector) -> SimplexSet:
    """The triple (v1, v2 - v1, -v2): sums to zero, spans the same lattice
    as (v1, v2), and its hexagonal fundamental domain drives the mass
    predictions."""
    a1 = v1
    a2 = v2 - v1
    a3 = -v2
    cross = a1.x1 * a2.x2 - a1.x2 * a2.x1
    scale = max(a1.norm(), a2.norm(), mp.mpf(1))
    if abs(cross) <= 8 * (v1.err + v2.err) * scale:
        raise DependentUnitsError("simplex vectors do not span the plane")
    return SimplexSet(a1, a2, a3)


def make_simplex_min_ceiling(v1: LogVector, v2: LogVector) -> SimplexSet:
    """Like make_simplex, but picks among the six small unimodular
    recombinations of (v1, v2) the simplex set whose hexagon ceiling is
    lowest (useful for reporting the sharpest tightness bound)."""
    pairs = [
        (v1, v2), (v2, v1),
        (v1, v1 + v2), (v1 + v2, v2),
        (v1, v2 - v1), (v1 - v2, v2),
    ]
    best = None
    best_ceiling = None
    for w1, w2 in pairs:
        try:
            phi = make_simplex(w1, w2)
        except DependentUnitsError:
            continue
        c = hex_domain(phi).ceiling
        if best_ceiling is None or c < best_ceiling:
            best, best_ceiling = phi, c
    if best is None:
        raise DependentUnitsError("no recombination spans the plane")
    return best


def hex_domain(phi: SimplexSet) -> HexDomain:
    """Fundamental hexagon of the lattice translates of the simplex set:
    vertices are the barycentric {0,1/3,2/3} permutations of the alphas;
    ceiling is the largest coordinate over all vertices."""
    weights = (mp.mpf(0), mp.mpf(1) / 3, mp.mpf(2) / 3)
    alphas = (phi.alpha1, phi.alpha2, phi.alpha3)
    verts = []
    ceiling = mp.mpf("-inf")
    for perm in itertools.permutations(range(3)):
        v = tuple(
            sum(weights[perm[i]] * alphas[i].coords[k] for i in range(3))
            for k in range(3)
        )
        verts.append(v)
        ceiling = max(ceiling, max(v))
    err = sum(a.err for a in alphas)
    return HexDomain(tuple(verts), ceiling, err)


def _to_mpf(x) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def check_tight(phi: SimplexSet, ht, big_r, r) -> bool:
    """Whether exp(r * ceiling) <= ht * R holds with certified slack; a
    True answer survives the recorded numeric error, any doubt reports
    False."""
    big_r = _to_mpf(big_r)
    r = _to_mpf(r)
    if big_r < 1 or not (0 <= r <= 1):
        raise InvalidParamsError("need R >= 1 and r in [0, 1]")
    hd = hex_domain(phi)
    lhs = mp.exp(r * (hd.ceiling + hd.ceiling_err))
    rhs = _to_mpf(ht) * big_r * (1 - mp.ldexp(1, -40))
    return bool(lhs <= rhs)


def tightness_exponent(a_tilde, b_tilde, r) -> Fraction:
    """Exponent of the sharp height bound along the one-unit curves:
    (2/3)(1 - r) + (1/3 - r)(a~ + b~), exact in the scaled exponents."""
    at, bt, rr = Fraction(a_tilde), Fraction(b_tilde), Fraction(r)
    return Fraction(2, 3) * (1 - rr) + (Fraction(1, 3) - rr) * (at + bt)


def hexagon_grid(samples: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational sample points of the coefficient hexagon:
    integer points of the m-dilated, 3x-scaled hexagon, mapped back by
    1/(3m), with m the smallest dilation giving at least `samples` points.
    Row-major (u, v) order."""
    if samples < 1:
        raise InvalidParamsError("samples must be >= 1")
    m = max(1, math.isqrt(max(0, samples - 1) // 9))
    while 9 * m * m + 3 * m + 1 < samples:  # the point count at dilation m
        m += 1
    k = 3 * m
    coord = {a: Fraction(a, k) for a in range(-2 * m, 2 * m + 1)}
    # the six edges of the scaled hexagon with vertices m*(2,1), m*(1,2),
    # m*(-1,1), m*(-2,-1), m*(-1,-2), m*(1,-1) are |u+v| <= 3m,
    # |2v-u| <= 3m and |v-2u| <= 3m, which bound v in each row u
    return [
        (coord[u], coord[v])
        for u in range(-2 * m, 2 * m + 1)
        for v in range(max(-k - u, -((k - u) // 2), 2 * u - k),
                       min(k - u, (k + u) // 2, k + 2 * u) + 1)
    ]


def _alpha_in_unit_log_lattice(alpha: LogVector, order: CubicOrderData) -> bool:
    """Whether alpha is an integer combination of the log vectors of the
    order's verified units (i.e. lies in psi of the certified unit group)."""
    ws = [log_embed(order, a, b) for a, b in order.units[:2]]
    if len(ws) == 2:
        det = ws[0].x1 * ws[1].x2 - ws[0].x2 * ws[1].x1
        scale = max(max(w.norm() for w in ws), mp.mpf(1))
        if abs(det) > mp.ldexp(scale * scale, -30):
            c1 = (alpha.x1 * ws[1].x2 - alpha.x2 * ws[1].x1) / det
            c2 = (ws[0].x1 * alpha.x2 - ws[0].x2 * alpha.x1) / det
            n1, n2 = mp.nint(c1), mp.nint(c2)
            resid = abs(alpha.x3 - (n1 * ws[0].x3 + n2 * ws[1].x3))
            return bool(abs(c1 - n1) <= mp.ldexp(1, -20)
                        and abs(c2 - n2) <= mp.ldexp(1, -20)
                        and resid <= mp.ldexp(scale, -20))
    tol = mp.ldexp(max(1, alpha.norm()), -20)
    return any(
        max(abs(alpha.coords[k] - s * w.coords[k]) for k in range(3)) <= tol
        for w in ws for s in (1, -1))


def _two_adic_level(point: tuple[Fraction, Fraction]) -> float:
    """2-adic valuation of the gcd of the point's coordinates (infinite at
    the origin): coarse grid points have high levels."""
    return min((math.inf if q == 0 else
                (q.numerator & -q.numerator).bit_length()
                - (q.denominator & -q.denominator).bit_length())
               for q in point)


def mass_above_height(
    order: CubicOrderData,
    phi: SimplexSet,
    height: float,
    samples: int = 10000,
    window: int = 3,
) -> Fraction:
    """Proportion of hexagon sample points x with ht(exp(x) L) > height.

    Escape (a vector shorter than 1/height) at a sample point is first
    sought among the images of unit monomials: the lattice point with log
    vector (c1+i) alpha1 + (c2+j) alpha2 has exactly known norm
        |v|^2 = disc^{-1/3} * sum_k exp(2 y_k),
    a cancellation-free sum safe in float64. Points the window does not
    settle go to the certified Lipschitz-cell sweep. The returned count is
    exact for the decisions made.
    """
    import numpy as np

    if height <= 1:
        raise InvalidParamsError("height threshold must exceed 1")
    for alpha in (phi.alpha1, -phi.alpha3):
        if not _alpha_in_unit_log_lattice(alpha, order):
            raise InvalidParamsError(
                "simplex must come from the verified units of the order")

    grid = hexagon_grid(samples)
    n = len(grid)
    a1 = np.array([float(c) for c in phi.alpha1.coords])
    a2 = np.array([float(c) for c in phi.alpha2.coords])
    c = np.array([[float(u), float(v)] for (u, v) in grid])
    basis2 = np.vstack([a1, a2])
    with mp.workprec(_bits(order)):
        dscale = float(mp.power(mp.mpf(order.disc), mp.mpf(-1) / 3))
    cutoff = (1.0 / float(height)) ** 2
    alpha_err = float(max(phi.alpha1.err, phi.alpha2.err))

    ij = np.array(list(itertools.product(range(-window, window + 1), repeat=2)),
                  dtype=float)
    # y[p, w, k]: log coordinates of monomial w at grid point p
    y = (c[:, None, :] + ij[None, :, :]) @ basis2
    # in place: the same values as dscale * exp(2 y).sum(axis=2), one buffer
    y *= 2.0
    with np.errstate(over="ignore", under="ignore"):
        np.exp(y, out=y)
    best = (dscale * y.sum(axis=2)).min(axis=1)
    del y
    # Error of the exhibit at point p, with eps = _EPS:
    # - each y_k is off from its exact value by at most
    #       delta_p = (|c_u| + |c_v| + 2 window) * alpha_err + 3 eps * Y_p,
    #   where alpha_err bounds the alphas' own error and Y_p, the largest
    #   (|c_u|+window)|a1_k| + (|c_v|+window)|a2_k|, bounds max|y| over the
    #   window; 3 eps * Y_p covers rounding the alphas and c to float64, the
    #   sum c + ij and the two-term dot product (five half-ulps);
    # - exp(2y) is then off by a relative e^{2 delta_p} - 1, plus the
    #   exp call itself (budgeted at 4 eps), the three-term sum (eps),
    #   dscale (computed at the order's precision, then rounded: eps) and
    #   the product (eps/2); cutoff = (1/height)^2 is off by 3 eps/2.
    # So the true norm is below 1/height^2 whenever best < cutoff (1 - h)
    # and 3 delta_p + 10 eps <= h, for h up to about 1e-6. Underflow only
    # drops terms below 1e-307, far under any cutoff above 1e-300. A point
    # whose bound exceeds the headroom (huge |y|) falls through to the
    # certified sweep; it never counts as escaped on float64 alone.
    au = np.abs(c) + window
    ymax = (au[:, 0:1] * np.abs(a1) + au[:, 1:2] * np.abs(a2)).max(axis=1)
    delta = au.sum(axis=1) * alpha_err + 3 * _EPS * ymax
    settled = ((best < cutoff * (1 - _EXHIBIT_HEADROOM))
               & ((best > 0.0) | (cutoff > 1e-300))
               & (3 * delta + 10 * _EPS <= _EXHIBIT_HEADROOM))
    todo = np.flatnonzero(~settled)
    # float64 positions of the unsettled points x = u alpha1 + v alpha2;
    # with |u|, |v| <= 2/3 each coordinate is within (4/3) alpha_err of
    # the exact point, plus four half-ulp roundings (u, v and the alphas to
    # float64, the products, the sum) of terms up to (4/3) max|alpha|
    pos = c[todo, 0:1] * a1 + c[todo, 1:2] * a2
    pos_slack = 2 * ((4 / 3) * alpha_err + 3 * _EPS * float(np.abs(basis2).max()))
    escaped = int(settled.sum()) + _certified_sweep(
        order, phi, [grid[p] for p in todo], pos, height, pos_slack)
    return Fraction(escaped, n)


def _certified_sweep(order, phi, points, pos, height, pos_slack) -> int:
    """Number of `points` with ht(exp(x) L) > height, each decided by a
    certified enumeration at a nearby cell centre.

    log lambda_1(exp(x) L) is 1-Lipschitz in the sup norm of x: moving x by
    d scales every coordinate of every lattice vector by at most e^d. So a
    centre p with lambda_1 in [s - m, s + m] and s - m > 1/height keeps
    lambda_1 > 1/height within sup-distance r = log((s - m) height) of p,
    and s + m < 1/height gives escape within r = -log((s + m) height).
    Centres are taken coarse to fine (descending 2-adic level, then grid
    order) among the points not yet covered.

    `pos` holds float64 positions of the points. Each coordinate of each
    row is within pos_slack / 2 of the exact point, and a float difference
    is within a relative eps = _EPS of the exact one, so a computed distance
    d < (r - pos_slack - 8 eps |r|) (1 - 4 eps) proves the true one below r.
    A centre whose value is in doubt covers nothing; a point still
    uncovered at the end raises, as no certified value decides it.
    """
    import numpy as np

    rank = sorted(range(len(points)), key=lambda i: (-_two_adic_level(points[i]), i))
    covered = np.zeros(len(points), dtype=bool)
    escapes = np.zeros(len(points), dtype=bool)
    base = embed_order_lattice(order)
    for i in rank:
        if covered[i]:
            continue
        s, margin = _certified_norm(order, phi, points[i], base)
        with mp.workprec(_bits(order)):
            h = mp.mpf(height)
            if (s - margin) * h > 1:
                escape, r = False, mp.log((s - margin) * h)
            elif (s + margin) * h < 1:
                escape, r = True, -mp.log((s + margin) * h)
            else:
                continue
            reach = r - pos_slack - 8 * _EPS * r
        covered[i], escapes[i] = True, escape
        if reach <= 0:
            continue
        open_ = np.flatnonzero(~covered)
        dist = np.abs(pos[open_] - pos[i]).max(axis=1)
        hit = open_[dist < float(reach) * (1 - 4 * _EPS)]
        covered[hit], escapes[hit] = True, escape
    if not covered.all():
        point = points[int(np.flatnonzero(~covered)[0])]
        raise PrecisionExhaustedError(
            f"height vs {height} undecidable within error bounds near {point}; "
            "rebuild the order with a finer precision policy")
    return int(escapes.sum())


def _bits(order: CubicOrderData) -> int:
    return max(order.policy.target_bits, 192)


def _certified_norm(
    order: CubicOrderData,
    phi: SimplexSet,
    point: tuple[Fraction, Fraction],
    base: LatticeBasis3,
) -> tuple[mp.mpf, mp.mpf]:
    """(s, margin) with |lambda_1(exp(x) L) - s| <= margin at the exact
    hexagon point x = u alpha1 + v alpha2.

    Works at the order's own precision; the margin floor comes from the
    enumeration's rounding and the stored root and log-vector errors, so
    instead of a precision ladder a tie inside that floor raises and asks
    for a higher-precision order.
    """
    bits = _bits(order)
    with mp.workprec(bits):
        u, v = point
        x1 = phi.alpha1.scaled(mp.mpf(u.numerator) / u.denominator)
        x2 = phi.alpha2.scaled(mp.mpf(v.numerator) / v.denominator)
        x = x1 + x2
        s = shortest_vector_norm(exp_act(x, base), bits)
        return s, s * mp.ldexp(1, -(bits - 32)) + 4 * x.err * s
