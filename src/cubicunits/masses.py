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
integer image, three integer columns times one power of two: the
embedding is rounded into it once, and the flow multiplies its columns
by the mantissas of three mpf exponentials, rounding each entry once.
The kernel reads that image directly, and a float64 Lenstra-Lenstra-Lovasz
preconditioner (lazy size reduction from the exact Gram matrix, as in
Nguyen and Stehle's L^2) reduces it by exact integer column operations.
The same float64 Gram-Schmidt data then prune a complete Fincke-Pohst
enumeration, with a relative pad whose derived error bound must fit it
(_ENUM_PAD). The surviving candidates' squared norms are exact integers,
and one mpf square root at the caller's precision gives the minimum.

The mass scan is one pure-Python cover by Lipschitz cells. Moving x by d
scales coordinate i of exp(x) v by e^{d_i}, so |exp(x + d) v| lies between
e^{min d_i} and e^{max d_i} times |exp(x) v|, and one verdict at a centre
p decides a one-sided region around it: a float64 *exhibit* of a short
unit-monomial vector, with a derived bound on its float error that must
fit a stated headroom, proves escape wherever max_i d_i stays below its
radius, and a centre it does not settle gets one certified enumeration,
lambda_1 within [s - m, s + m], which decides every point with min_i d_i
> -log((s - m) H) (no escape) or max_i d_i < -log((s + m) H) (escape).
In the trace-zero plane each region is a triangle with 3/2 the area of
the sup-ball hexagon |d_i| < r inside it. Centres are the grid points not
yet covered, coarse to fine, all moved from one basis of L that each
call reduces once. Each centre (a alpha1 + b alpha2) / k is
formed from exact dyadic images of the alphas, rounded once per
coordinate. The offset between two grid points depends only on their
index difference, which the cover reads exactly from the same images, so
each centre marks one interval per grid row. A centre in doubt covers
nothing, and a point no verdict covers raises PrecisionExhaustedError.

Only the exhibit's cutoff and the walk read the height, so one call
takes every height of a member and builds the rest once: the grid, the
cover, the exhibit's monomial table and the certified norm, with its
memo of (s, margin) per centre, so each centre is enumerated at most
once however many heights ask. A certified
centre's set-up is integers and floats: x's exact integer numerators
(and their exact trace), three mpf exponentials, and a float64 margin
rounded outward; only the verdicts compare in mpf.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, mpf_exp, mpf_shift, round_nearest

from .errors import (
    DependentUnitsError,
    InternalInconsistencyError,
    InvalidParamsError,
    PrecisionExhaustedError,
)
from .precision import fraction_to_mpf, mpf_to_fraction
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
    "hexagon_grid",
    "mass_above_height",
]

# Relative headroom below the cutoff that the float64 exhibit must clear
# before it counts a point as escaped; _exhibit derives the float error it
# has to cover.
_EXHIBIT_HEADROOM = 1e-9

_EPS = sys.float_info.epsilon  # float64 machine epsilon, 2^-52


@dataclass(frozen=True)
class LatticeBasis3:
    """A 3x3 real basis as its exact integer image, column j being
    2^exp * cols[j], with a bound on the determinant error. `column(j)`
    and `mat` are exact mpf views of the same entries."""

    cols: tuple[tuple[int, int, int], ...]
    exp: int
    det_err: mp.mpf

    @classmethod
    def from_columns(cls, cols, det_err) -> "LatticeBasis3":
        """The basis whose column j holds the finite entries cols[j] (mpf,
        int or float, each a dyadic rational), read exactly."""
        ints, e = _dyadic([v for c in cols for v in c])
        return cls(tuple(tuple(ints[3 * j:3 * j + 3]) for j in range(3)), e, det_err)

    def column(self, j: int) -> list:
        return [mp.make_mpf(from_man_exp(v, self.exp)) for v in self.cols[j]]

    @property
    def mat(self) -> mp.matrix:
        m = mp.matrix(3, 3)
        for j in range(3):
            for i, v in enumerate(self.column(j)):
                m[i, j] = v
        return m


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


def _dyadic(values) -> tuple[list[int], int]:
    """(ints, e) with values[i] = ints[i] * 2^e exactly, e the least 2-adic
    valuation among the nonzero values; each value is a finite mpf, int or
    float, read exactly by mpf_to_fraction."""
    qs = [mpf_to_fraction(v) for v in values]
    e = min(((q.numerator & -q.numerator).bit_length() - q.denominator.bit_length()
             for q in qs if q), default=0)
    return [int(q / Fraction(2) ** e) for q in qs], e


def _dot(x, y) -> int:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def embed_order_lattice(order: CubicOrderData, prec: int | None = None) -> LatticeBasis3:
    """Unimodular embedding: column j is disc^{-1/6} * (theta_i^j)_i,
    computed at prec + 32 bits and kept as its exact integer image; the
    image's exact determinant must be 1 up to det_err = 2^-(prec // 2) in
    absolute value."""
    prec = prec or order.policy.target_bits
    with mp.workprec(prec + 32):
        scale = mp.power(mp.mpf(order.disc), mp.mpf(-1) / 6)
        basis = LatticeBasis3.from_columns(
            [[scale * r.value ** j for r in order.roots] for j in range(3)],
            mp.ldexp(1, -(prec // 2)))
    u, v, w = basis.cols
    cross = (v[1] * w[2] - v[2] * w[1], v[2] * w[0] - v[0] * w[2], v[0] * w[1] - v[1] * w[0])
    det = _dot(u, cross) * Fraction(2) ** (3 * basis.exp)
    if abs(abs(det) - 1) > Fraction(1, 1 << (prec // 2)):
        raise InternalInconsistencyError(
            f"embedding determinant {mp.nstr(fraction_to_mpf(det, 64), 12)} is not unimodular")
    return basis


def exp_act(x, basis: LatticeBasis3) -> LatticeBasis3:
    """Action of the diagonal flow: row i of the basis scales by e^{x_i},
    for x three coordinates (mpf).

    Works at the ambient precision p: e^{x_i} is one mpf exp, and entry
    (i, j) of the result is the exact product of its mantissa with the
    integer entry cols[j][i], rounded once to p bits (to nearest), so it is
    within a relative 2^-p of e^{x_i} (rounded) times the entry.
    """
    p = mp.mp.prec
    entries = []  # (j, i, q, s): entry (i, j) of the result is q 2^s
    for i, xi in enumerate(x):
        _, man, f, _ = mpf_exp(xi._mpf_, p, round_nearest)
        for j, c in enumerate(basis.cols):
            v = man * c[i]
            n = max(abs(v).bit_length() - p, 0)
            entries.append((j, i, (v + (1 << n >> 1)) >> n, f + n))
    e = min((s for _, _, q, s in entries if q), default=0)
    cols = [[0] * 3 for _ in range(3)]
    for j, i, q, s in entries:
        cols[j][i] = q << (s - e) if q else 0
    return LatticeBasis3(tuple(map(tuple, cols)), basis.exp + e, basis.det_err)


def _scaled_float(n: int, shift: int) -> float:
    """float64 of n * 2^-shift, also for n beyond the float range."""
    excess = max(n.bit_length() - 64, 0)
    return math.ldexp(float(n >> excess), excess - shift)


def _lll(cols):
    """LLL (delta 0.99) of three integer columns: the reduced columns, and
    their float64 Gram-Schmidt data B_l = |b*_l|^2 and mu[k][j], scaled
    by 2^-shift, with shift. Entries past the third ride along.

    Column operations are exact; float64 only steers them. Row k of the
    Gram-Schmidt data is recomputed from the exact Gram row after every
    size reduction of column k, until all its |mu| <= 0.51 (the lazy size
    reduction of Nguyen and Stehle's L^2), so entries spanning hundreds of
    bits lose nothing to cancellation.
    """
    b = [list(c) for c in cols]
    shift = 2 * max(abs(v) for c in b for v in c[:3]).bit_length()
    r = [[0.0] * 3 for _ in range(3)]  # r[k][j] = mu[k][j] B_j, r[k][k] = B_k
    mu = [[0.0] * 3 for _ in range(3)]
    r[0][0] = _scaled_float(_dot(b[0], b[0]), shift)
    k = 1
    for _ in range(10 ** 4):
        if k == 3:
            return b, [r[l][l] for l in range(3)], mu, shift
        if r[0][0] <= 0:
            raise InternalInconsistencyError("degenerate basis in reduction")
        for j in range(k):
            r[k][j] = (_scaled_float(_dot(b[k], b[j]), shift)
                       - sum(mu[j][i] * r[k][i] for i in range(j)))
            mu[k][j] = r[k][j] / r[j][j]
        if max(abs(m) for m in mu[k][:k]) > 0.51:
            for j in range(k - 1, -1, -1):
                q = round(mu[k][j])
                if q:
                    b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                    for i in range(j):
                        mu[k][i] -= q * mu[j][i]
            continue
        r[k][k] = (_scaled_float(_dot(b[k], b[k]), shift)
                   - sum(mu[k][j] * r[k][j] for j in range(k)))
        if r[k][k] + mu[k][k - 1] ** 2 * r[k - 1][k - 1] < 0.99 * r[k - 1][k - 1]:
            b[k - 1], b[k] = b[k], b[k - 1]
            if k == 1:
                r[0][0] = _scaled_float(_dot(b[0], b[0]), shift)
            k = max(k - 1, 1)
        else:
            k += 1
    raise InternalInconsistencyError("basis reduction did not terminate")


# Relative pad on the float64 Fincke-Pohst bound. The enumeration prunes
# with the float64 Gram-Schmidt data (B_l, mu_jl) that _lll computed from
# the exact Gram matrix G; the Cholesky backward error puts them within a
# relative eta = 16 u max_l G_ll / B_l of the exact values, u = 2^-53.
# Every node the argument relies on (the minimiser's path, and each
# candidate kept) has |z_l| = |c_l + y_l| <= zeta_l = sqrt(R0 / B_l) and
# |c_l| <= a_l (a_2 = zeta_2, a_1 = zeta_1 + |mu_21| a_2, a_0 = zeta_0 +
# |mu_10| a_1 + |mu_20| a_2), where R0 is the starting bound. So y_l =
# sum_{j>l} mu_jl c_j is off by at most (2u + u + eta) m_l with m_l =
# sum_{j>l} |mu_jl| a_j, z_l by that plus u zeta_l, and the partial norm
# sum_l B_l z_l^2 (three products and two sums per level) by at most
#     e = 64 (u + eta) (R0 + sqrt(R0) sum_l m_l sqrt(B_l)),
# second-order terms included. With e <= pad * min_l B_l / 3, and
# lambda_1^2 >= min_l B_l, the running bound (1 + pad) * (least float
# norm found) stays >= lambda_1^2 + e, so the minimiser is never pruned
# and survives the final filter; e also keeps every range endpoint within
# far less than one integer of its exact value, which the one integer of
# slack on each side covers. For an LLL-reduced basis e is below 2^-39 R0,
# so the pad leaves a factor of about 2^8; a basis whose bound does not
# fit raises instead of guessing.
_ENUM_PAD = 2.0 ** -30


def _fincke_pohst(bsq, mu, bound):
    """Coefficient vectors (c0, c1, c2), top nonzero entry positive, whose
    float64 norm sum_l bsq[l] (c_l + sum_{j>l} mu[j][l] c_j)^2 is within a
    factor 1 + _ENUM_PAD of the least found; `bound` must exceed that
    least norm by the pad."""
    b0, b1, b2 = bsq
    found = []
    for c2 in range(int(math.sqrt(bound / b2)) + 2):
        t2 = b2 * c2 * c2
        if t2 > bound:
            break
        y1 = mu[2][1] * c2
        h1 = math.sqrt((bound - t2) / b1)
        lo1 = 0 if c2 == 0 else math.floor(-y1 - h1) - 1
        for c1 in range(lo1, math.ceil(-y1 + h1) + 2):
            z1 = c1 + y1
            t1 = t2 + b1 * z1 * z1
            if t1 > bound:
                continue
            y0 = mu[1][0] * c1 + mu[2][0] * c2
            h0 = math.sqrt((bound - t1) / b0)
            lo0 = 1 if c1 == c2 == 0 else math.floor(-y0 - h0) - 1
            for c0 in range(lo0, math.ceil(-y0 + h0) + 2):
                z0 = c0 + y0
                t0 = t1 + b0 * z0 * z0
                if t0 <= bound:
                    found.append((t0, (c0, c1, c2)))
                    bound = min(bound, t0 * (1 + _ENUM_PAD))
    return [c for t0, c in found if t0 <= bound]


def shortest_vector_norm(basis: LatticeBasis3, prec: int = 192) -> mp.mpf:
    """Certified euclidean length of a shortest nonzero lattice vector.

    The integer columns of the basis's exact image are LLL-reduced in
    exact arithmetic (_lll); a float64 Fincke-Pohst enumeration over their
    Gram-Schmidt data, padded by _ENUM_PAD, keeps every coefficient vector
    that can be shortest, and the least exact integer norm among those is
    the true minimum of the lattice the columns span, rounded twice at
    prec bits (to mpf, square root).
    """
    red, bsq, mu, shift = _lll(basis.cols)
    diag = [_scaled_float(_dot(c, c), shift) for c in red]
    bound = (1 + _ENUM_PAD) * min(diag)
    eta = 16 * 2.0 ** -53 * max(g / b for g, b in zip(diag, bsq))
    z = [math.sqrt(bound / b) for b in bsq]
    m1 = abs(mu[2][1]) * z[2]
    m0 = abs(mu[1][0]) * (z[1] + m1) + abs(mu[2][0]) * z[2]
    err = 64 * (2.0 ** -53 + eta) * (
        bound + math.sqrt(bound) * (m1 * math.sqrt(bsq[1]) + m0 * math.sqrt(bsq[0])))
    if not err <= _ENUM_PAD * min(bsq) / 3:
        raise InternalInconsistencyError("float enumeration error exceeds its pad")
    best = min(_dot(v, v) for v in (
        [sum(ck * col[i] for ck, col in zip(c, red)) for i in range(3)]
        for c in _fincke_pohst(bsq, mu, bound)))
    with mp.workprec(prec):
        return mp.ldexp(mp.sqrt(best), basis.exp)


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


def check_tight(phi: SimplexSet, ht, big_r, r) -> bool:
    """Whether exp(r * ceiling) <= ht * R holds with certified slack; a
    True answer survives the recorded numeric error, any doubt reports
    False."""
    big_r, r = (fraction_to_mpf(x, mp.mp.prec) if isinstance(x, Fraction) else mp.mpf(x)
                for x in (big_r, r))
    if big_r < 1 or not (0 <= r <= 1):
        raise InvalidParamsError("need R >= 1 and r in [0, 1]")
    hd = hex_domain(phi)
    lhs = mp.exp(r * (hd.ceiling + hd.ceiling_err))
    rhs = mp.mpf(ht) * big_r * (1 - mp.ldexp(1, -40))
    return bool(lhs <= rhs)


def _hexagon_rows(samples: int) -> tuple[int, list[range]]:
    """(k, rows): the hexagon_grid points as integer pairs (u, v) standing
    for (u/k, v/k), over the common denominator k = 3m; rows[u + 2m] is the
    range of v in row u, for u = -2m..2m."""
    if samples < 1:
        raise InvalidParamsError("samples must be >= 1")
    m = max(1, math.isqrt(max(0, samples - 1) // 9))
    while 9 * m * m + 3 * m + 1 < samples:  # the point count at dilation m
        m += 1
    k = 3 * m
    # the six edges of the scaled hexagon with vertices m*(2,1), m*(1,2),
    # m*(-1,1), m*(-2,-1), m*(-1,-2), m*(1,-1) are |u+v| <= 3m,
    # |2v-u| <= 3m and |v-2u| <= 3m, which bound v in each row u
    return k, [range(max(-k - u, -((k - u) // 2), 2 * u - k),
                     min(k - u, (k + u) // 2, k + 2 * u) + 1)
               for u in range(-2 * m, 2 * m + 1)]


def hexagon_grid(samples: int) -> list[tuple[Fraction, Fraction]]:
    """Deterministic rational sample points of the coefficient hexagon:
    integer points of the m-dilated, 3x-scaled hexagon, mapped back by
    1/(3m), with m the smallest dilation giving at least `samples` points.
    Row-major (u, v) order."""
    k, rows = _hexagon_rows(samples)
    top = 2 * k // 3
    coord = {a: Fraction(a, k) for a in range(-top, top + 1)}
    return [(coord[u], coord[v]) for u, row in enumerate(rows, -top) for v in row]


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


_STAYS, _ESCAPES = 1, 2  # sweep verdicts: height at most H, or above H


def mass_above_height(
    order: CubicOrderData,
    phi: SimplexSet,
    heights: tuple[float, ...] | list[float],
    samples: int = 10000,
) -> tuple[Fraction, ...]:
    """For each height H in `heights`, in order, the proportion of hexagon
    sample points x with ht(exp(x) L) > H.

    One coarse-to-fine sweep per height decides every grid point. The
    points not yet covered become centres, in descending 2-adic valuation
    of gcd(a, b), then grid order. The unit-monomial exhibit (_exhibit)
    settles a centre when it proves escape, one certified enumeration
    (_certified_norm) otherwise, and the verdict covers every grid point in
    the one-sided region it proves (_cover): no coordinate of the offset
    above the radius for escape, none below minus the radius for no
    escape. A centre in doubt covers nothing, and a point no verdict covers
    raises. The count is exact for the decisions made.

    Only the exhibit's cutoff and the walk read the height, so everything
    else is built once per call, after checking at the order's bits that
    phi comes from the order's units: every height shares one grid, one
    cover and one certified norm per centre.
    """
    if not heights or any(not h > 1 for h in heights):  # NaN fails this too
        raise InvalidParamsError("need at least one height threshold, each above 1")
    k, rows = _hexagon_rows(samples)
    bits = _bits(order)
    with mp.workprec(bits):
        if not all(_alpha_in_unit_log_lattice(alpha, order)
                   for alpha in (phi.alpha1, -phi.alpha3)):
            raise InvalidParamsError("simplex must come from the verified units of the order")
    cover, certified_norm = _cover(phi, k, rows), _certified_norm(order, phi, k)
    exhibit = _exhibit(order, phi)
    top = 2 * k // 3
    fractions = []
    for height in heights:
        radius = exhibit(height)
        state = [bytearray(len(row)) for row in rows]  # 0 while a point is open
        with mp.workprec(bits):
            h = mp.mpf(height)
            for a, b in _centres(rows, top):
                if state[a + top][b - rows[a + top].start]:
                    continue
                mark, r = _ESCAPES, radius(a / k, b / k)
                if r is None:
                    s, margin = certified_norm(a, b)
                    if (s - margin) * h > 1:
                        mark, r = _STAYS, float(mp.log((s - margin) * h))
                    elif (s + margin) * h < 1:
                        r = float(-mp.log((s + margin) * h))
                    else:
                        continue
                cover(state, a, b, r, mark)
        for u, row in enumerate(state, -top):
            if 0 in row:
                point = (Fraction(u, k), Fraction(rows[u + top][row.index(0)], k))
                raise PrecisionExhaustedError(
                    f"height vs {height} undecidable within error bounds near {point}; "
                    "rebuild the order with a finer precision policy")
        fractions.append(Fraction(sum(row.count(_ESCAPES) for row in state), sum(map(len, rows))))
    return tuple(fractions)


def _centres(rows: list[range], top: int):
    """The grid points (a, b) in descending 2-adic valuation of gcd(a, b):
    the origin, then each level s = 2^j, row-major within a level."""
    yield 0, 0
    s = 1 << top.bit_length()  # above every |a|, |b| <= top
    while s > 1:
        s >>= 1
        for a in range(-(top // s) * s, top + 1, s):
            row = rows[a + top]
            for b in range(-(-row.start // s) * s, row.stop, s):
                if (a | b) & s:  # lowest set bit of gcd(a, b) is s
                    yield a, b


# Half-width of the exhibit's window: it tries the unit monomials
# (cu+i) alpha1 + (cv+j) alpha2 with |i|, |j| <= _WINDOW.
_WINDOW = 3


def _exhibit(order: CubicOrderData, phi: SimplexSet):
    """exhibit(height) -> radius(cu, cv): a radius r, given in float64,
    such that every point x + d with max_i d_i < r has height above
    `height`, x the hexagon point (cu, cv), or None when the unit-monomial
    window at it proves nothing. The window's factor table and disc^{-1/3}
    are made once; only the cutoff reads the height.

    The lattice point with log vector (cu+i) alpha1 + (cv+j) alpha2,
    |i|, |j| <= _WINDOW, has exactly known norm
        |v|^2 = disc^{-1/3} * sum_k exp(2 y_k),
    a cancellation-free sum safe in float64; exp(2 y) factors as
    exp(2 c B) exp(2 ij B), so each point costs three exp calls. If
    |exp(x) v|^2 <= q, then |exp(x + d) v| <= e^{max d_i} sqrt(q), so
    escape holds wherever max_i d_i < -log(q height^2) / 2.
    """
    a1 = [float(c) for c in phi.alpha1.coords]
    a2 = [float(c) for c in phi.alpha2.coords]
    with mp.workprec(_bits(order)):
        dscale = float(mp.power(mp.mpf(order.disc), mp.mpf(-1) / 3))
    alpha_err = float(max(phi.alpha1.err, phi.alpha2.err))
    span = range(-_WINDOW, _WINDOW + 1)
    factors = []
    for i, j in itertools.product(span, span):
        try:
            factors.append([math.exp(2.0 * (i * x + j * y)) for x, y in zip(a1, a2)])
        except OverflowError:
            pass  # a monomial left out only proves less

    # Error of the exhibit at the point c, with eps = _EPS:
    # - the exponents 2 c B_k and 2 ij B_k together are off from 2 y_k by
    #   at most 2 delta, where
    #       delta = (|c_u| + |c_v| + 2 _WINDOW) * alpha_err + 3 eps * Y,
    #   alpha_err bounds the alphas' own error and Y, the largest
    #   (|c_u|+_WINDOW)|a1_k| + (|c_v|+_WINDOW)|a2_k|, bounds max|y| over
    #   the window; 3 eps * Y covers rounding the alphas and c to float64
    #   and the two two-term dot products (at most seven half-ulps);
    # - exp(2 y_k) is then off by a relative e^{2 delta} - 1, plus the two
    #   exp calls (budgeted at 4 eps each), their product and the three-term
    #   sum (3 eps/2), dscale (computed at the order's precision, then
    #   rounded: eps) and the product (eps/2); cutoff = (1/height)^2 is off
    #   by 3 eps/2;
    # - the alphas have trace zero, so some y_k >= 0 and the exact sum is at
    #   least 1; a factor below 2^-1074 (underflow) times one below 2^1024
    #   loses at most 2^-50 = 4 eps per term, 12 eps in all.
    # So the true squared norm is at most best (1 + err), err = 3 delta +
    # 25 eps, for err up to about 1e-6, and below 1/height^2 whenever also
    # best < cutoff (1 - _EXHIBIT_HEADROOM) and err <= _EXHIBIT_HEADROOM. A
    # factor that overflows leaves its monomial out (exp raises), and a
    # product that overflows is inf, which never compares below the cutoff.
    # The float radius exceeds the proven -log(best (1 + err) height^2) / 2
    # by at most a relative 2 eps (log) and an absolute 2 eps (the four
    # roundings of its argument).
    def exhibit(height: float):
        h = float(height)
        cutoff = (1.0 / h) ** 2

        def radius(cu: float, cv: float) -> float | None:
            au, av = abs(cu) + _WINDOW, abs(cv) + _WINDOW
            ymax = max(au * abs(x) + av * abs(y) for x, y in zip(a1, a2))
            err = 3 * ((au + av) * alpha_err + 3 * _EPS * ymax) + 25 * _EPS
            if not err <= _EXHIBIT_HEADROOM:
                return None
            try:
                p0, p1, p2 = [math.exp(2.0 * (cu * x + cv * y)) for x, y in zip(a1, a2)]
            except OverflowError:
                return None
            best = dscale * min(p0 * w0 + p1 * w1 + p2 * w2 for w0, w1, w2 in factors)
            if not best < cutoff * (1 - _EXHIBIT_HEADROOM):
                return None
            return -0.5 * math.log(best * (1 + err) * h * h)

        return radius

    return exhibit


# The cover reads alpha1 and alpha2 as integer vectors at scale
# 2^_COVER_BITS, so the distance of every grid offset is exact.
_COVER_BITS = 64


def _cover(phi: SimplexSet, k: int, rows: list[range]):
    """cover(state, a, b, r, mark): set `mark` on the centre (a, b) and on
    every grid point x + d whose offset d from it the verdict decides:
    sg d_i below r on every coordinate i, with sg = +1 for _ESCAPES (no
    coordinate grows by r) and -1 for _STAYS (none shrinks by r). r is a
    float that exceeds a proven radius by at most a relative 2 eps and an
    absolute 2 eps.

    Grid points at offset (da, db) are (da alpha1 + db alpha2) / k apart,
    whatever the centre. A and B are the alphas' integer images, rounded in
    the first two coordinates and with trace zero, so each coordinate of
    A 2^-S is within e = 2 alpha_err + 2^-S of the exact alpha's, S =
    _COVER_BITS; as |da| + |db| <= (8/3) k on the grid, sg (da A_i + db
    B_i) <= R proves sg d_i below R 2^-S / k + (8/3) e. That set is a
    triangle in (da, db): the three sums cancel, so each lies in [-2R, R],
    |da| <= 2R max|B_i| / |det(A, B)|, and each grid row meets it in one
    interval of db, bounded above by the coordinates with sg B_i > 0 and
    below by those with sg B_i < 0. Two certified verdicts on a point
    agree, so a covered point is overwritten with its own mark; a
    disagreement is a bug.
    """
    def image(alpha):
        ints, e = _dyadic(alpha.coords[:2])
        x1, x2 = (round(v * Fraction(2) ** (e + _COVER_BITS)) for v in ints)
        return x1, x2, -x1 - x2

    top = 2 * k // 3
    img1, img2 = image(phi.alpha1), image(phi.alpha2)
    det = abs(img1[0] * img2[1] - img1[1] * img2[0])
    bmax = max(abs(q) for q in img2)
    slack = 6 * float(max(phi.alpha1.err, phi.alpha2.err)) + 3 * 2.0 ** -_COVER_BITS
    # no two grid points are farther apart than (8/3) max|alpha_k|
    diameter = 3 * max(abs(float(c)) for alpha in (phi.alpha1, phi.alpha2)
                       for c in alpha.coords)

    def cover(state: list[bytearray], a: int, b: int, r: float, mark: int) -> None:
        state[a + top][b - rows[a + top].start] = mark
        # 8 eps and 4 eps cover r's own error and the roundings here
        reach = math.floor((min(r, diameter) * (1 - 8 * _EPS) - 4 * _EPS - slack)
                           * k * 2.0 ** _COVER_BITS)
        if reach < 0:
            return
        sg = 1 if mark == _ESCAPES else -1
        # da p + db q <= reach on every coordinate; where q = 0 it bounds da alone
        pairs = [(sg * p, sg * q) for p, q in zip(img1, img2)]
        dhi = 2 * reach * bmax // det
        dlo = -dhi
        for p, q in pairs:
            if q == 0 < p:
                dhi = min(dhi, reach // p)
            elif q == 0:  # then p < 0, as the alphas span the plane
                dlo = max(dlo, -(reach // -p))
        for u in range(max(a + dlo, -top), min(a + dhi, top) + 1):
            row = rows[u + top]
            lo = max([b - (reach - (u - a) * p) // -q for p, q in pairs if q < 0] + [row.start])
            hi = min([b + (reach - (u - a) * p) // q for p, q in pairs if q > 0] + [row.stop - 1])
            if lo <= hi:
                seg = state[u + top][lo - row.start:hi + 1 - row.start]
                if _STAYS + _ESCAPES - mark in seg:
                    raise InternalInconsistencyError("two certified verdicts disagree")
                state[u + top][lo - row.start:hi + 1 - row.start] = bytes([mark]) * len(seg)

    return cover


def _bits(order: CubicOrderData) -> int:
    return max(order.policy.target_bits, 192)


def _prereduced(order: CubicOrderData) -> LatticeBasis3:
    """The order lattice in an LLL-reduced basis, each entry within a
    relative 2^-(bits+29) of its value from the stored roots: reducing at
    the order's bits finds the transform U and the bits its sums cancel,
    and U is applied exactly to an embedding carrying that many more bits.
    No step reads the ambient precision.
    """
    bits = _bits(order)
    cols = embed_order_lattice(order, bits).cols
    red = _lll([list(c) + [int(i == j) for i in range(3)] for j, c in enumerate(cols)])[0]
    lost = max(sum(abs(u * cols[j][i]) for j, u in enumerate(r[3:])).bit_length()
               - abs(r[i]).bit_length() for r in red for i in range(3) if r[i])
    fine = embed_order_lattice(order, bits + lost)
    moved = tuple(tuple(sum(u * c[i] for c, u in zip(fine.cols, r[3:])) for i in range(3))
                  for r in red)
    return LatticeBasis3(moved, fine.exp, fine.det_err)


def _dual_weight(basis: LatticeBasis3) -> float:
    """Upper bound on sum_k |m_k| |d_k| over the columns m_k and the dual
    basis d_k = (m_i x m_j) / det, (k, i, j) cyclic, with |det| >= 1/2 (it
    is 1 up to the embedding and flow errors); each cross-product entry is
    bounded without cancellation. Reads float64 of the integer columns."""
    m = [[_scaled_float(abs(v), -basis.exp) for v in c] for c in basis.cols]
    total = 0.0
    for k in range(3):
        p, q = m[(k + 1) % 3], m[(k + 2) % 3]
        total += math.hypot(*m[k]) * math.hypot(
            p[1] * q[2] + p[2] * q[1], p[2] * q[0] + p[0] * q[2], p[0] * q[1] + p[1] * q[0])
    return 2 * total


# Relative factor by which _certified_norm rounds its float64 margin
# outward; it covers about ten float roundings (2^-53 each) with room.
_MARGIN_ROUND = 1 + 2.0 ** -40


def _certified_norm(order: CubicOrderData, phi: SimplexSet, k: int):
    """norm(a, b): (s, margin) with |lambda_1(exp(x) L) - s| <= margin at
    the exact hexagon point x = (a alpha1 + b alpha2) / k, memoised per
    (a, b), since no height enters it.

    Works at the order's own precision. The alphas are read once, as exact
    dyadic images, so x_i = n_i 2^e / k with exact integer numerators n_i;
    their sum, the exact trace, is checked against x's error as LogVector
    checks its coordinates. Each coordinate of x is one integer quotient
    rounded to nearest, off by at most a relative 2^-bits, and x.err
    charges that, as 2^(1-bits) max|x_i|, and (|a| alpha1.err + |b|
    alpha2.err) / k. `base` is within 2^-(bits+29) of L entrywise
    (_prereduced, read when norm is made); exp_act rounds each entry once
    and its exp is good to an ulp, so every entry of the moved basis M is
    within a relative delta = 2^-(bits-2) of exp(x) L's. The minimiser w
    of either basis has |w_k| = |<d_k, M w>| <= lambda_1 |d_k| (d the dual
    basis), so their minima differ by at most delta lambda_1 sum_k |m_k|
    |d_k| <= 4 D 2^-bits lambda_1, D = _dual_weight(M); the kernel rounds
    its exact minimum twice (2^-(bits-1)); and 4 x.err s charges the error
    of x. The margin is s (8 D 2^-bits + 4 x.err): the second 4 D 2^-bits
    (D > 5, as |m_k| |d_k| >= <m_k, d_k> = 1) covers the kernel's
    rounding, D's own float rounding and the mpf roundings of the margin
    and of the verdicts (s -+ margin) H at bits. The bracket is summed in
    float64, in units of 2^f with f at least the exponent of every alpha
    error term and at least -bits, so no term overflows; about ten
    roundings of nonnegative terms are charged by the factor
    _MARGIN_ROUND, and 2^-1000 units bound what underflow drops. Instead
    of a precision ladder, a tie inside that margin covers nothing and in
    the end asks for a finer order.
    """
    bits = _bits(order)
    (n1, e1), (n2, e2) = _dyadic(phi.alpha1.coords), _dyadic(phi.alpha2.coords)
    e = min(e1, e2)  # x_i = (a p1_i + b p2_i) 2^e / k
    p1, p2 = [v << (e1 - e) for v in n1], [v << (e2 - e) for v in n2]
    t1, t2 = sum(p1), sum(p2)  # the alphas' exact traces, times 2^-e
    with mp.workprec(bits):
        errs = [phi.alpha1.err / k, phi.alpha2.err / k]
        f = max([-bits] + [mp.frexp(v)[1] for v in errs if v])
        c1, c2 = (float(mp.ldexp(v, -f)) for v in errs)  # each at most 1
    base = _prereduced(order)
    memo = {}

    def norm(a: int, b: int) -> tuple[mp.mpf, mp.mpf]:
        if (a, b) in memo:
            return memo[a, b]
        ns = [a * u + b * v for u, v in zip(p1, p2)]
        xmax = _scaled_float(max(map(abs, ns)), -e) / k
        x_err = abs(a) * c1 + abs(b) * c2 + math.ldexp(xmax, 1 - bits - f)  # in units of 2^f
        trace = _scaled_float(abs(a * t1 + b * t2), -e) / k
        if trace > 3 * math.ldexp(x_err, f) and trace > 2.0 ** -24 * max(1.0, xmax):
            raise InvalidParamsError(f"centre coordinates sum to {trace:.8g}, beyond 3*err")
        with mp.workprec(bits):
            moved = exp_act([mp.make_mpf(mpf_shift(from_rational(n, k, bits, round_nearest), e))
                             for n in ns], base)
            s = shortest_vector_norm(moved, bits)
            rel = (math.ldexp(_dual_weight(moved), 3 - bits - f) + 4 * x_err) * _MARGIN_ROUND
            rel += 2.0 ** -1000
            return memo.setdefault((a, b), (s, s * mp.ldexp(rel, f)))

    return norm
