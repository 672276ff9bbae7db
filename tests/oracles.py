"""Independent reference implementations used only by the tests.

Nothing here imports the package's own formulas: the discriminant oracle
goes through an exact Sylvester resultant (fraction-free Bareiss
elimination), the numeric oracles go through mpmath's generic polynomial
root finder, root isolation goes through a Sturm chain over Fractions,
the integer-root test enumerates the divisors of p0 (for large p0 it
searches the integers with the Sturm chain), and the shortest lattice
vector comes from an all-mpf LLL and Fincke-Pohst enumeration.
Expected values frozen in the test files were produced by these routines.

The mass sweep's cover is the exception: `reference_cover` is
`masses._cover` written point by point on the torus, with no slices. It
reads the package's constants and its exact dyadic reader, since it
checks only that the faster rows and their slices mark the same cells.
The unit rows have no replica: a test checks each interval they certify
against the same member at 256 bits. The centre walk has one:
`reference_open_points` is the walk as it was before the origin came
after the deep holes, which the sweep must match in every fraction and
exception with no more kernel calls. So are `reference_exp_act` and
`reference_dual_weight` exceptions: the certified kernel's generic loops
from before it was written out for three columns, which the written-out
kernel must match bit for bit. `reference_lll` is the float64-steered
LLL the kernel once ran before its exact completion, and
`reference_minima` computes the minima as the kernel did before that:
two float64-pruned Fincke-Pohst enumerations over `reference_lll`'s
Gram-Schmidt data with a derived float error pad. The kernel now reads
lambda_1^2, lambda_2^2 and a shortest vector from one exact greedy
reduction instead: a sorted basis that no move by the shorter columns
with coefficients in {0, +-1} shortens is Minkowski-reduced in
dimension 3, and such a basis reaches the successive minima in
dimension at most 4 (Nguyen and Stehle, "Low-dimensional lattice basis
reduction revisited", ACM TALG 2009). The two must agree exactly on
integers. `reference_reduce` is that reduction as it ran on the columns
themselves, before it took their Gram matrix; the Gram form must reach
its minima and its shortest vector.

`exp_act`, `basis_columns` and `replay` are plumbing, not references:
the package's private flow action at explicit bits, a basis's exact
columns as mpf values, and a shape's reduction word applied to a point.

The member's front stages are the last exception: `ReferenceLogVector`
and the other `reference_*` routines at the end of this file are the
mpmath-operator code that units.py, shapes.py and masses.py replaced
with calls on raw libmp tuples, which must match it bit for bit in every
value. Their error bounds are exact `Fraction`s of each bound's formula
on the same inputs, which the package's float64 bounds must meet from
above within a relative 2^-40. The shape is not among them: it comes from an exact integer form, checked
against the same member at 768 bits, the plane map of
`reference_to_plane` and the domain of `reference_convention`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp


def bareiss_det(rows: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    assert all(len(r) == n for r in m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def resultant_cubic_deriv(p2: int, p1: int, p0: int) -> int:
    """Res(f, f') for monic f = x^3 + p2 x^2 + p1 x + p0 via the 5x5
    Sylvester matrix (rows: two shifts of f, three shifts of f')."""
    f = [1, p2, p1, p0]
    g = [3, 2 * p2, p1]
    rows = [
        f + [0],
        [0] + f,
        g + [0, 0],
        [0] + g + [0],
        [0, 0] + g,
    ]
    return bareiss_det(rows)


def disc_oracle(p2: int, p1: int, p0: int) -> int:
    """disc(f) = -Res(f, f') for monic cubics."""
    return -resultant_cubic_deriv(p2, p1, p0)


def roots_oracle(p2: int, p1: int, p0: int, prec: int = 256):
    """All three complex roots via mpmath's generic solver."""
    with mp.workprec(prec):
        return mp.polyroots([1, p2, p1, p0], maxsteps=200, extraprec=prec)


def disc_from_roots(p2: int, p1: int, p0: int, prec: int = 256) -> mp.mpf:
    """prod_{i<j} (r_i - r_j)^2, numerically."""
    with mp.workprec(prec):
        r = roots_oracle(p2, p1, p0, prec)
        v = (r[0] - r[1]) ** 2 * (r[0] - r[2]) ** 2 * (r[1] - r[2]) ** 2
        return v.real


def norm_from_roots(p2: int, p1: int, p0: int, a: int, b: int,
                    prec: int = 256) -> mp.mpf:
    """prod_i (a r_i - b), numerically (real for real-coefficient cubics)."""
    with mp.workprec(prec):
        r = roots_oracle(p2, p1, p0, prec)
        v = (a * r[0] - b) * (a * r[1] - b) * (a * r[2] - b)
        return v.real


def bisect_root(p2: int, p1: int, p0: int, lo: Fraction, hi: Fraction,
                steps: int = 200) -> Fraction:
    """Plain exact bisection of f on [lo, hi]; requires a sign change."""
    def sgn(q: Fraction) -> int:
        v = q ** 3 + p2 * q ** 2 + p1 * q + p0
        return (v > 0) - (v < 0)

    slo, shi = sgn(lo), sgn(hi)
    assert slo != 0 and shi != 0 and slo != shi, "bracket must straddle a root"
    for _ in range(steps):
        mid = (lo + hi) / 2
        sm = sgn(mid)
        if sm == 0:
            return mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def iroot(n: int, k: int) -> int:
    """floor(n**(1/k)) for n >= 0, exact integer arithmetic."""
    assert n >= 0 and k >= 1
    if n < 2:
        return n
    hi = 1 << ((n.bit_length() + k - 1) // k + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


def floor_power(t: int, num: int, den: int) -> int:
    """floor(t**(num/den)) for t >= 0 (used for the b_t = floor(t^alpha) scans)."""
    return iroot(t ** num, den)


# ---------------------------------------------------------------------------
# Root isolation by Sturm sequences over Fractions: the reference for the
# package's integer-sign isolation, which must return the same intervals.
# It bisects [-B, B] with the same split points.
# ---------------------------------------------------------------------------


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    # coeffs high-to-low degree
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_rem(num, den):
    """Remainder of polynomial division, coefficients high-to-low."""
    num = list(num)
    dn = len(den) - 1
    while len(num) - 1 >= dn and any(num):
        if num[0] == 0:
            num.pop(0)
            continue
        q = num[0] / den[0]
        for i in range(len(den)):
            num[i] -= q * den[i]
        num.pop(0)
    while num and num[0] == 0:
        num.pop(0)
    return num


def _sturm_chain(p2: int, p1: int, p0: int):
    chain = [
        [Fraction(1), Fraction(p2), Fraction(p1), Fraction(p0)],
        [Fraction(3), Fraction(2 * p2), Fraction(p1)],
    ]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    """Sign changes of the chain at x, zeros dropped; V(a) - V(b) counts
    the distinct real roots in (a, b]."""
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, r in zip(signs, signs[1:]) if s != r)


def sturm_root_count(p2: int, p1: int, p0: int, a: Fraction, b: Fraction) -> int:
    """The number of distinct real roots of x^3 + p2 x^2 + p1 x + p0 in
    (a, b], from the Sturm chain."""
    chain = _sturm_chain(p2, p1, p0)
    return _sign_variations(chain, a) - _sign_variations(chain, b)


def sturm_distinct_real_roots(p2: int, p1: int, p0: int) -> int:
    """The number of distinct real roots, counted over the Cauchy interval."""
    B = 1 + max(abs(p2), abs(p1), abs(p0))
    return sturm_root_count(p2, p1, p0, Fraction(-B), Fraction(B))


def has_integer_root(p2: int, p1: int, p0: int) -> bool:
    """Rational root theorem: an integer root of a monic cubic is 0 or a
    divisor of p0, with either sign. Beyond |p0| = 10^6 the divisors are
    too many to try, and the Sturm chain searches the integers instead:
    an interval (a, b] of the Cauchy interval is halved while it holds a
    real root, down to unit intervals, whose only integer is b."""
    if p0 == 0:
        return True
    n = abs(p0)
    if n <= 10 ** 6:
        for d in range(1, n + 1):
            if n % d == 0:
                for k in (d, -d):
                    if ((k + p2) * k + p1) * k + p0 == 0:
                        return True
        return False
    chain = _sturm_chain(p2, p1, p0)
    B = 1 + max(abs(p2), abs(p1), n)
    stack = [(-B, B, _sign_variations(chain, Fraction(-B)), _sign_variations(chain, Fraction(B)))]
    while stack:
        a, b, va, vb = stack.pop()
        if va == vb:
            continue
        if b - a == 1:
            if ((b + p2) * b + p1) * b + p0 == 0:
                return True
            continue
        m = (a + b) // 2
        vm = _sign_variations(chain, Fraction(m))
        stack += [(a, m, va, vm), (m, b, vm, vb)]
    return False


def _gram_schmidt(cols):
    """(mu, bstar_sq) for a list of 3-vectors; plain mpf arithmetic."""
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


def _lll(cols):
    """LLL (delta 0.99) of three mpf 3-vectors at the ambient precision,
    recomputing the Gram-Schmidt data after every step."""
    delta = mp.mpf(99) / 100
    cols = [list(c) for c in cols]
    mu, bsq = _gram_schmidt(cols)
    k = 1
    while k < 3:
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


def reference_shortest_vector_norm(cols, prec: int) -> mp.mpf:
    """Length of a shortest nonzero vector of the lattice spanned by three
    mpf columns: mpf LLL, then a Fincke-Pohst enumeration over every
    coefficient vector whose norm can be below the best found, with a
    relative pad of 2^-(prec/2) and one integer of slack on each range.
    Everything runs at prec bits; choose prec well above the bits the
    basis loses to cancellation."""
    with mp.workprec(prec):
        red = _lll([[mp.mpf(x) for x in c] for c in cols])
        mu, bsq = _gram_schmidt(red)
        best = min(sum(v * v for v in c) for c in red)
        bound = best * (1 + mp.ldexp(1, -(prec // 2)))
        # norm^2 = sum_i bsq[i] * (c_i + sum_{j>i} mu[j][i] c_j)^2
        r3 = int(mp.floor(mp.sqrt(bound / bsq[2]))) + 1
        for c3 in range(-r3, r3 + 1):
            t3 = bsq[2] * c3 * c3
            if t3 > bound:
                continue
            center2 = mu[2][1] * c3
            half2 = mp.sqrt((bound - t3) / bsq[1])
            for c2 in range(int(mp.floor(-half2 - center2)) - 1,
                            int(mp.ceil(half2 - center2)) + 2):
                t2 = t3 + bsq[1] * (c2 + center2) ** 2
                if t2 > bound:
                    continue
                center1 = mu[1][0] * c2 + mu[2][0] * c3
                half1 = mp.sqrt((bound - t2) / bsq[0])
                for c1 in range(int(mp.floor(-half1 - center1)) - 1,
                                int(mp.ceil(half1 - center1)) + 2):
                    if c1 or c2 or c3:
                        best = min(best, t2 + bsq[0] * (c1 + center1) ** 2)
        return mp.sqrt(best)


def _nearest_per_level(red, mu, bsq, bound):
    """(norm, c) for nonzero coefficient vectors c = (c1, c2, c3) over the
    reduced columns: every level (c2, c3) whose partial norm fits `bound`,
    each with the three c1 nearest its centre (c1 = 1 alone on the level
    (0, 0)). On a level the norm is a parabola in c1, so these hold its
    least vector and, were that one excluded, the next least."""
    r3 = int(mp.floor(mp.sqrt(bound / bsq[2]))) + 1
    for c3 in range(-r3, r3 + 1):
        t3 = bsq[2] * c3 * c3
        if t3 > bound:
            continue
        center2 = mu[2][1] * c3
        half2 = mp.sqrt((bound - t3) / bsq[1])
        for c2 in range(int(mp.floor(-half2 - center2)) - 1,
                        int(mp.ceil(half2 - center2)) + 2):
            t2 = t3 + bsq[1] * (c2 + center2) ** 2
            if t2 > bound:
                continue
            center1 = mu[1][0] * c2 + mu[2][0] * c3
            near = int(mp.nint(-center1))
            for c1 in ((1,) if c2 == c3 == 0 else (near - 1, near, near + 1)):
                yield t2 + bsq[0] * (c1 + center1) ** 2, (c1, c2, c3)


def reference_second_minimum(cols, prec: int) -> mp.mpf:
    """Length of a shortest vector among those not parallel to a shortest
    one, in the lattice spanned by three mpf columns: mpf LLL, a shortest
    coefficient vector c* from the levels that fit the shortest reduced
    column, then the least vector not parallel to c* (exact test on the
    integer coefficients) from the levels that fit the second shortest
    reduced column, which is at least that least norm. Both bounds are
    padded by 2^-(prec/2). Everything runs at prec bits."""
    with mp.workprec(prec):
        red = _lll([[mp.mpf(x) for x in c] for c in cols])
        mu, bsq = _gram_schmidt(red)
        pad = 1 + mp.ldexp(1, -(prec // 2))
        sizes = sorted(sum(v * v for v in c) for c in red)
        _, best = min(_nearest_per_level(red, mu, bsq, sizes[0] * pad))

        def parallel(c):
            return not (c[1] * best[2] - c[2] * best[1] or c[2] * best[0] - c[0] * best[2]
                        or c[0] * best[1] - c[1] * best[0])

        return mp.sqrt(min(n for n, c in _nearest_per_level(red, mu, bsq, sizes[1] * pad)
                           if not parallel(c)))


def reference_cover(phi, k: int, glue: int = 0):
    """masses._cover point by point on the torus: each extended row's
    bounds are the generic least of its constraints, and each point's
    cell is checked, marked or tested on its own, in order of db, with no
    slices; a wide cover tests each open cell once per row, at its first
    offset db in the row's bounds. The extended point (u, v) has the cell
    (u mod k, (v - glue floor(u / k)) mod k): glue 0 is the torus, and any
    other glue plants a wrong one."""
    from cubicunits import masses
    from cubicunits.errors import InternalInconsistencyError
    from cubicunits.precision import dyadic

    eps, bits = masses._EPS, masses._COVER_BITS

    def image(alpha):
        ints, e = dyadic(alpha.coords[:2])
        x1, x2 = (round(v * Fraction(2) ** (e + bits)) for v in ints)
        return x1, x2, -x1 - x2

    bound = 8 * k // 3
    img1, img2 = image(phi.alpha1), image(phi.alpha2)
    det = abs(img1[0] * img2[1] - img1[1] * img2[0])
    bmax = max(abs(q) for q in img2)
    slack = 6 * float(max(phi.alpha1.err, phi.alpha2.err)) + 3 * 2.0 ** -bits
    diameter = 3 * max(abs(float(c)) for alpha in (phi.alpha1, phi.alpha2)
                       for c in alpha.coords)
    (a0, a1, a2), (b0, b1, b2) = ([math.ldexp(q, 1 - bits) / k for q in img]
                                  for img in (img1, img2))
    spread = slack + 3 * eps * diameter

    def cover(state, a, b, r, mark, v1=None, height=None):
        headroom = masses._UNIT_HEADROOM
        if v1 is None:
            state[a % k][(b - glue * (a // k)) % k] = mark
        else:
            q0, q1, q2, x_err = v1
            if not (3 * (spread + x_err) + 25 * eps <= headroom and height <= 2.0 ** 300):
                return
            cutoff = (1.0 / height) ** 2 * (1 + headroom)
            r = min(r, 100.0)
        reach = math.floor((min(r, diameter) * (1 - 8 * eps) - 4 * eps - slack)
                           * k * 2.0 ** bits)
        if reach < 0:
            return
        sg = 1 if mark == masses._ESCAPES else -1
        pairs = [(sg * p, sg * q) for p, q in zip(img1, img2)]
        dhi = min(2 * reach * bmax // det, bound)
        dlo = -dhi
        for p, q in pairs:
            if q == 0 < p:
                dhi = min(dhi, reach // p)
            elif q == 0:
                dlo = max(dlo, -(reach // -p))
        below = [(p, -q) for p, q in pairs if q < 0]
        above = [(p, q) for p, q in pairs if q > 0]
        other = masses._STAYS + masses._ESCAPES - mark
        for da in range(dlo, dhi + 1):
            marks, shift = state[(a + da) % k], b - glue * ((a + da) // k)
            if v1 is not None and 0 not in marks:
                continue
            lo = max(abs(da) - bound, -min((reach - da * p) // q for p, q in below))
            hi = min(bound - abs(da), min((reach - da * p) // q for p, q in above))
            if v1 is not None:
                g0, g1, g2 = da * a0, da * a1, da * a2
                for db in range(lo, min(hi, lo + k - 1) + 1):
                    i = (shift + db) % k
                    if not marks[i] and (q0 * math.exp(g0 + db * b0) + q1 * math.exp(g1 + db * b1)
                                         + q2 * math.exp(g2 + db * b2)) > cutoff:
                        marks[i] = mark
            elif any(marks[(shift + db) % k] == other for db in range(lo, hi + 1)):
                raise InternalInconsistencyError("two certified verdicts disagree")
            else:
                for db in range(lo, hi + 1):
                    marks[(shift + db) % k] = mark

    return cover


def centre_order(k: int, rows, anchors):
    """The anchors, then every other grid point of the hexagon rows (rows[u
    + 2k/3] the range of v in row u) in a stable sort by the lowest set bit
    of gcd(a, b), highest first, row-major within a level: the origin never
    among them, the deep holes again."""
    top = 2 * k // 3

    def level(point):
        low = point[0] | point[1]
        return low & -low

    grid = [(u, v) for u, row in enumerate(rows, -top) for v in row if (u, v) != (0, 0)]
    return list(anchors) + sorted(grid, key=level, reverse=True)


def reference_open_points(state, rows, doubt):
    """masses._open_points before the origin became the walk's anchor:
    the origin, the deep holes (2m, m) and (m, 2m), k = 3m, then the
    levels (centre_order), each point yielded while its torus cell is open
    and not in doubt, read when the walk reaches it. It never visits a
    cell that is decided already."""
    k = len(state)
    m = k // 3
    for a, b in centre_order(k, rows, [(0, 0), (2 * m, m), (m, 2 * m)]):
        if not state[a % k][b % k] and (a % k, b % k) not in doubt:
            yield a, b


# The certified kernel's generic loops, as masses had them before the
# kernel was written out for three columns: the same integer and float
# operations in the same order, so the written-out kernel must return
# repr-identical results. `_reference_scaled_float` and `_reference_dot`
# are the helpers they read.


def _reference_scaled_float(n: int, shift: int) -> float:
    excess = max(n.bit_length() - 64, 0)
    return math.ldexp(float(n >> excess), excess - shift)


def _reference_dot(x, y) -> int:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def exp_act(x, basis, prec: int):
    """The diagonal flow's action on basis, for x three mpf coordinates, at
    prec bits: masses._exp_act on the raw tuples."""
    from cubicunits import masses

    return masses._exp_act([v._mpf_ for v in x], basis, prec)


def basis_columns(basis) -> list[list]:
    """The columns of a LatticeBasis3 as exact mpf values, 2^exp cols[j]."""
    from mpmath.libmp import from_man_exp

    return [[mp.make_mpf(from_man_exp(v, basis.exp)) for v in c] for c in basis.cols]


def reference_exp_act(x, basis):
    """masses._exp_act at the ambient precision, for x three mpf
    coordinates, with a generic (j, i) loop over the entries."""
    from mpmath.libmp import mpf_exp, round_nearest

    from cubicunits.masses import LatticeBasis3

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
    return LatticeBasis3(tuple(map(tuple, cols)), basis.exp + e)


def reference_lll(cols):
    """LLL (delta 0.99) steered by float64, as the kernel once ran it, with
    generic loops over k and j, returning the float64
    Gram-Schmidt data beside the columns: (b, [B_l], mu, shift), the
    floats scaled by 2^-shift."""
    from cubicunits.errors import InternalInconsistencyError

    _scaled_float, _dot = _reference_scaled_float, _reference_dot
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


def reference_reduce(cols):
    """The greedy reduction on the columns themselves, as masses._reduce
    ran before it took the Gram matrix: the reduced columns as (exact
    squared norm, column) pairs, sorted, with ties in the norm broken by
    the columns' entries. The same moves, read off the columns' own inner
    products, so the Gram form must reach the same minima and, where
    lambda_1 < lambda_2, the same shortest vector up to sign."""
    from cubicunits.errors import InternalInconsistencyError

    _dot = _reference_dot
    ranked = sorted((_dot(c, c), list(c)) for c in cols)
    while True:
        (n0, b0), (n1, b1), (n2, b2) = ranked
        if not n0:
            raise InternalInconsistencyError("degenerate basis in reduction")
        g01 = _dot(b0, b1)
        q = (2 * g01 + n0) // (2 * n0)
        d = q * (q * n0 - 2 * g01)
        if d < 0:
            ranked[1] = n1 + d, [u - q * v for u, v in zip(b1, b0)]
            ranked.sort()
            continue
        g02, g12 = _dot(b0, b2), _dot(b1, b2)
        det = n0 * n1 - g01 * g01
        x = (2 * (g02 * n1 - g12 * g01) + det) // (2 * det)
        y = (2 * (g12 * n0 - g02 * g01) + det) // (2 * det)
        d = x * (x * n0 + 2 * y * g01 - 2 * g02) + y * (y * n1 - 2 * g12)
        if d >= 0:
            d, x, y, g = min((n0 - 2 * abs(g02), 1, 0, g02), (n1 - 2 * abs(g12), 0, 1, g12),
                             (n0 + n1 + 2 * g01 - 2 * abs(g02 + g12), 1, 1, g02 + g12),
                             (n0 + n1 - 2 * g01 - 2 * abs(g02 - g12), 1, -1, g02 - g12))
            if d >= 0:
                return ranked
            x, y = (x, y) if g > 0 else (-x, -y)
        ranked[2] = n2 + d, [w - x * u - y * v for u, v, w in zip(b0, b1, b2)]
        ranked.sort()


# The kernel's minima as the package computed them before its exact
# reduction (masses.LatticeBasis3._minimum): a float64-pruned
# Fincke-Pohst enumeration over reference_lll's Gram-Schmidt data, whose
# candidates' exact integer norms decide. Its soundness rests on a relative
# pad on the bound (_ENUM_PAD) and a derived bound on the float error
# (_least), checked per call; a basis whose bound does not fit raises.
# For an LLL-reduced basis that error is below 2^-39 of the bound.
_ENUM_PAD = 2.0 ** -30


def _parallel(c, d) -> bool:
    """Whether the integer vectors c and d are parallel (exact)."""
    return not (c[1] * d[2] - c[2] * d[1] or c[2] * d[0] - c[0] * d[2]
                or c[0] * d[1] - c[1] * d[0])


def _fincke_pohst(bsq, mu, bound, skip=None):
    """Coefficient vectors (c0, c1, c2), top nonzero entry positive and not
    parallel to `skip`, whose float64 norm sum_l bsq[l] (c_l + sum_{j>l}
    mu[j][l] c_j)^2 is within a factor 1 + _ENUM_PAD of the least found;
    `bound` must exceed that least norm by the pad. On a level (c1, c2) the
    norm is a parabola in c0, so only the three c0 nearest the float vertex
    are tried; the level (0, 0) holds the multiples of the first column,
    whose least is c0 = 1."""
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
            near = round(-y0)
            for c0 in ((1,) if c1 == c2 == 0 else (near - 1, near, near + 1)):
                z0 = c0 + y0
                t0 = t1 + b0 * z0 * z0
                if t0 <= bound and not (skip and _parallel((c0, c1, c2), skip)):
                    found.append((t0, (c0, c1, c2)))
                    bound = min(bound, t0 * (1 + _ENUM_PAD))
    return [c for t0, c in found if t0 <= bound]


def _least(reduction, skip=None):
    """(n, c): the least exact squared norm n over the nonzero coefficient
    vectors c not parallel to `skip` (a shortest vector's, or None), and a
    c attaining it, for reduction = (red, bsq, mu, shift) from
    reference_lll. The bound is the least squared reduced column not
    parallel to skip, padded by _ENUM_PAD; the enumeration's derived float
    error e = 64 (u + eta) (R0 + sqrt(R0) sum_l m_l sqrt(B_l)), with eta =
    16 u max_l G_ll / B_l the Cholesky backward error, must fit the pad
    times min_l B_l / 3 (min(B_1, B_2) with skip, a lower bound on
    lambda_2^2), or the call raises."""
    from cubicunits.errors import InternalInconsistencyError

    _scaled_float, _dot = _reference_scaled_float, _reference_dot
    red, bsq, mu, shift = reduction
    diag = [_scaled_float(_dot(c, c), shift) for c in red]
    unit = ((1, 0, 0), (0, 1, 0), (0, 0, 1))  # the columns' own coefficients
    bound = (1 + _ENUM_PAD) * min(g for g, e in zip(diag, unit)
                                  if not (skip and _parallel(e, skip)))
    eta = 16 * 2.0 ** -53 * max(g / b for g, b in zip(diag, bsq))
    z = [math.sqrt(bound / b) for b in bsq]
    m1 = abs(mu[2][1]) * z[2]
    m0 = abs(mu[1][0]) * (z[1] + m1) + abs(mu[2][0]) * z[2]
    err = 64 * (2.0 ** -53 + eta) * (
        bound + math.sqrt(bound) * (m1 * math.sqrt(bsq[1]) + m0 * math.sqrt(bsq[0])))
    if not err <= _ENUM_PAD * min(bsq[1:] if skip else bsq) / 3:
        raise InternalInconsistencyError("float enumeration error exceeds its pad")
    return min((_dot(v, v), c) for v, c in (
        ([sum(ck * col[i] for ck, col in zip(c, red)) for i in range(3)], c)
        for c in _fincke_pohst(bsq, mu, bound, skip)))


def reference_minima(cols):
    """(v1, n1, n2) for three integer columns: a shortest vector v1 and
    the exact squared minima n1 = lambda_1^2 and n2 = lambda_2^2, the
    latter as the least norm among the vectors not parallel to v1, from
    two padded enumerations over reference_lll's reduction."""
    reduction = reference_lll(cols)
    n1, c = _least(reduction)
    n2, _ = _least(reduction, c)
    v1 = [sum(ck * col[i] for ck, col in zip(c, reduction[0])) for i in range(3)]
    return v1, n1, n2


def reference_dual_weight(basis) -> float:
    """masses._dual_weight with a loop over the three cyclic cross products."""
    _scaled_float = _reference_scaled_float
    m = [[_scaled_float(abs(v), -basis.exp) for v in c] for c in basis.cols]
    total = 0.0
    for k in range(3):
        p, q = m[(k + 1) % 3], m[(k + 2) % 3]
        total += math.hypot(*m[k]) * math.hypot(
            p[1] * q[2] + p[2] * q[1], p[2] * q[0] + p[0] * q[2], p[0] * q[1] + p[1] * q[0])
    return 2 * total


# ---------------------------------------------------------------------------
# The member's front stages as mpmath operator code. units.LogVector and
# its arithmetic, log_embed, relative_regulator_with_error and
# certify_fundamental, the limit shapes at (0, 1) and (0, 0) (omega and
# the corner), and masses.make_simplex, hex_domain and
# shortest_vector_norm compute on mpmath's raw tuples; these are their
# mpmath-operator forms, which the tuple code must match bit for bit in
# every value. Every error bound here is the exact Fraction of its formula
# on the same inputs, where the package rounds a float64 outward. The
# error classes are the package's own. The shape is checked against truth
# instead: reference_to_plane is its independent plane map, and
# reference_convention its domain.
# ---------------------------------------------------------------------------


def exact(x) -> Fraction:
    """The exact value of a finite mpf, int, float or Fraction."""
    if isinstance(x, (int, float, Fraction)):
        return Fraction(x)
    m, e = x.man_exp  # read from the mpf itself, at no precision
    return Fraction(m) * Fraction(2) ** e


# how far above its exact formula a float64 error bound may lie
SLACK = 1 + Fraction(1, 2 ** 40)


def bounds(got, exact) -> bool:
    """Whether the float got lies at or above the exact Fraction and at
    most SLACK times it."""
    return type(got) is float and exact <= Fraction(got) <= exact * SLACK


def _to_mpf(q: Fraction) -> mp.mpf:
    # q rounded at 53 bits, as an error message prints the package's float
    with mp.workprec(53):
        return mp.mpf(q.numerator) / q.denominator


def _reference_round_slack(coords) -> Fraction:
    return Fraction(2) ** (2 - mp.mp.prec) * max(1, *(abs(exact(x)) for x in coords))


def _reference_sum_slack(coords) -> mp.mpf:
    # what the two roundings of the coordinates' sum can move it, twice over
    return mp.ldexp(abs(coords[0]) + abs(coords[1]) + abs(coords[2]), 2 - mp.mp.prec)


def _exact_abs(x) -> mp.mpf:
    return mp.fneg(x, exact=True) if x < 0 else x


def log_vector(x1, x2, x3, err):
    """units.LogVector of the mpf, int or float coordinates x1, x2, x3,
    each read exactly (precision.dyadic), and the error bound err: a float
    as itself, an mpf or int as the float at or above it."""
    from cubicunits.precision import above, dyadic
    from cubicunits.units import LogVector

    if type(err) is not float:
        (m,), e = dyadic([err])
        err = above(m, e)
    return LogVector(*dyadic((x1, x2, x3)), err)


class ReferenceLogVector:
    """units.LogVector with mpmath operators, each one exact, and err an
    exact Fraction."""

    def __init__(self, x1, x2, x3, err):
        from cubicunits.errors import InvalidParamsError

        self.x1, self.x2, self.x3, self.err = x1, x2, x3, exact(err)
        s = _exact_abs(mp.fadd(mp.fadd(x1, x2, exact=True), x3, exact=True))
        err3 = 3 * self.err
        if exact(s) > err3 and s > mp.ldexp(max(1, *map(_exact_abs, self.coords)), -24):
            raise InvalidParamsError(f"coordinates sum to {mp.nstr(s, 8)}, beyond 3*err={mp.nstr(_to_mpf(err3), 8)}")

    @property
    def coords(self):
        return (self.x1, self.x2, self.x3)

    def __add__(self, o):
        return ReferenceLogVector(*(mp.fadd(x, y, exact=True) for x, y in zip(self.coords, o.coords)),
                                  self.err + o.err)

    def __sub__(self, o):
        return ReferenceLogVector(*(mp.fsub(x, y, exact=True) for x, y in zip(self.coords, o.coords)),
                                  self.err + o.err)

    def __neg__(self):
        return ReferenceLogVector(*(mp.fneg(x, exact=True) for x in self.coords), self.err)

    def scaled(self, c):
        return ReferenceLogVector(*(mp.fmul(c, x, exact=True) for x in self.coords),
                                  abs(exact(c)) * self.err)


def reference_log_embed(order, a: int, b: int):
    """units.log_embed with mpmath operators."""
    from cubicunits.cubics import norm_linear_form
    from cubicunits.errors import InvalidParamsError, PrecisionExhaustedError
    from cubicunits.precision import PrecisionPolicy
    from cubicunits.roots import refine_root

    if a == 0 or abs(norm_linear_form(order.f, a, b)) != 1:
        raise InvalidParamsError(f"({a},{b}) is not a verified unit of this order")
    roots = list(order.roots)
    pol = order.policy
    rungs = pol.ladder()
    next(rungs)  # the stored roots' rung
    while True:
        bits = max(r.prec for r in roots)
        with mp.workprec(bits):
            ms = [a * r.value - b for r in roots]
            errs = [abs(a) * r.err for r in roots]
            if all(m != 0 and abs(m) > 256 * e for m, e in zip(ms, errs)):
                coords = [mp.log(abs(m)) for m in ms]
                err = max(
                    2 * exact(e) / abs(exact(m)) + Fraction(2) ** (8 - bits) * max(1, abs(exact(c)))
                    for m, e, c in zip(ms, errs, coords)
                )
                return ReferenceLogVector(*coords, err)
        target = next(rungs, None)
        if target is None:
            raise PrecisionExhaustedError(
                f"|{a}*theta-{b}| indistinguishable from 0 at {pol.max_bits} bits")
        sub = PrecisionPolicy(target, pol.max_bits)
        roots = [refine_root(order.f, r.lo, r.hi, sub) for r in roots]


def reference_relative_regulator_with_error(v1, v2, prec: int):
    """units.relative_regulator_with_error with mpmath operators."""
    with mp.workprec(prec):
        return _reference_regulator(v1, v2)


def _reference_regulator(v1, v2):
    from cubicunits.errors import DependentUnitsError, InternalInconsistencyError

    a = (v1.x1, v1.x2, v1.x3)
    b = (v2.x1, v2.x2, v2.x3)
    minors = [
        a[1] * b[2] - a[2] * b[1],  # delete coordinate 1
        a[0] * b[2] - a[2] * b[0],  # delete coordinate 2
        a[0] * b[1] - a[1] * b[0],  # delete coordinate 3
    ]
    scale = max(1, *(abs(exact(x)) for x in a + b))
    err = 10 * scale * (v1.err + v2.err) + Fraction(2) ** (12 - mp.mp.prec) * scale * scale
    vals = [abs(m) for m in minors]
    if exact(max(vals) - min(vals)) > err:
        raise InternalInconsistencyError(
            f"minors disagree beyond tolerance: {[mp.nstr(v, 12) for v in vals]} (tol {mp.nstr(_to_mpf(err), 6)})")
    det = vals[2]  # first-two-coordinates minor, per the stated convention
    if exact(det) <= 8 * err:
        raise DependentUnitsError("regulator determinant below the error floor")
    return det, err


def reference_certify_fundamental(rel_reg, disc: int, rel_reg_err=0, prec: int = 192):
    """units.certify_fundamental with mpmath operators; returns (rel_reg,
    cusick_ratio, certified)."""
    from cubicunits.errors import InvalidParamsError, OutOfRegimeError

    if disc <= 16:
        raise OutOfRegimeError(f"certification needs disc > 16, got {disc}")
    with mp.workprec(max(prec, 64)):
        rel_reg = mp.mpf(rel_reg)
        if not rel_reg > 0:
            raise InvalidParamsError("relative regulator must be positive")
        L = mp.log(mp.mpf(disc) / 4)
        pad = mp.ldexp(1, -(mp.mp.prec - 16))
        ratio = rel_reg / L ** 2
        ratio_hi = (rel_reg + mp.mpf(rel_reg_err)) / (L * (1 - pad)) ** 2 * (1 + pad)
        certified = bool(ratio_hi < mp.mpf(1) / 8 - mp.ldexp(1, -32))
        return rel_reg, ratio, certified


def reference_omega(prec: int = 53) -> mp.mpc:
    """omega = e^{2 pi i/3}, shapes.limit_shape_z(0, 1, prec), with mpmath
    operators."""
    with mp.workprec(prec):
        return mp.mpc(-mp.mpf(1) / 2, mp.sqrt(3) / 2)


def reference_corner(prec: int = 53) -> mp.mpc:
    """The corner e^{i pi/3}, shapes.limit_shape_z(0, 0, prec), with mpmath
    operators."""
    with mp.workprec(prec):
        return 1 + reference_omega(prec)


def reference_to_plane(v, prec=None) -> mp.mpc:
    """The plane map of the shape, (-1,0,1) -> 1 and (0,-1,1) -> 1+omega,
    with mpmath operators: shape_from_units reads only its Gram matrix, so
    this is an independent check of that form."""
    from cubicunits.errors import InvalidParamsError

    prec = prec or mp.mp.prec
    s = abs(v.x1 + v.x2 + v.x3)
    scale = max(1, abs(v.x1), abs(v.x2), abs(v.x3))
    if s > max(9 * v.err, mp.ldexp(scale, -16)) + _reference_sum_slack((v.x1, v.x2, v.x3)):
        raise InvalidParamsError(f"input is off the trace-zero plane by {mp.nstr(s, 8)}")
    with mp.workprec(prec):
        return -v.x1 - v.x2 * (1 + reference_omega(prec))


def replay(tau, word):
    """Re-apply a recorded reduction word to check it really is the path,
    at the ambient precision."""
    for mv in word:
        if mv == "reflect":
            tau = mp.conj(tau)
        elif mv == "S":
            tau = -1 / tau
        elif mv.startswith("T"):
            tau = tau + int(mv[1:])
        else:
            raise AssertionError(f"unknown move {mv!r}")
    return tau


def reference_convention(sp) -> bool:
    """Whether a printed shape is the convention's representative of the
    closed fundamental domain: within its radius r of the domain, and its
    enclosure misses the left edge and, where Re < 0, the arc. The miss is
    checked at r/2, since the tie is settled on the exact form and the
    printed point is off it by its own rounding, a part of r (a float,
    read exactly)."""
    with mp.workprec(1024):
        x, size, r = sp.tau.real, abs(sp.tau), mp.mpf(sp.radius)
        return (r / 2 < x + mp.mpf(1) / 2 and x <= mp.mpf(1) / 2 + r and size >= 1 - r
                and (x >= 0 or size - 1 > r / 2))


def _reference_rounded(v):
    # v rounded at the ambient precision, charged v.err and the rounding slack
    x = tuple(+c for c in v.coords)
    return ReferenceLogVector(*x, v.err + _reference_round_slack(x))


def reference_make_simplex(v1, v2, prec: int):
    """masses.make_simplex with mpmath operators; returns the three alphas."""
    from cubicunits.errors import DependentUnitsError

    with mp.workprec(prec):
        a1 = v1
        a2 = _reference_rounded(v2 - v1)
        a3 = _reference_rounded(-v2)
        cross = a1.x1 * a2.x2 - a1.x2 * a2.x1
    with mp.workprec(4 * prec + 64):  # the bound, whose norms are irrational, near exactly
        scale = max(*(mp.sqrt(a.x1 ** 2 + a.x2 ** 2 + a.x3 ** 2) for a in (a1, a2)), mp.mpf(1))
        if abs(cross) <= 8 * _to_mpf(a1.err + a2.err) * scale:
            raise DependentUnitsError("simplex vectors do not span the plane")
        return a1, a2, a3


def reference_hex_domain(alphas, prec: int):
    """masses.hex_domain with mpmath operators, on the three alphas;
    returns (vertices, ceiling, ceiling_err)."""
    with mp.workprec(prec):
        return _reference_hexagon(alphas)


def _reference_hexagon(alphas):
    import itertools

    terms = [None] + [[[w * x for x in alpha.coords] for alpha in alphas]
                      for w in (mp.mpf(1) / 3, mp.mpf(2) / 3)]
    verts = []
    for perm in itertools.permutations(range(3)):
        a, b = (terms[p][i] for i, p in enumerate(perm) if p)
        verts.append(tuple(x + y for x, y in zip(a, b)))
    ceiling = max(max(v) for v in verts)
    err = alphas[0].err + alphas[1].err + alphas[2].err
    return tuple(verts), ceiling, err


def reference_root(n: int, exp: int, prec: int) -> mp.mpf:
    """sqrt(n) 2^exp rounded at prec bits, as the kernel's minimum is,
    through mpmath's own square root of the integer n."""
    from mpmath.libmp import from_int, mpf_shift, mpf_sqrt, round_nearest

    return mp.make_mpf(mpf_shift(mpf_sqrt(from_int(n), prec, round_nearest), exp))
