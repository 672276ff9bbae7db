"""Lattice embeddings, certified heights, hexagon domains, mass estimates."""

import functools
import math
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicunits import (
    DependentUnitsError,
    InternalInconsistencyError,
    InvalidParamsError,
    LatticeBasis3,
    LogVector,
    MonicCubic,
    OneUnitParams,
    PrecisionPolicy,
    SimplexSet,
    TwoUnitParams,
    build_one_unit,
    build_order,
    build_two_unit,
    check_tight,
    embed_order_lattice,
    exp_act,
    extend_seed,
    hex_domain,
    hexagon_grid,
    lattice_height,
    log_embed,
    make_simplex,
    make_simplex_min_ceiling,
    mass_above_height,
    shortest_vector_norm,
    simplest_cubic,
)
from cubicunits import masses
from cubicunits.precision import mpf_to_fraction
from .oracles import reference_shortest_vector_norm

SEED_ORDER = build_order(simplest_cubic(1000), [(1, 0), (1, -1)])


def vec(x1, x2, x3, err="1e-40"):
    return LogVector(mp.mpf(x1), mp.mpf(x2), mp.mpf(x3), mp.mpf(err))


def basis_from_cols(cols):
    return LatticeBasis3.from_columns([[mp.mpf(v) for v in c] for c in cols], mp.ldexp(1, -90))


def regular_simplex():
    # alphas (1,0,-1), (-1,1,0), (0,-1,1): the hexagon is regular
    return make_simplex(vec(1, 0, -1), vec(0, 1, -1))


# ---------------------------------------------------------------------------
# embedding and heights
# ---------------------------------------------------------------------------


def test_embed_order_lattice_unimodular():
    with mp.workprec(260):
        basis = embed_order_lattice(SEED_ORDER)
        det = mp.det(basis.mat)
        assert abs(abs(det) - 1) <= basis.det_err
        # column 0 is disc^{-1/6} * (1,1,1)
        s = mp.power(mp.mpf(SEED_ORDER.disc), mp.mpf(-1) / 6)
        for x in basis.column(0):
            assert abs(x - s) < mp.ldexp(1, -150)


def test_shortest_vector_identity_and_diagonal():
    with mp.workprec(192):
        assert abs(shortest_vector_norm(basis_from_cols(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) - 1) < mp.ldexp(1, -80)
        b = basis_from_cols([(2, 0, 0), (0, mp.mpf(1) / 2, 0), (0, 0, 1)])
        assert abs(shortest_vector_norm(b) - mp.mpf(1) / 2) < mp.ldexp(1, -80)
        assert abs(lattice_height(b) - 2) < mp.ldexp(1, -78)


def test_shortest_vector_is_lattice_invariant():
    with mp.workprec(192):
        base = embed_order_lattice(SEED_ORDER)
        ref = shortest_vector_norm(base)
        # unimodular column operations do not change the lattice
        m = mp.matrix(base.mat)
        for j in range(3):
            m[j, 0] = m[j, 0] + 3 * m[j, 1] - 2 * m[j, 2]
        for j in range(3):
            m[j, 2] = m[j, 2] - 5 * m[j, 1]
        tweaked = LatticeBasis3.from_columns(
            [[m[i, j] for i in range(3)] for j in range(3)], base.det_err)
        assert abs(shortest_vector_norm(tweaked) - ref) < mp.ldexp(1, -60)


def exact_basis(cols):
    # dyadic entries, stored without rounding
    with mp.workprec(8192):
        return LatticeBasis3.from_columns(
            [[mp.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in c]
             for c in cols], mp.mpf(0))


def reference_norm(basis, prec=1024):
    return reference_shortest_vector_norm([basis.column(j) for j in range(3)], prec)


def det3(cols):
    (a, b, c), (d, e, f), (g, h, i) = cols
    return a * (e * i - f * h) - d * (b * i - c * h) + g * (b * f - c * e)


def near_tie_pair(draw):
    # a unit b0 and a b1 at mu = <b1, b0> in [-0.509, -0.501] with
    # |b1|^2 = -2 mu, in a random plane, entries rounded to 70 bits: b0 and
    # b0 + b1 (not a basis vector after reduction) are minima a relative
    # ~2^-70 apart whose float64 norms go through different roundings
    coords = st.integers(-2 ** 60, 2 ** 60)
    with mp.workprec(256):
        p = mp.matrix([draw(coords) for _ in range(3)])
        q = mp.matrix([draw(coords) for _ in range(3)])
        q = q - (q.T * p)[0] / max((p.T * p)[0], 1) * p
        if mp.norm(p) == 0 or mp.norm(q) == 0:
            p, q = mp.matrix([1, 0, 0]), mp.matrix([0, 1, 0])
        p, q = p / mp.norm(p), q / mp.norm(q)
        mu = -mp.mpf(draw(st.integers(501, 509))) / 1000 - mp.mpf(draw(coords)) / 2 ** 72
        b1 = mu * p + mp.sqrt(-2 * mu - mu ** 2) * q
        with mp.workprec(70):
            return [[mpf_to_fraction(+v[i]) for i in range(3)] for v in (p, b1)]


@st.composite
def transformed_bases(draw):
    # a base lattice with column scales 2^e, |e| <= 50 (entries spanning up
    # to 2^100), either generic or with near-tied minima, then a random
    # unimodular transform
    exps = [draw(st.integers(-50, 50)) for _ in range(3)]
    if draw(st.booleans()):
        unit = Fraction(2) ** exps[0]
        cols = [[unit * v for v in c] for c in near_tie_pair(draw)]
        cols.append([draw(st.integers(-3, 3)), draw(st.integers(-3, 3)),
                     unit * 2 ** draw(st.integers(1, 40))])
    else:
        small = st.integers(-5, 5)
        cols = [[draw(small) * Fraction(2) ** e for _ in range(3)] for e in exps]
    if det3(cols) == 0:
        cols = [[Fraction(2) ** e if i == j else 0 for i in range(3)]
                for j, e in enumerate(exps)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.permutations(range(3)))[:2]
        q = draw(st.integers(-2 ** 20, 2 ** 20))
        cols[i] = [x + q * y for x, y in zip(cols[i], cols[j])]
        if draw(st.booleans()):
            cols[i], cols[j] = cols[j], cols[i]
    return exact_basis(cols)


@settings(max_examples=150, deadline=None)
@given(transformed_bases(), st.integers(64, 256))
def test_kernel_matches_reference_on_transformed_bases(basis, prec):
    s = shortest_vector_norm(basis, prec)
    ref = reference_norm(basis)
    with mp.workprec(1024):
        assert abs(s - ref) <= ref * mp.ldexp(1, -(prec - 40))


def test_kernel_keeps_near_tied_minima():
    # |b0 + b1|^2 exceeds |b0|^2 = 1 by about 2^-71, and the float64 norms
    # rank b0 + b1 first; only the enumeration pad keeps b0 for the exact
    # comparison
    b1 = [Fraction(-592790373841831080403, 2 ** 70),
          Fraction(1023858520050342276513, 2 ** 70), 0]
    assert 1 < (1 + b1[0]) ** 2 + b1[1] ** 2 < 1 + Fraction(1, 2 ** 60)
    s = shortest_vector_norm(exact_basis([[1, 0, 0], b1, [0, 0, 2]]), 192)
    assert abs(s - 1) <= mp.ldexp(1, -190)


@functools.lru_cache(maxsize=None)
def family_order(kind, t):
    return mass_member(kind, t)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["one_unit", "two_unit", "seed"]), st.integers(3, 24),
       st.integers(0, 90))
def test_kernel_matches_reference_on_moved_family_bases(kind, e, index):
    order, phi = family_order(kind, 10 ** e)
    u, v = hexagon_grid(60)[index]
    with mp.workprec(192):
        x = (phi.alpha1.scaled(mp.mpf(u.numerator) / u.denominator)
             + phi.alpha2.scaled(mp.mpf(v.numerator) / v.denominator))
        moved = exp_act(x.coords, embed_order_lattice(order))
    s = shortest_vector_norm(moved, 192)
    ref = reference_norm(moved)
    with mp.workprec(1024):
        assert abs(s - ref) <= ref * mp.ldexp(1, -(192 - 40))


def centre(phi, a, b, k, bits):
    # x = (a alpha1 + b alpha2) / k from the exact alphas, each coordinate
    # rounded to nearest at bits through a 4096-bit quotient, which lands on
    # no tie at bits here
    coords = []
    for p, q in zip(phi.alpha1.coords, phi.alpha2.coords):
        x = (a * mpf_to_fraction(p) + b * mpf_to_fraction(q)) / k
        with mp.workprec(4096):
            x = mp.mpf(x.numerator) / x.denominator
        with mp.workprec(bits):
            coords.append(+x)
    return LogVector(*coords, mp.mpf(0))


def raw_embedding(order, prec):
    # the embedding from the stored roots, each entry rounded at prec
    with mp.workprec(prec):
        scale = mp.power(mp.mpf(order.disc), mp.mpf(-1) / 6)
        return LatticeBasis3.from_columns(
            [[scale * r.value ** j for r in order.roots] for j in range(3)], mp.mpf(0))


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 12, 10 ** 24])
def test_certified_norm_charges_the_kernel_error(kind, t):
    # the kernel's term of the certified margin alone covers the distance
    # to a 768-bit recomputation from the raw embedding, at the same x
    order, phi = family_order(kind, t)
    bits = masses._bits(order)
    base = masses._prereduced(order)
    fine = raw_embedding(order, 768)
    k, rows = masses._hexagon_rows(60)
    norm = masses._certified_norm(order, phi, k)
    points = [(u, v) for u, row in enumerate(rows, -2 * k // 3) for v in row]
    for a, b in points[::4]:
        x = centre(phi, a, b, k, bits)
        with mp.workprec(bits):
            moved = exp_act(x.coords, base)
            s = shortest_vector_norm(moved, bits)
            term = s * mp.ldexp(masses._dual_weight(moved), 3 - bits)
            s_ref, margin = norm(a, b)
            assert s_ref == s and margin >= term
        with mp.workprec(768):
            s768 = reference_norm(exp_act(x.coords, fine), 1024)
            assert abs(s - s768) <= term


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 12, 10 ** 24])
def test_exp_act_rounds_each_entry_once(kind, t):
    # every entry of the moved integer image is within a relative
    # 2^-(bits-2) of the 768-bit product e^{x_i} times the basis entry
    order, phi = family_order(kind, t)
    bits = masses._bits(order)
    base = masses._prereduced(order)
    k, rows = masses._hexagon_rows(60)
    points = [(u, v) for u, row in enumerate(rows, -2 * k // 3) for v in row]
    for a, b in points[::9]:
        x = centre(phi, a, b, k, bits)
        with mp.workprec(bits):
            moved = exp_act(x.coords, base)
        with mp.workprec(768):
            for j in range(3):
                for i, (m, v) in enumerate(zip(moved.column(j), base.column(j))):
                    ref = mp.exp(x.coords[i]) * v
                    assert abs(m - ref) <= abs(ref) * mp.ldexp(1, -(bits - 2))


def test_prereduced_once_per_mass_call(monkeypatch):
    order, phi = mass_member("one_unit", 1000)
    embeds = []

    def counting(*args, **kwargs):
        embeds.append(1)
        return embed_order_lattice(*args, **kwargs)

    monkeypatch.setattr(masses, "embed_order_lattice", counting)
    mass_above_height(order, phi, (10.0, 9.99, 100.0), samples=600)
    assert len(embeds) == 2  # one reduction: the coarse and the fine embedding
    # the reduction reads no ambient precision
    base = masses._prereduced(order)
    with mp.workprec(30):
        assert masses._prereduced(order) == base


def test_order_height_is_disc_sixth_over_sqrt3():
    # the image of 1 is always a shortest vector: norm sqrt(3) disc^{-1/6}
    for t in (7, 1000, 10 ** 6):
        order = build_order(simplest_cubic(t), [(1, 0), (1, -1)])
        with mp.workprec(220):
            ht = lattice_height(embed_order_lattice(order))
            expect = mp.power(mp.mpf(order.disc), mp.mpf(1) / 6) / mp.sqrt(3)
            assert abs(ht - expect) < expect * mp.ldexp(1, -60)


def test_exp_act_preserves_determinant():
    with mp.workprec(200):
        base = embed_order_lattice(SEED_ORDER)
        x = vec("0.7", "-0.2", "-0.5")
        moved = exp_act(x.coords, base)
        assert abs(abs(mp.det(moved.mat)) - abs(mp.det(base.mat))) < mp.ldexp(1, -150)


def test_height_is_periodic_under_unit_flow():
    # exp(psi(u)) maps the order lattice to itself, so height is unchanged
    with mp.workprec(200):
        base = embed_order_lattice(SEED_ORDER)
        ref = lattice_height(base)
        for unit in SEED_ORDER.units:
            v = log_embed(SEED_ORDER, *unit)
            moved = exp_act(v.coords, base)
            assert abs(lattice_height(moved) - ref) < ref * mp.ldexp(1, -40)


# ---------------------------------------------------------------------------
# simplex sets and hexagons
# ---------------------------------------------------------------------------


def test_make_simplex_structure():
    with mp.workprec(200):
        v1 = log_embed(SEED_ORDER, 1, 0)
        v2 = log_embed(SEED_ORDER, 1, -1)
        phi = make_simplex(v1, v2)
        for k in range(3):
            s = phi.alpha1.coords[k] + phi.alpha2.coords[k] + phi.alpha3.coords[k]
            assert abs(s) < mp.ldexp(1, -150)
        with pytest.raises(DependentUnitsError):
            make_simplex(v1, v1.scaled(2))


def test_hex_domain_regular_ceiling():
    with mp.workprec(120):
        hd = hex_domain(regular_simplex())
        assert abs(hd.ceiling - mp.mpf(2) / 3) < mp.ldexp(1, -100)
        assert len(hd.vertices) == 6
        # centrally symmetric vertex set
        for v in hd.vertices:
            assert any(
                max(abs(v[k] + w[k]) for k in range(3)) < mp.ldexp(1, -90)
                for w in hd.vertices
            )


def test_hex_domain_homogeneous():
    with mp.workprec(200):
        v1 = log_embed(SEED_ORDER, 1, 0)
        v2 = log_embed(SEED_ORDER, 1, -1)
        c1 = hex_domain(make_simplex(v1, v2)).ceiling
        c3 = hex_domain(make_simplex(v1.scaled(3), v2.scaled(3))).ceiling
        assert abs(c3 - 3 * c1) < mp.ldexp(1, -120)


def shoelace(pts):
    n = len(pts)
    s = mp.mpf(0)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def test_hexagon_area_equals_covolume():
    # the coefficient hexagon has area exactly 1, so the plane hexagon's
    # area equals |alpha1 x alpha2| in the (x1,x2) projection
    with mp.workprec(200):
        v1 = log_embed(SEED_ORDER, 1, 0)
        v2 = log_embed(SEED_ORDER, 1, -1)
        phi = make_simplex(v1, v2)
        hd = hex_domain(phi)
        cross = abs(phi.alpha1.x1 * phi.alpha2.x2 - phi.alpha1.x2 * phi.alpha2.x1)
        proj = [(v[0], v[1]) for v in hd.vertices]
        proj.sort(key=lambda p: mp.atan2(p[1], p[0]))
        area = shoelace(proj)
        assert abs(area - cross) < cross * mp.ldexp(1, -60)


def test_make_simplex_min_ceiling_picks_minimum():
    with mp.workprec(200):
        v1 = log_embed(SEED_ORDER, 1, 0)
        v2 = log_embed(SEED_ORDER, 1, -1)
        best = hex_domain(make_simplex_min_ceiling(v1, v2)).ceiling
        seen = []
        for w1, w2 in [(v1, v2), (v2, v1), (v1, v1 + v2), (v1 + v2, v2),
                       (v1, v2 - v1), (v1 - v2, v2)]:
            try:
                seen.append(hex_domain(make_simplex(w1, w2)).ceiling)
            except DependentUnitsError:
                pass
        assert abs(best - min(seen)) < mp.ldexp(1, -100)
        assert all(best <= c + mp.ldexp(1, -100) for c in seen)


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def test_check_tight_frozen():
    phi = regular_simplex()  # ceiling 2/3
    assert check_tight(phi, 1, 2, 1)  # e^(2/3) = 1.948 <= 2
    assert not check_tight(phi, 1, Fraction(19, 10), 1)  # 1.948 > 1.9
    assert check_tight(phi, 1, Fraction(19, 10), Fraction(1, 2))
    with pytest.raises(InvalidParamsError):
        check_tight(phi, 1, Fraction(1, 2), 1)
    with pytest.raises(InvalidParamsError):
        check_tight(phi, 1, 2, 2)


def test_check_tight_fails_closed_on_fat_errors():
    # same nominal alphas, but error bounds so wide the answer must be No
    a1 = LogVector(mp.mpf(1), mp.mpf(0), mp.mpf(-1), mp.mpf(2))
    a2 = LogVector(mp.mpf(-1), mp.mpf(1), mp.mpf(0), mp.mpf(2))
    a3 = LogVector(mp.mpf(0), mp.mpf(-1), mp.mpf(1), mp.mpf(2))
    fat = SimplexSet(a1, a2, a3)
    assert not check_tight(fat, 1, 2, 1)


# ---------------------------------------------------------------------------
# sampling grid
# ---------------------------------------------------------------------------


def test_hexagon_grid_counts():
    assert len(hexagon_grid(1)) == 13  # m=1: 9+3+1
    assert len(hexagon_grid(13)) == 13
    assert len(hexagon_grid(14)) == 43  # m=2
    assert len(hexagon_grid(60)) == 91  # m=3
    with pytest.raises(InvalidParamsError):
        hexagon_grid(0)


def test_hexagon_grid_points_inside_hexagon():
    pts = hexagon_grid(60)
    assert len(set(pts)) == len(pts)
    assert pts == hexagon_grid(60)  # deterministic
    verts = [(Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)),
             (Fraction(-1, 3), Fraction(1, 3)), (Fraction(-2, 3), Fraction(-1, 3)),
             (Fraction(-1, 3), Fraction(-2, 3)), (Fraction(1, 3), Fraction(-1, 3))]
    for u, v in pts:
        for i in range(6):
            px, py = verts[i]
            qx, qy = verts[(i + 1) % 6]
            assert (qx - px) * (v - py) - (qy - py) * (u - px) >= 0


def half_plane_grid(m):
    # brute force: every point of the (4m+1)^2 box that passes the six
    # half-plane tests of the ccw vertex walk of the m-dilated, 3x-scaled
    # hexagon, in row-major order
    verts = [(x * m, y * m) for x, y in ((2, 1), (1, 2), (-1, 1), (-2, -1), (-1, -2), (1, -1))]
    edges = list(zip(verts, verts[1:] + verts[:1]))
    return [(Fraction(u, 3 * m), Fraction(v, 3 * m))
            for u in range(-2 * m, 2 * m + 1) for v in range(-2 * m, 2 * m + 1)
            if all((qx - px) * (v - py) - (qy - py) * (u - px) >= 0
                   for (px, py), (qx, qy) in edges)]


def test_hexagon_grid_matches_half_plane_walk():
    for m in range(1, 41):
        ref = half_plane_grid(m)
        # the smallest dilation with at least that many points is m
        assert hexagon_grid(len(ref)) == ref
        assert hexagon_grid(len(ref) - 1) == ref


def test_hexagon_grid_count_formula():
    for m in (1, 2, 3, 5):
        n = 9 * m * m + 3 * m + 1
        pts = hexagon_grid(n)
        assert len(pts) == n
        assert math.gcd(3 * m, 1) == 1  # denominators are 3m
        assert all(p[0].denominator <= 3 * m for p in pts)


@pytest.mark.parametrize("samples", [1, 2, 7, 60, 300, 600, 1000, 10000, 12345])
def test_centres_descend_by_level_then_row_major(samples):
    # the sweep's centre order: a stable sort by the lowest set bit of
    # gcd(a, b), highest first, with the origin above every level
    def level(point):
        low = point[0] | point[1]
        return low & -low or math.inf

    k, rows = masses._hexagon_rows(samples)
    top = 2 * k // 3
    grid = [(u, v) for u, row in enumerate(rows, -top) for v in row]
    assert list(masses._centres(rows, top)) == sorted(grid, key=level, reverse=True)


# ---------------------------------------------------------------------------
# mass above height
# ---------------------------------------------------------------------------


def big_order_and_simplex():
    order = build_order(simplest_cubic(10 ** 6), [(1, 0), (1, -1)])
    v1 = log_embed(order, 1, 0)
    v2 = log_embed(order, 1, -1)
    with mp.workprec(220):
        phi = make_simplex(v1, v2)
    return order, phi


def test_mass_above_height_frozen():
    order, phi = big_order_and_simplex()
    m10, m100, m1e9 = mass_above_height(order, phi, (10.0, 100.0, 1e9), samples=60)
    assert m10 == Fraction(76, 91)
    assert m100 <= m10
    # the orbit's height is bounded by ht * e^ceiling, far below 1e9
    assert m1e9 == 0


def test_mass_above_height_guards(monkeypatch):
    order, phi = big_order_and_simplex()
    kernel = []

    def counting(*args, **kwargs):
        kernel.append(1)
        return shortest_vector_norm(*args, **kwargs)

    monkeypatch.setattr(masses, "shortest_vector_norm", counting)
    # every height is checked before any kernel call: NaN fails "above 1"
    for heights in ((1.0,), (10.0, float("nan")), ()):
        with pytest.raises(InvalidParamsError):
            mass_above_height(order, phi, heights, samples=10)
    assert not kernel
    with pytest.raises(InvalidParamsError):
        mass_above_height(order, regular_simplex(), (10.0,), samples=10)


def mass_member(kind, t):
    if kind == "one_unit":
        f, cand = build_one_unit(OneUnitParams(1, 1), t), [(1, 1), (1, 0)]
    elif kind == "two_unit":
        f, cand = build_two_unit(TwoUnitParams(1, 1, 2, 3), t), [(1, 1), (2, 3)]
    else:  # x^3 - 3x - 1 along x(x+1): the simplest cubics
        f = extend_seed(MonicCubic(0, -3, -1), 1, 0, 1, -1, t)
        cand = [(1, 0), (1, -1)]
    order = build_order(f, cand)
    v1, v2 = (log_embed(order, *u) for u in order.units[:2])
    # at the ambient 53 bits, one_unit at t=10^9 has a grid point whose
    # height tie sits inside the simplex's rounding error
    with mp.workprec(256):
        return order, make_simplex(v1, v2)


def per_point_norm(order, phi, point, base):
    # one certified enumeration at the point itself, no neighbourhood:
    # (s, margin) with lambda_1 within margin of s
    bits = max(order.policy.target_bits, 192)
    with mp.workprec(bits):
        u, v = point
        x = (phi.alpha1.scaled(mp.mpf(u.numerator) / u.denominator)
             + phi.alpha2.scaled(mp.mpf(v.numerator) / v.denominator))
        s = shortest_vector_norm(exp_act(x.coords, base), bits)
        return s, s * mp.ldexp(1, -(bits - 32)) + 4 * x.err * s


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 9])
def test_mass_sweep_matches_per_point_oracle(kind, t):
    # every grid point, whether the sweep settled it by an exhibit, by an
    # enumeration or by either kind of cover, against its own enumeration
    order, phi = mass_member(kind, t)
    base = embed_order_lattice(order)
    points = hexagon_grid(300)
    norms = [per_point_norm(order, phi, p, base) for p in points]
    heights = (10.0, 100.0)
    expected = []
    for height in heights:
        with mp.workprec(512):
            hcut = 1 / mp.mpf(height)
        assert all(abs(s - hcut) > margin for s, margin in norms), "oracle undecided"
        expected.append(Fraction(sum(s < hcut for s, _ in norms), len(points)))
    assert mass_above_height(order, phi, heights, samples=300) == tuple(expected)


@pytest.mark.parametrize("kind, t", [("one_unit", 10 ** 3), ("two_unit", 10 ** 9),
                                     ("one_unit", 10 ** 21)])
def test_cover_marks_the_one_sided_region(kind, t):
    # against the exact alphas: a verdict marks only points whose offset d
    # from the centre has sg d_i <= r on every coordinate (sg = +1 for
    # escape, -1 for stays), and every point that clears r by the charged
    # error. The margin doubles that error, to also cover the float
    # rounding of the reach and the 2^-64 rounding of the integer images.
    # At 10^21, alpha2's first coordinate (about -1e-21) rounds to 0 in
    # its image, so one coordinate bounds the rows alone.
    order, phi = mass_member(kind, t)
    k, rows = masses._hexagon_rows(300)
    top = 2 * k // 3
    alphas = [[mpf_to_fraction(c) for c in alpha.coords] for alpha in (phi.alpha1, phi.alpha2)]
    assert (t < 10 ** 20) == all(abs(c) >= 2 ** -64 for c in alphas[1])
    eps = sys.float_info.epsilon
    slack = 6 * float(max(phi.alpha1.err, phi.alpha2.err)) + 3 * 2.0 ** -64
    size = max(abs(float(c)) for alpha in alphas for c in alpha)
    cover = masses._cover(phi, k, rows)
    grid = [(u, v) for u, row in enumerate(rows, -top) for v in row]
    for a, b in [(0, 0), (5, -3), (-7, 2), (top, rows[-1].start)]:
        for r in (size / 20, size / 4, size / 2, 1e9):
            margin = Fraction(2 * (8 * eps * r + 4 * eps + slack)) + Fraction(1, k << 64)
            for mark, sg in ((masses._ESCAPES, 1), (masses._STAYS, -1)):
                state = [bytearray(len(row)) for row in rows]
                cover(state, a, b, r, mark)
                beyond = False  # a marked point outside the sup-ball |d_i| <= r
                for u, v in grid:
                    got = state[u + top][v - rows[u + top].start]
                    d = [((u - a) * p + (v - b) * q) / k for p, q in zip(*alphas)]
                    worst = max(sg * di for di in d)
                    assert got in (0, mark)
                    assert got or (u, v) != (a, b)
                    if got and (u, v) != (a, b):
                        assert worst <= Fraction(r)
                    if worst <= Fraction(r) - margin:
                        assert got
                    beyond |= bool(got) and max(map(abs, d)) > r
                assert beyond or (a, b) != (0, 0) or r not in (size / 4, size / 2)
                if r >= size / 4:
                    with pytest.raises(InternalInconsistencyError):
                        cover(state, a, b, r, masses._STAYS + masses._ESCAPES - mark)


def test_mass_sweep_enumeration_count(monkeypatch):
    order, phi = mass_member("one_unit", 1000)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return shortest_vector_norm(*args, **kwargs)

    monkeypatch.setattr(masses, "shortest_vector_norm", counting)
    mass_above_height(order, phi, (10.0,), samples=2000)
    # one enumeration per exhibit-unsettled point would be 1149 calls; the
    # one-sided cover makes 70, and the sup-ball cover it replaced made 88
    assert len(calls) <= 80


# ---------------------------------------------------------------------------
# one mass call per member: every height shares the height-free sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t, prec", [(10 ** 3, 16), (10 ** 15, 20)])
def test_mass_is_independent_of_ambient_precision(t, prec):
    # the simplex-membership check runs at the order's bits, so a genuine
    # simplex is accepted, and gives the same fraction, at any ambient
    # precision; each order is fresh, so the check runs under each one
    fractions = set()
    for ambient in (prec, 20, 53):
        order, phi = mass_member("one_unit", t)
        with mp.workprec(ambient):
            fractions.add(mass_above_height(order, phi, (10.0,), samples=60))
    assert len(fractions) == 1


def counting_sweep(monkeypatch):
    # record every kernel call and every centre the certified norm is asked for
    kernel, asked = [], []
    certified_norm = masses._certified_norm

    def kernel_counting(*args, **kwargs):
        kernel.append(1)
        return shortest_vector_norm(*args, **kwargs)

    def norm_recording(order, phi, k):
        norm = certified_norm(order, phi, k)

        def recorded(a, b):
            asked.append((a, b))
            return norm(a, b)
        return recorded

    monkeypatch.setattr(masses, "shortest_vector_norm", kernel_counting)
    monkeypatch.setattr(masses, "_certified_norm", norm_recording)
    return kernel, asked


@pytest.mark.parametrize("kind, t", [("two_unit", 10 ** 9), ("one_unit", 10 ** 15)])
def test_heights_share_certified_centres(monkeypatch, kind, t):
    heights = (10.0, 9.99, 100.0)
    fresh = [mass_above_height(*mass_member(kind, t), (h,), samples=600)[0] for h in heights]
    kernel, asked = counting_sweep(monkeypatch)
    order, phi = mass_member(kind, t)
    assert mass_above_height(order, phi, heights, samples=600) == tuple(fresh)
    # one enumeration per distinct centre, though later heights ask again
    assert len(kernel) == len(set(asked)) < len(asked)


def policy_member(kind, t, bits):
    # like mass_member, at a finer policy and with the simplex made at 53
    # bits, the CLI's default ambient precision: its error is about 2^-50, so
    # at 1200 bits the kernel term of the margin falls below the float range
    order = mass_member(kind, t)[0]
    order = build_order(order.f, order.units, PrecisionPolicy(bits, 4 * bits))
    with mp.workprec(53):
        return order, make_simplex(*(log_embed(order, *u) for u in order.units[:2]))


@pytest.mark.parametrize("kind, t, bits", [
    *((kind, 10 ** e, 192) for kind in ("one_unit", "two_unit", "seed") for e in (3, 12, 21)),
    ("one_unit", 10 ** 3, 1200),
])
def test_float_margin_bounds_the_mpf_margin(kind, t, bits):
    # the float64 margin is at least the mpf margin it replaced,
    # s (2^(3-bits) D + 4 x.err), evaluated at twice the bits
    order, phi = family_order(kind, t) if bits == 192 else policy_member(kind, t, bits)
    assert masses._bits(order) == bits
    base = masses._prereduced(order)
    k, rows = masses._hexagon_rows(60)
    norm = masses._certified_norm(order, phi, k)
    points = [(u, v) for u, row in enumerate(rows, -2 * k // 3) for v in row]
    for a, b in points[::7]:
        x = centre(phi, a, b, k, bits)
        with mp.workprec(bits):
            weight = masses._dual_weight(exp_act(x.coords, base))
        s, margin = norm(a, b)
        with mp.workprec(2 * bits):
            x_err = ((abs(a) * phi.alpha1.err + abs(b) * phi.alpha2.err) / k
                     + mp.ldexp(max(abs(c) for c in x.coords), 1 - bits))
            assert margin >= s * (mp.ldexp(weight, 3 - bits) + 4 * x_err)
