"""Lattice embeddings, certified heights, hexagon domains, mass estimates."""

import bisect
import collections
import contextlib
import functools
import io
import itertools
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from cubicunits import (
    CubicUnitsError,
    DependentUnitsError,
    InternalInconsistencyError,
    InvalidParamsError,
    LatticeBasis3,
    LogVector,
    MonicCubic,
    OneUnitParams,
    PrecisionExhaustedError,
    PrecisionPolicy,
    SimplexSet,
    TwoUnitParams,
    build_one_unit,
    build_order,
    build_two_unit,
    check_tight,
    discriminant,
    embed_order_lattice,
    extend_seed,
    hex_domain,
    hexagon_grid,
    lattice_height,
    log_embed,
    make_simplex,
    mass_above_height,
    shortest_vector_norm,
    simplest_cubic,
)
from cubicunits import cli, masses, precision, units
from cubicunits.precision import ROW_BITS, dyadic, mpf_to_fraction
from .oracles import (
    bareiss_det,
    basis_columns,
    centre_order,
    exp_act,
    iroot,
    reference_cover,
    reference_dual_weight,
    reference_exp_act,
    reference_lll,
    reference_minima,
    reference_open_points,
    reference_second_minimum,
    reference_reduce,
    reference_shortest_vector_norm,
)

SEED_ORDER = build_order(simplest_cubic(1000), [(1, 0), (1, -1)])
ONE_UNIT = '{"kind":"one_unit","a":"1","b":"1"}'
TWO_UNIT = '{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}'
SEED = '{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},"a":"1","b":"0","c":"1","d":"-1"}'


def vec(x1, x2, x3, err="1e-40"):
    return LogVector(mp.mpf(x1), mp.mpf(x2), mp.mpf(x3), mp.mpf(err))


def basis_from_cols(cols):
    return LatticeBasis3.from_columns([[mp.mpf(v) for v in c] for c in cols])


def regular_simplex(prec=ROW_BITS):
    # alphas (1,0,-1), (-1,1,0), (0,-1,1): the hexagon is regular
    return make_simplex(vec(1, 0, -1), vec(0, 1, -1), prec)


# the simplex width of the sweep tests, finer than the rows' ROW_BITS
FINE = 256


def fine_simplex(bits=FINE):
    """The mass stage's own simplex at `bits` instead of ROW_BITS: the
    constant it reads, patched while the context lasts."""
    return mock.patch.object(masses, "ROW_BITS", bits)


# ---------------------------------------------------------------------------
# embedding and heights
# ---------------------------------------------------------------------------


def test_embed_order_lattice_unimodular():
    with mp.workprec(260):
        basis = embed_order_lattice(SEED_ORDER)
        det = mp.det(mp.matrix(basis_columns(basis)))
        # the bound embed_order_lattice checks, at the order's target bits
        assert abs(abs(det) - 1) <= mp.ldexp(1, -(SEED_ORDER.policy.target_bits // 2))
        # column 0 is disc^{-1/6} * (1,1,1)
        s = mp.power(mp.mpf(SEED_ORDER.disc), mp.mpf(-1) / 6)
        for x in basis_columns(basis)[0]:
            assert abs(x - s) < mp.ldexp(1, -150)


def test_shortest_vector_identity_and_diagonal():
    with mp.workprec(192):
        assert abs(shortest_vector_norm(basis_from_cols(
            [(1, 0, 0), (0, 1, 0), (0, 0, 1)])) - 1) < mp.ldexp(1, -80)
        b = basis_from_cols([(2, 0, 0), (0, mp.mpf(1) / 2, 0), (0, 0, 1)])
        assert abs(shortest_vector_norm(b) - mp.mpf(1) / 2) < mp.ldexp(1, -80)


def test_shortest_vector_is_lattice_invariant():
    with mp.workprec(192):
        base = embed_order_lattice(SEED_ORDER)
        ref = shortest_vector_norm(base)
        # unimodular column operations do not change the lattice
        m = mp.matrix(basis_columns(base)).T
        for j in range(3):
            m[j, 0] = m[j, 0] + 3 * m[j, 1] - 2 * m[j, 2]
        for j in range(3):
            m[j, 2] = m[j, 2] - 5 * m[j, 1]
        tweaked = LatticeBasis3.from_columns(
            [[m[i, j] for i in range(3)] for j in range(3)])
        assert abs(shortest_vector_norm(tweaked) - ref) < mp.ldexp(1, -60)


def exact_basis(cols):
    # dyadic entries, stored without rounding
    with mp.workprec(8192):
        return LatticeBasis3.from_columns(
            [[mp.mpf(Fraction(v).numerator) / Fraction(v).denominator for v in c]
             for c in cols])


def reference_norm(basis, prec=1024):
    return reference_shortest_vector_norm(basis_columns(basis), prec)


def exact(n, e):
    # the dyadic n 2^e as an mpf, exactly
    return mp.make_mpf(from_man_exp(n, e))


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
    # rank b0 + b1 first; only the exact integer norms keep b0
    b1 = [Fraction(-592790373841831080403, 2 ** 70),
          Fraction(1023858520050342276513, 2 ** 70), 0]
    assert 1 < (1 + b1[0]) ** 2 + b1[1] ** 2 < 1 + Fraction(1, 2 ** 60)
    s = shortest_vector_norm(exact_basis([[1, 0, 0], b1, [0, 0, 2]]), 192)
    assert abs(s - 1) <= mp.ldexp(1, -190)


@settings(max_examples=150, deadline=None)
@given(transformed_bases())
def test_second_minimum_matches_reference_on_transformed_bases(basis):
    # the kernel's lambda_2^2, against the least norm among vectors not
    # parallel to a shortest one from an independent mpf enumeration; on
    # the near-tied bases the two minima are not parallel, so the second
    # is the first
    second = basis._minimum[2]
    ref = reference_second_minimum(basis_columns(basis), 1024)
    with mp.workprec(1024):
        assert abs(mp.ldexp(mp.sqrt(second), basis.exp) - ref) <= ref * mp.ldexp(1, -200)


def test_second_minimum_skips_only_the_shortest_line():
    # columns e0 (shortest), 3 e0 + 2^40 e1 and 5 e1 + 2^60 e2: lambda_2 is
    # 2^40, and about 2^25 of its translates by multiples of e0 lie within
    # a relative 2^-30 of it
    basis = exact_basis([[1, 0, 0], [3, 2 ** 40, 0], [0, 5, 2 ** 60]])
    v1, n1, n2 = basis._minimum
    assert (n1, n2) == (1, 2 ** 80) and v1 in ([1, 0, 0], [-1, 0, 0])


def minkowski_failures(cols) -> int:
    # how many of the sorted columns' Minkowski conditions with
    # coefficients in {0, +-1} fail: |b1 + x b0| >= |b1| and |b2 + x b0 +
    # y b1| >= |b2|
    dot = masses._dot
    b0, b1, b2 = sorted(cols, key=lambda c: dot(c, c))
    sums = [(b1, [p + x * q for p, q in zip(b1, b0)]) for x in (-1, 1)]
    sums += [(b2, [r + x * p + y * q for p, q, r in zip(b0, b1, b2)])
             for x in (-1, 0, 1) for y in (-1, 0, 1) if x or y]
    return sum(dot(v, v) < dot(b, b) for b, v in sums)


def gram_reduced(basis):
    # masses._reduce on the columns' Gram matrix, each coefficient vector
    # mapped back to its column: (exact squared norm, column) pairs
    cols = basis.cols
    red = masses._reduce([[masses._dot(a, b) for b in cols] for a in cols])
    return [(n, [sum(x * c[i] for x, c in zip(u, cols)) for i in range(3)]) for n, u in red]


def assert_matches_the_column_form(basis):
    # the Gram form reaches the column form's minima, each coefficient
    # vector's column has its norm, and where lambda_1 < lambda_2 its
    # shortest vector is the column form's up to sign
    red, ref = gram_reduced(basis), reference_reduce(basis.cols)
    assert [n for n, _ in red] == [n for n, _ in ref]
    assert all(masses._dot(c, c) == n for n, c in red)
    (n1, v1), (n2, _), _ = red
    if n1 < n2:
        assert v1 in (ref[0][1], [-x for x in ref[0][1]])


def assert_minima_match(basis, reference):
    # lambda_1^2 and lambda_2^2 exactly, and the shortest vector up to sign
    # where it is unique up to sign (lambda_1 < lambda_2)
    v1, n1, n2 = basis._minimum
    r1, rn1, rn2 = reference
    assert (n1, n2) == (rn1, rn2)
    assert masses._dot(v1, v1) == n1
    if n1 < n2:
        assert v1 in (r1, [-x for x in r1])


def skewed_lattices(count: int, seed: int) -> list[LatticeBasis3]:
    # random 40-bit integer bases with row i scaled by 2^e_i, e_i <= 60,
    # as the diagonal flow skews a lattice
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = [rng.randint(0, 60) for _ in range(3)]
        cols = [[rng.randint(-2 ** 40, 2 ** 40) << e[i] for i in range(3)] for _ in range(3)]
        if det3(cols):
            out.append(LatticeBasis3(tuple(map(tuple, cols)), 0))
    return out


def test_minima_match_the_padded_enumeration_on_skewed_lattices():
    # the exact greedy reduction gives the minima and the shortest vector
    # of two padded float64 enumerations, on 3000 lattices of which 114
    # leave LLL's output short of Minkowski's conditions, and its basis
    # meets every one of those conditions; its Gram form reaches the column
    # form's minima and shortest vector; on every 50th, also the minima of
    # an all-mpf enumeration at 1024 bits
    lattices = skewed_lattices(3000, 25)
    for i, basis in enumerate(lattices):
        assert_minima_match(basis, reference_minima(basis.cols))
        assert minkowski_failures([c for _, c in gram_reduced(basis)]) == 0
        assert_matches_the_column_form(basis)
        if i % 50 == 0:
            _, n1, n2 = basis._minimum
            cols = basis_columns(basis)
            ref1 = reference_shortest_vector_norm(cols, 1024)
            ref2 = reference_second_minimum(cols, 1024)
            with mp.workprec(1024):
                assert abs(mp.sqrt(n1) - ref1) <= ref1 * mp.ldexp(1, -200)
                assert abs(mp.sqrt(n2) - ref2) <= ref2 * mp.ldexp(1, -200)


def test_minima_complete_what_lll_leaves():
    # LLL's sorted output has squared norms 449, 451 and 509 here and fails
    # a Minkowski condition; the minima are 446 and 449, which the greedy
    # reduction gets wrong, (449, 451), without its moves by +-1
    cols = [[9, 9, 17], [1, 11, -20], [20, -9, 18]]
    lll = reference_lll(cols)[0]
    assert sorted(masses._dot(c, c) for c in lll) == [449, 451, 509]
    assert minkowski_failures(lll)
    basis = LatticeBasis3(tuple(map(tuple, cols)), 0)
    assert basis._minimum[1:] == (446, 449)
    assert_minima_match(basis, reference_minima(cols))
    with mp.workprec(64):
        assert shortest_vector_norm(basis, 64) == mp.sqrt(446)


def test_minima_match_the_padded_enumeration_on_benchmark_centres(monkeypatch):
    # every centre the mass sweep moves the lattice to, over the two mass
    # workloads of the benchmark at seeds 0 and 3: the kernel's minima and
    # shortest vector against two padded enumerations and the column form
    # of the reduction; on every tenth centre, also against an all-mpf
    # enumeration at 1024 bits
    from perfbench.workloads import members

    moved, exp_act = [], masses._exp_act

    def recording(*args):
        moved.append(exp_act(*args))
        return moved[-1]

    monkeypatch.setattr(masses, "_exp_act", recording)
    for workload in ("mass_dense", "profile_high_t"):
        for seed in (0, 3):
            for member in members(workload, seed):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(member.argv()) == 0
    # as many as the benchmark's traced masses.enum_calls: 10 and 68 at
    # seed 0, 6 and 25 at seed 3
    assert len(moved) == 109
    for i, basis in enumerate(moved):
        assert_minima_match(basis, reference_minima(basis.cols))
        assert_matches_the_column_form(basis)
        if i % 10 == 0:
            cols = basis_columns(basis)
            with mp.workprec(1024):
                for n, ref in zip(basis._minimum[1:], (reference_shortest_vector_norm(cols, 1024),
                                                       reference_second_minimum(cols, 1024))):
                    assert abs(mp.ldexp(mp.sqrt(n), basis.exp) - ref) <= ref * mp.ldexp(1, -200)


def raised(call, *args):
    # the call's result, or the InternalInconsistencyError it raised
    try:
        return call(*args)
    except InternalInconsistencyError as e:
        return e


@settings(max_examples=150, deadline=None)
@given(transformed_bases(), st.integers(64, 256),
       st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=3, max_size=3))
def test_kernel_matches_its_generic_loops_on_transformed_bases(basis, prec, xs):
    # the written-out kernel returns repr-identical results to the generic
    # loops it replaced, _exp_act at prec and _dual_weight; the Gram form of
    # the reduction matches the column form (reference_reduce)
    assert_matches_the_column_form(basis)
    x = [mp.ldexp(v, -36) for v in xs]  # |x_i| up to 16
    moved = exp_act(x, basis, prec)
    with mp.workprec(prec):
        assert repr(moved) == repr(reference_exp_act(x, basis))
    assert repr(masses._dual_weight(moved)) == repr(reference_dual_weight(moved))


@settings(max_examples=60, deadline=None)
@given(transformed_bases(), st.integers(0, 3))
def test_kernel_still_raises_like_its_generic_loops(basis, where):
    # a zero column (where < 3) or a repeated first column (where = 3) is
    # a degenerate basis, which raises from the kernel's minimum, through
    # the Gram form of the reduction, as in the column form and the generic
    # loops
    cols = [list(c) for c in basis.cols]
    if where < 3:
        cols[where] = [0, 0, 0]
    else:
        cols[1] = list(cols[0])
    for reduce in (lambda c: LatticeBasis3(tuple(map(tuple, c)), 0)._minimum, reference_reduce,
                   reference_lll):
        with pytest.raises(InternalInconsistencyError, match="degenerate basis"):
            reduce(cols)


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
        moved = exp_act(x.coords, embed_order_lattice(order), 192)
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
            [[scale * r.value ** j for r in order.roots] for j in range(3)])


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
    norm = masses._certified_norm(order, masses._Alphas.of(phi), k)
    points = [(u, v) for u, row in enumerate(rows, -2 * k // 3) for v in row]
    for a, b in points[::4]:
        x = centre(phi, a, b, k, bits)
        with mp.workprec(bits):
            moved = exp_act(x.coords, base, bits)
            s = shortest_vector_norm(moved, bits)
            term = s * mp.ldexp(masses._dual_weight(moved), 3 - bits)
            n_s, n_m, e, _ = norm(a, b)
            s_ref, margin = exact(n_s, e), exact(n_m, e)
            assert s_ref == s and margin >= term
        with mp.workprec(768):
            s768 = reference_norm(exp_act(x.coords, fine, 768), 1024)
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
        moved = exp_act(x.coords, base, bits)
        with mp.workprec(768):
            for j in range(3):
                for i, (m, v) in enumerate(zip(basis_columns(moved)[j], basis_columns(base)[j])):
                    ref = mp.exp(x.coords[i]) * v
                    assert abs(m - ref) <= abs(ref) * mp.ldexp(1, -(bits - 2))


def embedding_calls(monkeypatch) -> list[int]:
    """The precision of every masses._embedding call from now on."""
    calls, embedding = [], masses._embedding
    monkeypatch.setattr(masses, "_embedding",
                        lambda order, coeffs, prec: calls.append(prec) or embedding(order, coeffs, prec))
    return calls


def test_prereduced_once_per_mass_call(monkeypatch):
    order, _ = mass_member("one_unit", 1000)
    embeds = embedding_calls(monkeypatch)
    with mp.workprec(256):
        mass_above_height(order, (10.0, 9.99, 100.0), samples=600)
    assert embeds == [masses._bits(order)]  # one embedding, in the reduced basis
    # the reduction reads no ambient precision
    base = masses._prereduced(order)
    with mp.workprec(30):
        assert masses._prereduced(order) == base


def test_order_height_is_disc_sixth_over_sqrt3():
    # the image of 1 is always a shortest vector: norm sqrt(3) disc^{-1/6}
    for t in (7, 1000, 10 ** 6):
        order = build_order(simplest_cubic(t), [(1, 0), (1, -1)])
        with mp.workprec(220):
            ht = lattice_height(order)
            expect = mp.power(mp.mpf(order.disc), mp.mpf(1) / 6) / mp.sqrt(3)
            assert abs(ht - expect) < expect * mp.ldexp(1, -60)


def test_exp_act_preserves_determinant():
    with mp.workprec(200):
        base = embed_order_lattice(SEED_ORDER)
        x = vec("0.7", "-0.2", "-0.5")
        moved = exp_act(x.coords, base, 200)
        det_moved, det_base = (mp.det(mp.matrix(basis_columns(b))) for b in (moved, base))
        assert abs(abs(det_moved) - abs(det_base)) < mp.ldexp(1, -150)


def test_height_is_periodic_under_unit_flow():
    # exp(psi(u)) maps the order lattice to itself, so height is unchanged
    with mp.workprec(200):
        base = embed_order_lattice(SEED_ORDER)
        ref = lattice_height(SEED_ORDER, 200)
        for unit in SEED_ORDER.units:
            v = log_embed(SEED_ORDER, *unit)
            moved = exp_act(v.coords, base, 200)
            assert abs(1 / shortest_vector_norm(moved, 200) - ref) < ref * mp.ldexp(1, -40)


@settings(max_examples=200, deadline=None)
@given(*[st.integers(-10 ** 40, 10 ** 40)] * 3)
def test_trace_form_determinant_is_the_discriminant(p2, p1, p0):
    # Newton's identities give T_ij = Tr(theta^(i+j)) with det T = disc, of
    # any signature
    f = MonicCubic(p2, p1, p0)
    form = masses._trace_form(f)
    assert form[0][0] == 3 and all(form[i][j] == form[j][i] for i in range(3) for j in range(3))
    assert bareiss_det([list(r) for r in form]) == masses._det3(form) == discriminant(f)


@functools.lru_cache(maxsize=None)
def order_at_1024_bits(family, t):
    return cli._Member.of_family(family, t, 1024).order


DECADES = [sign * 10 ** e for sign in (1, -1) for e in range(3, 25)]


@pytest.mark.parametrize("family", [ONE_UNIT, TWO_UNIT, SEED], ids=["one_unit", "two_unit", "seed"])
def test_lattice_height_matches_a_1024_bit_embedding(family):
    # the height from the trace form is 1 / lambda_1 of the order's
    # 1024-bit embedding within one rounding at each width, at every decade
    # of both signs
    for t in DECADES:
        order = order_at_1024_bits(family, t)
        with mp.workprec(1024):
            ref = 1 / shortest_vector_norm(embed_order_lattice(order, 1024), 1024)
            for prec in (64, 96, 192, 384):
                assert abs(lattice_height(order, prec) - ref) <= ref * mp.ldexp(1, 1 - prec)


@pytest.mark.parametrize("family", [ONE_UNIT, TWO_UNIT, SEED], ids=["one_unit", "two_unit", "seed"])
def test_lattice_height_is_correctly_rounded(family):
    # ht -+ half an ulp at prec bits brackets (disc / n0^3)^(1/6), checked on
    # integers: with ht = m 2^e, m of prec bits, (2m -+ 1)^6 2^(6(e-1)) n0^3
    # against disc
    for t in DECADES:
        order = order_at_1024_bits(family, t)
        (n0, u), *_ = masses._reduced_trace_form(order)
        t_form = masses._trace_form(order.f)
        assert sum(u[i] * t_form[i][j] * u[j] for i in range(3) for j in range(3)) == n0
        for prec in (8, 53, 64, 96, 192, 384, 4096):
            _, man, exp, bc = lattice_height(order, prec)._mpf_
            m, e = man << (prec - bc), exp - (prec - bc) - 1
            lo, hi = ((2 * m + s) ** 6 * n0 ** 3 for s in (-1, 1))
            disc = order.disc << max(0, -6 * e)
            lo, hi = (x << max(0, 6 * e) for x in (lo, hi))
            assert lo <= disc <= hi


@given(st.integers(1, 2 ** 3000))
def test_integer_cube_root_is_the_floor(n):
    assert precision._icbrt(n) == iroot(n, 3)


@settings(max_examples=200)
@given(st.integers(1, 2 ** 700), st.integers(1, 2 ** 700), st.sampled_from([2, 6]),
       st.sampled_from([8, 53, 64, 96, 192, 384, 4096]))
def test_rational_root_is_correctly_rounded(num, den, degree, prec):
    # the root of num / den that Im tau (degree 2) and the height's and
    # embedding's factors (degree 6) share: r -+ half an ulp at prec bits
    # brackets (num / den)^(1/degree), checked on integers as in
    # test_lattice_height_is_correctly_rounded
    _, man, exp, bc = precision.rational_root(num, den, degree, prec)
    assert bc <= prec
    m, e = man << (prec - bc), exp - (prec - bc) - 1
    lo, hi = ((2 * m + s) ** degree * den for s in (-1, 1))
    lo, hi = (x << max(0, degree * e) for x in (lo, hi))
    n = num << max(0, -degree * e)
    assert lo <= n <= hi


# ---------------------------------------------------------------------------
# simplex sets and hexagons
# ---------------------------------------------------------------------------


def test_make_simplex_structure():
    v1 = log_embed(SEED_ORDER, 1, 0)
    v2 = log_embed(SEED_ORDER, 1, -1)
    phi = make_simplex(v1, v2, 200)
    with mp.workprec(200):
        for k in range(3):
            s = phi.alpha1.coords[k] + phi.alpha2.coords[k] + phi.alpha3.coords[k]
            assert abs(s) < mp.ldexp(1, -150)
    for prec in (16, 53, 200):  # v1.scaled(2) is exact: the check charges a2's rounding
        with pytest.raises(DependentUnitsError):
            make_simplex(v1, v1.scaled(2), prec)


def test_hex_domain_regular_ceiling():
    hd = hex_domain(regular_simplex(120), 120)
    with mp.workprec(120):
        assert abs(hd.ceiling - mp.mpf(2) / 3) < mp.ldexp(1, -100)
        assert len(hd.vertices) == 6
        # centrally symmetric vertex set
        for v in hd.vertices:
            assert any(
                max(abs(v[k] + w[k]) for k in range(3)) < mp.ldexp(1, -90)
                for w in hd.vertices
            )


def test_hex_domain_homogeneous():
    v1 = log_embed(SEED_ORDER, 1, 0)
    v2 = log_embed(SEED_ORDER, 1, -1)
    c1 = hex_domain(make_simplex(v1, v2, 200), 200).ceiling
    c3 = hex_domain(make_simplex(v1.scaled(3), v2.scaled(3), 200), 200).ceiling
    with mp.workprec(200):
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
    v1 = log_embed(SEED_ORDER, 1, 0)
    v2 = log_embed(SEED_ORDER, 1, -1)
    phi = make_simplex(v1, v2, 200)
    hd = hex_domain(phi, 200)
    with mp.workprec(200):
        cross = abs(phi.alpha1.x1 * phi.alpha2.x2 - phi.alpha1.x2 * phi.alpha2.x1)
        proj = [(v[0], v[1]) for v in hd.vertices]
        proj.sort(key=lambda p: mp.atan2(p[1], p[0]))
        area = shoelace(proj)
        assert abs(area - cross) < cross * mp.ldexp(1, -60)


# ---------------------------------------------------------------------------
# tightness
# ---------------------------------------------------------------------------


def test_check_tight_frozen():
    hd = hex_domain(regular_simplex(), 53)  # ceiling 2/3
    assert check_tight(hd, 1, 2, 1, 53)  # e^(2/3) = 1.948 <= 2
    assert not check_tight(hd, 1, Fraction(19, 10), 1, 53)  # 1.948 > 1.9
    assert check_tight(hd, 1, Fraction(19, 10), Fraction(1, 2), 53)
    with pytest.raises(InvalidParamsError):
        check_tight(hd, 1, Fraction(1, 2), 1, 53)
    with pytest.raises(InvalidParamsError):
        check_tight(hd, 1, 2, 2, 53)


@pytest.mark.parametrize("prec", [53, 113])
def test_check_tight_decides_at_its_own_width(prec):
    # R 16 ulps above and below e^(r c) / (ht (1 - 2^-40)), c the ceiling
    # plus its error: check_tight at prec bits tells them apart, whatever
    # the ambient precision
    hd, r = hex_domain(regular_simplex(prec), prec), Fraction(1, 2)
    with mp.workprec(4 * prec):
        edge = mp.exp((hd.ceiling + hd.ceiling_err) / 2) / (1 - mp.ldexp(1, -40))
        above, below = edge * (1 + mp.ldexp(1, 4 - prec)), edge * (1 - mp.ldexp(1, 4 - prec))
    for ambient in (16, 53, 300):
        with mp.workprec(ambient):
            assert check_tight(hd, 1, above, r, prec) and not check_tight(hd, 1, below, r, prec)


def test_check_tight_fails_closed_on_fat_errors():
    # same nominal alphas, but error bounds so wide the answer must be No
    a1 = LogVector(mp.mpf(1), mp.mpf(0), mp.mpf(-1), mp.mpf(2))
    a2 = LogVector(mp.mpf(-1), mp.mpf(1), mp.mpf(0), mp.mpf(2))
    a3 = LogVector(mp.mpf(0), mp.mpf(-1), mp.mpf(1), mp.mpf(2))
    fat = SimplexSet(a1, a2, a3)
    assert not check_tight(hex_domain(fat, 53), 1, 2, 1, 53)


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


def test_hexagon_rows_are_memoised_per_samples():
    # one shared (k, rows) per samples, its rows a tuple no caller can
    # change; a bad samples still raises on every call
    first = masses._hexagon_rows(600)
    assert masses._hexagon_rows(600) is first
    assert isinstance(first[1], tuple) and all(isinstance(row, range) for row in first[1])
    assert len(hexagon_grid(600)) == sum(map(len, first[1]))
    for bad in (0, -5, 0):
        with pytest.raises(InvalidParamsError):
            masses._hexagon_rows(bad)
        with pytest.raises(InvalidParamsError):
            hexagon_grid(bad)


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


def walk_order(samples):
    # the sweep's centre order: the deep holes (2m, m) and (m, 2m), the
    # origin, then the other grid points by level (the deep holes again
    # among them, the origin never)
    k, rows = masses._hexagon_rows(samples)
    m = k // 3
    return k, rows, centre_order(k, rows, [(2 * m, m), (m, 2 * m), (0, 0)])


def any_open(state):
    return any(0 in marks for marks in state)


@pytest.mark.parametrize("samples", [1, 2, 7, 60, 300, 600, 1000, 10000, 12345])
def test_centres_descend_by_level_then_row_major(samples):
    # at an empty state the open-point walk visits the two deep holes, the
    # origin, then every grid point by level, never the origin again; when
    # each visit settles its torus cell, the walk settles each of the k^2
    # cells once, at the first of its grid points in that order
    k, rows, order = walk_order(samples)
    state = [bytearray(k) for _ in range(k)]
    assert list(masses._open_points(state, rows, set())) == order
    assert order.count((0, 0)) == 1
    settled = []
    for a, b in masses._open_points(state, rows, set()):
        assert not state[a % k][b % k]
        state[a % k][b % k] = masses._STAYS
        settled.append((a, b))
    first = {}
    for a, b in order:
        first.setdefault((a % k, b % k), (a, b))
    assert settled == list(first.values()) and len(settled) == k * k


@pytest.mark.parametrize("samples", [1, 7, 600, 10000])
def test_origin_comes_once_after_the_deep_holes(samples):
    # the origin is the walk's anchor: it comes right after the deep holes
    # whenever some cell is open, even when its own cell is decided, and
    # never twice; with no cell open it does not come
    k, rows, order = walk_order(samples)
    holes = order[:2]
    state = [bytearray(k) for _ in range(k)]
    state[0][0] = masses._ESCAPES
    # no other grid point shares the origin's cell, so the walk is unchanged
    assert list(masses._open_points(state, rows, set())) == order
    # the deep holes decided as well: the origin comes first
    for a, b in holes:
        state[a % k][b % k] = masses._STAYS
    assert list(masses._open_points(state, rows, set()))[:1] == [(0, 0)]
    # only the deep holes' cells open, and each visit settles its cell:
    # when the origin's turn comes no cell is open, so it does not come
    state = [bytearray([masses._STAYS]) * k for _ in range(k)]
    for a, b in holes:
        state[a % k][b % k] = 0
    walk = []
    for a, b in masses._open_points(state, rows, set()):
        walk.append((a, b))
        state[a % k][b % k] = masses._STAYS
    assert walk == holes and not any_open(state)
    assert list(masses._open_points(state, rows, set())) == []
    # a cell in doubt is open: it brings the origin, and no other point of
    # that cell
    anchors = {(a % k, b % k) for a, b in order[:3]}
    u, v = next(p for p in reversed(order) if (p[0] % k, p[1] % k) not in anchors)
    state[u % k][v % k] = 0
    assert list(masses._open_points(state, rows, {(u % k, v % k)})) == [(0, 0)]
    # the origin's cell open, every other one decided: the origin comes
    # once, and the levels never yield it again
    state = [bytearray([masses._STAYS]) * k for _ in range(k)]
    state[0][0] = 0
    assert list(masses._open_points(state, rows, set())) == [(0, 0)]


@pytest.mark.parametrize("samples, seed", [(60, 0), (300, 1), (1000, 2), (10000, 3)])
def test_open_point_walk_skips_marks_written_between_visits(samples, seed):
    # random marks on the torus before the walk and after every visit
    # (sometimes on the visited cell, sometimes a run of a torus row,
    # anywhere), and the visited cell sometimes put in doubt instead: the
    # walk yields exactly the points whose cell is still open, and not in
    # doubt, when the centre order reaches them, and the origin after the
    # deep holes while any cell is open, its own cell decided (odd seeds)
    # or not
    rng = random.Random(seed)
    k, rows, order = walk_order(samples)
    state = [bytearray(rng.random() < 0.3 for _ in range(k)) for _ in range(k)]
    state[0][0] = masses._ESCAPES if seed % 2 else 0
    doubt = set()

    def is_open(point):
        if point == (0, 0):
            return any_open(state)
        return not state[point[0] % k][point[1] % k] and (point[0] % k, point[1] % k) not in doubt

    walk = masses._open_points(state, rows, doubt)
    visited = 0
    for point in order:
        if not is_open(point):
            continue
        assert next(walk) == point
        visited += 1
        for _ in range(rng.randrange(3)):
            u = rng.randrange(k)
            lo = rng.randrange(k)
            hi = min(k, lo + rng.randrange(1, 6))
            state[u][lo:hi] = bytes([rng.choice((masses._STAYS, masses._ESCAPES))]) * (hi - lo)
        if rng.random() < 0.5:
            state[point[0] % k][point[1] % k] = masses._STAYS
        elif rng.random() < 0.5:
            doubt.add((point[0] % k, point[1] % k))
    assert next(walk, None) is None
    assert visited > 1


# ---------------------------------------------------------------------------
# mass above height
# ---------------------------------------------------------------------------


def big_order_and_simplex():
    order = build_order(simplest_cubic(10 ** 6), [(1, 0), (1, -1)])
    v1 = log_embed(order, 1, 0)
    v2 = log_embed(order, 1, -1)
    return order, make_simplex(v1, v2, 220)


def test_mass_above_height_frozen():
    order, _ = big_order_and_simplex()
    with fine_simplex(220):  # the stage's simplex, as big_order_and_simplex makes it
        m10, m100, m1e9 = mass_above_height(order, (10.0, 100.0, 1e9), samples=60)
    assert m10 == Fraction(76, 91)
    assert m100 <= m10
    # the orbit's height is bounded by ht * e^ceiling, far below 1e9
    assert m1e9 == 0


def test_mass_above_height_guards(monkeypatch):
    order, _ = big_order_and_simplex()
    kernel = []

    def counting(*args, **kwargs):
        kernel.append(1)
        return shortest_vector_norm(*args, **kwargs)

    monkeypatch.setattr(masses, "shortest_vector_norm", counting)
    # every height is checked before any kernel call: NaN fails "above 1"
    for heights in ((1.0,), (10.0, float("nan")), ()):
        with pytest.raises(InvalidParamsError):
            mass_above_height(order, heights, samples=10)
    assert not kernel


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
    # at the rows' 53 bits, one_unit at t=10^9 has a grid point whose height
    # tie sits inside the simplex's rounding error; the tests run the mass
    # stage with its simplex at FINE bits too (fine_simplex), so its own
    # simplex is this one
    return order, make_simplex(v1, v2, FINE)


def per_point_norm(order, phi, point, base):
    # one certified enumeration at the point itself, no neighbourhood:
    # (s, margin) with lambda_1 within margin of s
    bits = max(order.policy.target_bits, 192)
    with mp.workprec(bits):
        u, v = point
        x = (phi.alpha1.scaled(mp.mpf(u.numerator) / u.denominator)
             + phi.alpha2.scaled(mp.mpf(v.numerator) / v.denominator))
        s = shortest_vector_norm(exp_act(x.coords, base, bits), bits)
        return s, s * mp.ldexp(1, -(bits - 32)) + 4 * x.err * s


def per_point_fractions(kind, t, samples, heights):
    # (order, phi, the fraction of grid points above each height, each point
    # decided by its own enumeration)
    order, phi = mass_member(kind, t)
    base = embed_order_lattice(order)
    points = hexagon_grid(samples)
    norms = [per_point_norm(order, phi, p, base) for p in points]
    expected = []
    for height in heights:
        with mp.workprec(512):
            hcut = 1 / mp.mpf(height)
        assert all(abs(s - hcut) > margin for s, margin in norms), "oracle undecided"
        expected.append(Fraction(sum(s < hcut for s, _ in norms), len(points)))
    return order, phi, tuple(expected)


@pytest.mark.parametrize("kind, t, samples, heights", [
    *(pytest.param(kind, t, 300, (10.0, 100.0), id=f"{t}-{kind}")
      for t in (10 ** 3, 10 ** 9) for kind in ("one_unit", "two_unit", "seed")),
    # the benchmark's mass_dense shape, where the wide covers reach
    # farthest
    *(pytest.param("one_unit", t, 2000, (10.0,), id=f"{t}-one_unit-2000")
      for t in (10 ** 3, 10 ** 6)),
])
def test_mass_sweep_matches_per_point_oracle(kind, t, samples, heights):
    # every grid point, whether the sweep settled it by a unit row, by an
    # enumeration or by any kind of cover, against its own enumeration
    order, _, expected = per_point_fractions(kind, t, samples, heights)
    with fine_simplex():
        assert mass_above_height(order, heights, samples=samples) == expected


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
def test_lambda_1_is_the_same_at_every_translate(kind):
    # the sweep keeps one mark per point of the torus R^2 / Lambda, Lambda
    # the lattice of unit log vectors: moving x by i alpha1 + j alpha2
    # multiplies the lattice by the unit eps1^i eps2^j, which maps the order
    # onto itself, so the two moved lattices differ by a diagonal matrix of
    # signs, an isometry. So the kernel's certified enclosures of lambda_1
    # at (a, b) and at (a + k, b), (a, b + k) and (a + k, b + k) overlap, at
    # every decade of both signs and k = 24 and 102. Glued by (k, 1)
    # instead, as a wrong torus would glue them, they miss each other
    def enclosure(norm, a, b):
        s, margin, e, _ = norm(a, b)
        return Fraction(s - margin) * Fraction(2) ** e, Fraction(s + margin) * Fraction(2) ** e

    missed = 0
    for t in (sg * 10 ** e for e in range(3, 25) for sg in (1, -1)):
        order, phi = family_order(kind, t)
        for k in (24, 102):
            m = k // 3
            norm = masses._certified_norm(order, masses._Alphas.of(phi), k)
            for a, b in ((0, 0), (2 * m, m), (m, 2 * m), (-m, 1), (5, -7)):
                lows, highs = zip(*(enclosure(norm, a + da, b + db)
                                    for da, db in ((0, 0), (k, 0), (0, k), (k, k))))
                assert max(lows) <= min(highs), (kind, t, k, a, b)
                (lo, hi), (wrong_lo, wrong_hi) = enclosure(norm, a, b), enclosure(norm, a + k, b + 1)
                missed += wrong_hi < lo or hi < wrong_lo
    assert missed > 100


@pytest.mark.parametrize("kind, t", [("two_unit", 10 ** 3), ("one_unit", 10 ** 9)])
def test_a_cover_glued_by_k_1_fails_the_per_point_oracle(monkeypatch, kind, t):
    # the sweep with the point-by-point reference cover agrees with the
    # per-point oracle; planted with a cover that glues the extended point
    # (u + k, v + 1), not (u + k, v), to (u, v), it does not: it gives other
    # fractions, clashes or leaves a point open
    heights = (10.0, 100.0)
    order, phi, expected = per_point_fractions(kind, t, 300, heights)
    for glue, agrees in ((0, True), (1, False)):
        monkeypatch.setattr(masses, "_cover", lambda alphas, k: reference_cover(phi, k, glue))
        try:
            with fine_simplex():
                got = mass_above_height(order, heights, samples=300)
        except (InternalInconsistencyError, PrecisionExhaustedError):
            got = None
        assert (got == expected) == agrees


@pytest.mark.parametrize("kind, t", [("one_unit", 10 ** 3), ("two_unit", 10 ** 9),
                                     ("one_unit", 10 ** 21)])
def test_cover_marks_the_one_sided_region(kind, t):
    # against the exact alphas, on the torus: a verdict marks only cells
    # with an offset d from the centre, |da| + |db| <= (8/3) k, that has sg
    # d_i <= r on every coordinate (sg = +1 for escape, -1 for stays), and
    # every cell with such an offset that clears r by the charged error.
    # The margin doubles that error, to also cover the float rounding of
    # the reach and the 2^-64 rounding of the integer images. At 10^21,
    # alpha2's first coordinate (about -1e-21) rounds to 0 in its image,
    # so one coordinate bounds the rows alone.
    order, phi = mass_member(kind, t)
    k, rows = masses._hexagon_rows(300)
    top, bound = 2 * k // 3, 8 * k // 3
    alphas = [[mpf_to_fraction(c) for c in alpha.coords] for alpha in (phi.alpha1, phi.alpha2)]
    assert (t < 10 ** 20) == all(abs(c) >= 2 ** -64 for c in alphas[1])
    eps = sys.float_info.epsilon
    slack = 6 * float(max(phi.alpha1.err, phi.alpha2.err)) + 3 * 2.0 ** -64
    size = max(abs(float(c)) for alpha in alphas for c in alpha)
    cover = masses._cover(masses._Alphas.of(phi), k)
    # per sign sg, every offset in reach as (max_i sg d_i, da, db, max_i
    # |d_i|), in ascending order
    offsets = {1: [], -1: []}
    for da in range(-bound, bound + 1):
        for db in range(abs(da) - bound, bound - abs(da) + 1):
            d = [(da * p + db * q) / k for p, q in zip(*alphas)]
            for sg in (1, -1):
                offsets[sg].append((max(sg * x for x in d), da, db, max(map(abs, d))))
    for sg in (1, -1):
        offsets[sg].sort()
    worsts = {sg: [w for w, *_ in offsets[sg]] for sg in (1, -1)}
    for a, b in [(0, 0), (5, -3), (-7, 2), (top, rows[-1].start)]:
        for r in (size / 20, size / 4, size / 2, 1e9):
            margin = Fraction(2 * (8 * eps * r + 4 * eps + slack)) + Fraction(1, k << 64)
            for mark, sg in ((masses._ESCAPES, 1), (masses._STAYS, -1)):
                state = [bytearray(k) for _ in range(k)]
                cover(state, a, b, r, mark)
                assert all(set(marks) <= {0, mark} for marks in state)
                centre = (a % k, b % k)
                marked = {(u, i) for u in range(k) for i in range(k) if state[u][i]}
                within = offsets[sg][:bisect.bisect_right(worsts[sg], Fraction(r))]
                clear = offsets[sg][:bisect.bisect_right(worsts[sg], Fraction(r) - margin)]
                reached = {centre} | {((a + da) % k, (b + db) % k) for _, da, db, _ in within}
                sure = {centre} | {((a + da) % k, (b + db) % k) for _, da, db, _ in clear}
                assert sure <= marked <= reached
                # a surely marked offset outside the sup-ball |d_i| <= r
                beyond = any(size_d > r for *_, size_d in clear)
                assert beyond or (a, b) != (0, 0) or r not in (size / 4, size / 2)
                if r >= size / 4:
                    with pytest.raises(InternalInconsistencyError):
                        cover(state, a, b, r, masses._STAYS + masses._ESCAPES - mark)


def recording_wide_covers(monkeypatch):
    # (a, b, height, newly marked torus cells) for every wide cover call
    calls = []
    make_cover = masses._cover

    def recording(alphas, k):
        cover = make_cover(alphas, k)

        def recorded(state, a, b, r, mark, v1=None, height=None):
            before = [bytes(marks) for marks in state]
            cover(state, a, b, r, mark, v1, height)
            if v1 is not None:
                calls.append((a, b, height, [
                    (u, i) for u, (old, new) in enumerate(zip(before, state))
                    for i in range(k) if old[i] != new[i]]))
        return recorded

    monkeypatch.setattr(masses, "_cover", recording)
    return calls


def replaying_row_loops(monkeypatch):
    # run every cover call of the sweep also through the point-by-point
    # reference, on a copy of the state it was given, and require the same
    # state and the same raise; check every unit-rows call against the
    # truth: it marks exactly the cells of the intervals it returns, each on
    # a torus row that had an open cell, and both ends of each interval
    # (so, by convexity, every point between them) are short at 256 bits,
    # with the alphas' error charged. Counts the calls replayed, by kind.
    # Both read the simplex the sweep built, not the sweep's one read of
    # its alphas
    counts = collections.Counter()
    make_cover, make_unit_rows, make_simplex = masses._cover, masses._unit_rows, masses.make_simplex
    made = []

    def recording_simplex(*args):
        made.append(make_simplex(*args))
        return made[-1]

    def outcome(call, state, *args):
        try:
            return call(state, *args)
        except InternalInconsistencyError:
            return "raised"

    def cover_pair(alphas, k):
        fast, slow = make_cover(alphas, k), reference_cover(made[-1], k)

        def replayed(state, *args):
            before = [bytes(marks) for marks in state]
            copy = [bytearray(marks) for marks in state]
            got, want = outcome(fast, state, *args), outcome(slow, copy, *args)
            assert got == want and state == copy
            wide = len(args) > 4 and args[4] is not None
            counts["wide" if wide else "verdict"] += 1
            counts["wide marking"] += wide and before != state
            if got == "raised":
                raise InternalInconsistencyError("two certified verdicts disagree")
        return replayed

    def unit_rows_checked(order, alphas, k):
        fast, phi = make_unit_rows(order, alphas, k), made[-1]
        with mp.workprec(256):
            dscale = mp.power(mp.mpf(order.disc), mp.mpf(-1) / 3)
        err = max(phi.alpha1.err, phi.alpha2.err)

        def short(u, v, height):
            # an upper bound on the squared norm at the extended point (u, v)
            with mp.workprec(256):
                z = [(u * p + v * q + (abs(u) + abs(v)) * err) / k
                     for p, q in zip(phi.alpha1.coords, phi.alpha2.coords)]
                return dscale * sum(mp.exp(2 * c) for c in z) < 1 / mp.mpf(height) ** 2

        def checked(state, height):
            want = [bytearray(marks) for marks in state]
            got = fast(state, height)
            for u, _, _, lo, hi in got:
                if lo <= hi:
                    assert 0 in want[u % k] and short(u, lo, height) and short(u, hi, height)
                    for v in range(lo, hi + 1):
                        want[u % k][v % k] = masses._ESCAPES
                    counts["unit intervals"] += 1
            assert state == want
            counts["unit rows"] += 1
            return got
        return checked

    monkeypatch.setattr(masses, "make_simplex", recording_simplex)
    monkeypatch.setattr(masses, "_cover", cover_pair)
    monkeypatch.setattr(masses, "_unit_rows", unit_rows_checked)
    return counts


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 9, 10 ** 21])
def test_row_loops_match_the_reference_on_real_sweeps(monkeypatch, kind, t):
    # every verdict cover and wide cover of sweeps at three grid sizes and
    # three heights (a near-tie pair among them) marks the same cells as the
    # point-by-point reference, and every interval the unit rows certify is
    # short at 256 bits and marks exactly its cells
    counts = replaying_row_loops(monkeypatch)
    order, _ = mass_member(kind, t)
    with fine_simplex():
        for samples in (300, 3000, 10 ** 4):
            mass_above_height(order, (10.0, 9.99, 100.0), samples=samples)
    assert counts["unit rows"] == 9 and counts["unit intervals"] and counts["verdict"]
    # the unit rows and the first verdicts leave no cell that a wide cover
    # marks on these three; at 10^21 the origin's cover settles every sweep
    if (kind, t) not in {("seed", 10 ** 9), ("one_unit", 10 ** 21), ("seed", 10 ** 21)}:
        assert counts["wide marking"]


def replaying_kernel(monkeypatch):
    # run every _exp_act and _dual_weight call of the sweep also through
    # the generic loops the kernel replaced, and require repr-identical
    # results or the same raise; counts the calls replayed, by kind, the
    # greedy reductions, and those of the order's trace form
    counts = collections.Counter()
    reduce, trace_form = masses._reduce, masses._reduced_trace_form

    def counted(gram):
        counts["reduce"] += 1
        return reduce(gram)

    def trace_counted(order):
        counts["trace_form"] += 1
        return trace_form(order)

    def exp_act_at(x, basis, p):
        with mp.workprec(p):
            return reference_exp_act([mp.make_mpf(v) for v in x], basis)

    def replay(name, kind, reference):
        fast = getattr(masses, name)

        def replayed(*args):
            got, want = raised(fast, *args), raised(reference, *args)
            assert repr(got) == repr(want)
            counts[kind(*args)] += 1
            if isinstance(got, Exception):
                raise got
            return got
        monkeypatch.setattr(masses, name, replayed)

    monkeypatch.setattr(masses, "_reduce", counted)
    monkeypatch.setattr(masses, "_reduced_trace_form", trace_counted)
    replay("_exp_act", lambda *args: "exp_act", exp_act_at)
    replay("_dual_weight", lambda basis: "dual_weight", reference_dual_weight)
    return counts


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 12, 10 ** 24, -10 ** 9])
def test_kernel_matches_its_generic_loops_on_real_sweeps(monkeypatch, kind, t):
    # every kernel call of sweeps at 600 and 10^4 samples and three heights
    # (a near-tie pair among them), undecided points included: the moves
    # and dual weights are repr-identical to the generic loops, with one
    # greedy reduction per centre and one of the trace form in _prereduced
    # per sweep
    counts = replaying_kernel(monkeypatch)
    order, _ = mass_member(kind, t)  # fresh: the order keeps the simplex the stage makes
    for samples in (600, 10 ** 4):
        try:
            with fine_simplex():
                mass_above_height(order, (10.0, 9.99, 100.0), samples=samples)
        except PrecisionExhaustedError:
            pass
    centres = counts["exp_act"]
    assert counts["trace_form"] == 2 and counts["reduce"] == centres + 2
    assert counts["dual_weight"] == centres > 0


@pytest.mark.parametrize("kind", ["one_unit", "two_unit"])
def test_planted_opposite_mark_raises_on_a_fine_grid(kind):
    # on a 10^4-sample grid, a verdict cover whose region holds a cell
    # already marked with the opposite verdict raises, in the fast rows and
    # in the reference alike; the cell is in the region's farthest torus
    # row from the centre's, found by the same cover on an open torus
    order, phi = mass_member(kind, 10 ** 6)
    k, _ = masses._hexagon_rows(10 ** 4)
    r = 3 * max(abs(float(c)) for c in phi.alpha1.coords) / k
    for mark in (masses._STAYS, masses._ESCAPES):
        other = masses._STAYS + masses._ESCAPES - mark
        for cover in (masses._cover(masses._Alphas.of(phi), k), reference_cover(phi, k)):
            state = [bytearray(k) for _ in range(k)]
            cover(state, 5, -3, r, mark)
            region = [(u, i) for u, marks in enumerate(state) for i, m in enumerate(marks) if m]
            assert len(region) > 1 and all(state[u][i] == mark for u, i in region)
            u, i = max(region, key=lambda p: min((p[0] - 5) % k, (5 - p[0]) % k))  # far from the centre
            state = [bytearray(k) for _ in range(k)]
            state[u][i] = other
            with pytest.raises(InternalInconsistencyError):
                cover(state, 5, -3, r, mark)


@pytest.mark.parametrize("kind, t", [("one_unit", 10 ** 3), ("two_unit", 10 ** 9)])
def test_doubtful_points_fall_back_to_the_kernel(monkeypatch, kind, t):
    # with no headroom every float64 norm test refuses: the unit rows mark no
    # escape, the wide covers mark no point, and the kernel alone gives the
    # same fractions
    order, phi = mass_member(kind, t)
    heights = (10.0, 100.0)
    with fine_simplex():
        expected = mass_above_height(order, heights, samples=300)
    monkeypatch.setattr(masses, "_UNIT_HEADROOM", 0.0)
    k, _ = masses._hexagon_rows(300)
    state = [bytearray(k) for _ in range(k)]
    masses._unit_rows(order, masses._Alphas.of(phi), k)(state, 10.0)
    assert not any(b"".join(state))
    calls = recording_wide_covers(monkeypatch)
    with fine_simplex():
        assert mass_above_height(order, heights, samples=300) == expected
    assert calls and not any(marked for *_, marked in calls)


@pytest.mark.parametrize("kind, t, samples, heights", [
    ("one_unit", 10 ** 3, 2000, (10.0,)),
    ("two_unit", 10 ** 9, 600, (10.0, 100.0)),
    # at 10^21 the origin's cover and the unit rows leave one_unit and seed
    # no open cell, so no wide cover marks one there
    ("two_unit", 10 ** 21, 2000, (10.0, 100.0)),
    # without the v1 test, some wide covers here would mark points where v1 is short
    ("one_unit", 10 ** 9, 300, (10.0, 100.0)),
])
def test_wide_cover_marks_only_where_v1_is_long(monkeypatch, kind, t, samples, heights):
    # every torus cell a wide cover marks has a point p = x + d, d = (da
    # alpha1 + db alpha2) / k with |da| + |db| <= (8/3) k, where |exp(p) v1|
    # >= 1/H, for v1 the shortest vector at the centre x, at 256 bits with
    # every error charged: each coordinate of v1's image within 8 D 2^-bits
    # |v1|, the rounding of x and the alphas' errors in x and in d
    calls = recording_wide_covers(monkeypatch)
    order, phi = mass_member(kind, t)
    with fine_simplex():
        mass_above_height(order, heights, samples=samples)
    assert any(marked for *_, marked in calls)
    bits = masses._bits(order)
    base = masses._prereduced(order)
    k, _ = masses._hexagon_rows(samples)
    bound = 8 * k // 3
    alphas = list(zip(phi.alpha1.coords, phi.alpha2.coords))
    for a, b, height, marked in calls:
        x = centre(phi, a, b, k, bits)
        moved = exp_act(x.coords, base, bits)
        image, n, _ = moved._minimum
        with mp.workprec(256):
            gap = mp.ldexp(masses._dual_weight(moved), 3 - bits) * mp.sqrt(n)
            low = [mp.ldexp(max(abs(w) - gap, 0), moved.exp) for w in image]
            x_err = ((abs(a) * phi.alpha1.err + abs(b) * phi.alpha2.err) / k
                     + mp.ldexp(max(map(abs, x.coords)), 1 - bits))

            def long_at(da, db):
                err = x_err + (abs(da) * phi.alpha1.err + abs(db) * phi.alpha2.err) / k
                d = [(da * p + db * q) / k for p, q in alphas]
                norm2 = sum(mp.exp(2 * (dm - err - mp.ldexp(1, -240))) * w ** 2
                            for dm, w in zip(d, low))
                return norm2 >= 1 / mp.mpf(height) ** 2

            for u, i in marked:
                da0, db0 = (u - a) % k - k * (bound // k + 1), (i - b) % k - k * (bound // k + 1)
                translates = sorted(((da, db) for da in range(da0, bound + 1, k)
                                     for db in range(db0, bound + 1, k)
                                     if abs(da) + abs(db) <= bound), key=lambda o: abs(o[0]) + abs(o[1]))
                assert any(long_at(da, db) for da, db in translates), (kind, t, a, b, u, i)


def test_wide_covers_cut_kernel_calls_at_high_t(monkeypatch):
    # the two_unit member at t = 10^24 as mass-profile builds it (its simplex
    # at the rows' 53 bits): wide covers that test the centre's shortest
    # vector at each point leave 2 centres to the kernel on the torus (3
    # before the origin's wide cover ran after the deep holes', 5 when each
    # hexagon point had its own mark); when only centres whose shortest
    # vector was a certified unit monomial covered wide, 15
    member = cli._Member.of_family(TWO_UNIT, 10 ** 24, 192)
    kernel, _ = counting_sweep(monkeypatch)
    fractions = mass_above_height(member.order, (10.0, 9.99, 100.0), samples=600)
    assert fractions == (Fraction(592, 601), Fraction(592, 601), Fraction(574, 601))
    assert len(kernel) == 2


def test_origin_anchor_settles_the_band_outside_the_escape_set(monkeypatch):
    # one_unit (1, 1) at t = 10^3, 10000 samples, H = 10, as mass_dense
    # runs it: the unit rows decide the origin's cell, and its wide cover,
    # after the deep holes', settles most of the band just outside their
    # escape set. The walk that skipped a decided origin made 8 kernel calls
    order = cli._Member.of_family(ONE_UNIT, 10 ** 3, 192).order
    kernel, asked = counting_sweep(monkeypatch)
    assert mass_above_height(order, (10.0,), samples=10000) == (Fraction(4861, 10507),)
    assert len(kernel) <= 3 and (0, 0) in asked
    del kernel[:]
    monkeypatch.setattr(masses, "_open_points", reference_open_points)
    assert mass_above_height(order, (10.0,), samples=10000) == (Fraction(4861, 10507),)
    assert len(kernel) == 8


def sweep_outcome(family, t, heights, samples):
    # the member's fractions, or the class of the error its build or its
    # sweep raised
    try:
        return mass_above_height(cli._Member.of_family(family, t, 192).order, heights, samples=samples)
    except CubicUnitsError as exc:
        return type(exc)


def test_origin_anchor_matches_the_reference_walk(monkeypatch):
    # 30 seeded members (three families, both signs of t, five decades
    # each, two at the power of ten and three at a seeded offset, 600 and
    # 10000 samples in turn): the sweep gives the fractions, or the error,
    # of the walk that visited the origin first and never a decided cell,
    # with no more kernel calls
    rng = random.Random(30)
    members = [(family, sg * (10 ** e + (rng.randrange(1, 10 ** e // 100) if i % 3 else 0)),
                (600, 10000)[i % 2])
               for family in (ONE_UNIT, TWO_UNIT, SEED) for sg in (1, -1)
               for i, e in enumerate(sorted(rng.sample(range(3, 24), 5)))]
    heights = (10.0, 9.99, 100.0)
    kernel, _ = counting_sweep(monkeypatch)
    outcomes, calls = [], []
    for walk in (masses._open_points, reference_open_points):
        monkeypatch.setattr(masses, "_open_points", walk)
        del kernel[:]
        outcomes.append([sweep_outcome(family, t, heights, samples) for family, t, samples in members])
        calls.append(len(kernel))
    assert outcomes[0] == outcomes[1] and PrecisionExhaustedError in outcomes[0]
    assert calls[0] <= calls[1]


def test_mass_sweep_enumeration_count(monkeypatch):
    order, _ = mass_member("one_unit", 1000)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return shortest_vector_norm(*args, **kwargs)

    monkeypatch.setattr(masses, "shortest_vector_norm", counting)
    with fine_simplex():
        mass_above_height(order, (10.0,), samples=2000)
    # one enumeration per point the unit rows leave open would be 1149
    # calls; on the torus, deep holes first and then the origin, decided
    # or not, the sweep makes 3; when it skipped a decided origin it made
    # 6, with one mark per hexagon point 9, with plain one-sided covers
    # only 70, and the sup-ball cover before it 88
    assert len(calls) <= 3


def short_monomials(order, phi, k, rows, height, window=12):
    # brute force: every (grid point, unit monomial (i, j)) with |i|, |j| <=
    # window whose squared norm disc^{-1/3} sum_m exp(2 (x + y)_m) is below
    # 1/H^2, decided at 256 bits; a float64 pass drops the pairs whose
    # float norm is more than twice the cut
    top = 2 * k // 3
    span = range(-window, window + 1)
    a1 = [float(c) for c in phi.alpha1.coords]
    a2 = [float(c) for c in phi.alpha2.coords]
    mono = {(i, j): [math.exp(2 * (i * x + j * y)) for x, y in zip(a1, a2)]
            for i in span for j in span}
    with mp.workprec(256):
        dscale = mp.power(mp.mpf(order.disc), mp.mpf(-1) / 3)
        cut = 1 / mp.mpf(height) ** 2
        fcut = 2 * float(cut / dscale)
        found = set()
        for u, row in enumerate(rows, -top):
            for v in row:
                p = [math.exp(2 * (u * x + v * y) / k) for x, y in zip(a1, a2)]
                for (i, j), w in mono.items():
                    if p[0] * w[0] + p[1] * w[1] + p[2] * w[2] >= fcut:
                        continue
                    z = [((u + i * k) * x + (v + j * k) * y) / k
                         for x, y in zip(phi.alpha1.coords, phi.alpha2.coords)]
                    if dscale * sum(mp.exp(2 * c) for c in z) < cut:
                        found.add((u, v, i, j))
    return found


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("t", [10 ** 3, 10 ** 6])
def test_unit_rows_match_monomial_oracle(kind, t):
    # the unit rows mark exactly the torus cells of the grid points where
    # some unit monomial of a wide window is short, and no monomial outside
    # the per-row ranges they search is short anywhere; every monomial they
    # search lies in the window, so the window sees all of them
    order, phi = mass_member(kind, t)
    k, rows = masses._hexagon_rows(300)
    top = 2 * k // 3
    unit_rows = masses._unit_rows(order, masses._Alphas.of(phi), k)
    for height in (10.0, 100.0):
        found = short_monomials(order, phi, k, rows, height)
        state = [bytearray(k) for _ in range(k)]
        searched = unit_rows(state, height)
        assert all(set(marks) <= {0, masses._ESCAPES} for marks in state)
        marked = {(u, i) for u in range(k) for i in range(k) if state[u][i]}
        assert marked == {(u % k, v % k) for u, v, _, _ in found}
        bounds = {row_u: (vmin, vmax) for row_u, vmin, vmax, _, _ in searched}
        for u, v, i, j in found:
            vmin, vmax = bounds[u + i * k]
            assert vmin <= v + j * k <= vmax
        for row_u, vmin, vmax, _, _ in searched:
            for u in range(-top + (row_u + top) % k, top + 1, k):
                row = rows[u + top]
                assert abs(row_u - u) // k <= 12
                assert math.floor((vmax - row.start) / k) <= 12
                assert math.ceil((vmin - row.stop + 1) / k) >= -12
        assert found or height == 100.0


# ---------------------------------------------------------------------------
# one mass call per member: every height shares the height-free sweep
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t, prec", [(10 ** 3, 16), (10 ** 15, 20)])
def test_mass_is_independent_of_ambient_precision(t, prec):
    # the stage builds its simplex at ROW_BITS, never reads the ambient
    # precision, and reads only the order's bits elsewhere: a coarser
    # simplex only widens the error of the alphas, which the covers and
    # margins charge, so here the fraction is the same from 16 bits up,
    # with another ambient precision set each time; each order is fresh
    fractions = set()
    for width, ambient in zip((prec, 20, 53), (300, 53, 16)):
        order, _ = mass_member("one_unit", t)
        with fine_simplex(width), mp.workprec(ambient):
            fractions.add(mass_above_height(order, (10.0,), samples=60))
    assert len(fractions) == 1


# mass_above_height's fractions (over 601) at H = 10, 9.99 and 100 and 600
# samples, as the sweep gave them while it still entered mp.workprec, at an
# ambient 53 bits; its simplex is now made at ROW_BITS, so an ambient 16 or
# 300 bits gives the same (the members one_unit and seed at 10^3 and
# two_unit at 10^9 once raised PrecisionExhaustedError at 16 bits)
NO_WORKPREC = {
    ("one_unit", 10 ** 3): (250, 252, 0),
    ("one_unit", 10 ** 9): (565, 565, 448),
    ("one_unit", 10 ** 21): (586, 586, 565),
    ("two_unit", 10 ** 3): (280, 280, 0),
    ("two_unit", 10 ** 9): (553, 555, 448),
    ("two_unit", 10 ** 21): (586, 586, 565),
    ("seed", 10 ** 3): (250, 250, 0),
    ("seed", 10 ** 9): (565, 565, 448),
    ("seed", 10 ** 21): (586, 586, 565),
}


@pytest.mark.parametrize("kind, t", list(NO_WORKPREC))
@pytest.mark.parametrize("ambient", [16, 53, 300])
def test_mass_sweep_enters_no_workprec(monkeypatch, kind, t, ambient):
    # with the member's units embedded first, the sweep runs with
    # mp.workprec raising and the ambient precision set directly
    order = family_order(kind, t)[0]

    def no_workprec(*args, **kwargs):
        raise AssertionError("the mass sweep entered mp.workprec")

    monkeypatch.setattr(mp, "workprec", no_workprec)
    monkeypatch.setattr(mp.mp, "prec", ambient)
    got = mass_above_height(order, (10.0, 9.99, 100.0), samples=600)
    assert got == tuple(Fraction(n, 601) for n in NO_WORKPREC[kind, t])


def counting_sweep(monkeypatch):
    # record every kernel call and every centre the certified norm is asked for
    kernel, asked = [], []
    certified_norm = masses._certified_norm

    def kernel_counting(*args, **kwargs):
        kernel.append(1)
        return shortest_vector_norm(*args, **kwargs)

    def norm_recording(order, alphas, k):
        norm = certified_norm(order, alphas, k)

        def recorded(a, b):
            asked.append((a, b))
            return norm(a, b)
        return recorded

    monkeypatch.setattr(masses, "shortest_vector_norm", kernel_counting)
    monkeypatch.setattr(masses, "_certified_norm", norm_recording)
    return kernel, asked


def test_lattice_height_reads_no_ambient_precision():
    # the height is rounded once at prec bits from integers: the same
    # mantissa of at most 192 bits whatever the ambient precision, and it
    # reads no root and no embedding
    order = mass_member("one_unit", 10 ** 12)[0]
    hts = []
    for ambient in (16, 53, 192):
        mp.mp.prec = ambient
        try:
            hts.append(lattice_height(order, 192))
        finally:
            mp.mp.prec = 53
    assert hts[0]._mpf_ == hts[1]._mpf_ == hts[2]._mpf_ and hts[0]._mpf_[3] <= 192
    rootless = units.CubicOrderData(order.f, (), order.disc, order.units, order.dropped, order.policy)
    assert lattice_height(rootless, 192) == hts[0]


@pytest.mark.parametrize("kind, t", [("two_unit", 10 ** 9), ("one_unit", 10 ** 15)])
def test_heights_share_certified_centres(monkeypatch, kind, t):
    heights = (10.0, 9.99, 100.0)
    moves, exp_act = [], masses._exp_act

    def counting(*args):
        moves.append(1)
        return exp_act(*args)

    with fine_simplex():
        fresh = [mass_above_height(mass_member(kind, t)[0], (h,), samples=600)[0] for h in heights]
        kernel, asked = counting_sweep(monkeypatch)
        monkeypatch.setattr(masses, "_exp_act", counting)
        assert mass_above_height(mass_member(kind, t)[0], heights, samples=600) == tuple(fresh)
    # one kernel call per distinct centre, though later heights ask again,
    # and each through masses.shortest_vector_norm, the name the benchmark
    # counts: as many as the centres moved
    assert len(kernel) == len(moves) == len(set(asked)) < len(asked)


@pytest.mark.parametrize("kind, t", [("one_unit", 10 ** 24), ("seed", 10 ** 12), ("seed", 10 ** 24)])
def test_walk_visits_each_torus_cell_once_per_height(monkeypatch, kind, t):
    # a centre that decides nothing puts its cell in doubt at that height,
    # and the walk visits no other point of the cell, which is the same
    # lattice up to isometry; the cell still counts as open. These members
    # of the benchmark's profile_high_t stay undecided at 600 samples, and
    # each made 3 of its 13 kernel calls at a second point of a cell in
    # doubt while the walk skipped only marked cells
    _, asked = counting_sweep(monkeypatch)
    order = mass_member(kind, t)[0]
    k, _ = masses._hexagon_rows(600)
    undecided = 0
    for height in (10.0, 9.99, 100.0):
        del asked[:]
        try:
            mass_above_height(order, (height,), samples=600)
        except PrecisionExhaustedError:
            undecided += 1
        cells = [(a % k, b % k) for a, b in asked]
        assert len(cells) == len(set(cells)), height
    assert undecided


def policy_member(kind, t, bits):
    # like mass_member, at a finer policy and with the simplex made at the
    # rows' ROW_BITS, as the CLI makes it: its error is about 2^-50, so at
    # 1200 bits the kernel term of the margin falls below the float range
    order = mass_member(kind, t)[0]
    order = build_order(order.f, order.units, PrecisionPolicy(bits, 4 * bits))
    return order, make_simplex(*(log_embed(order, *u) for u in order.units[:2]), ROW_BITS)


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
    norm = masses._certified_norm(order, masses._Alphas.of(phi), k)
    points = [(u, v) for u, row in enumerate(rows, -2 * k // 3) for v in row]
    for a, b in points[::7]:
        x = centre(phi, a, b, k, bits)
        weight = masses._dual_weight(exp_act(x.coords, base, bits))
        n_s, n_m, e, _ = norm(a, b)
        s, margin = exact(n_s, e), exact(n_m, e)
        with mp.workprec(2 * bits):
            x_err = ((abs(a) * phi.alpha1.err + abs(b) * phi.alpha2.err) / k
                     + mp.ldexp(max(abs(c) for c in x.coords), 1 - bits))
            assert margin >= s * (mp.ldexp(weight, 3 - bits) + 4 * x_err)


# ---------------------------------------------------------------------------
# exact reads: dyadic images, the hexagon, the simplex
# ---------------------------------------------------------------------------


def reference_dyadic(values):
    # the same (ints, e) through one exact Fraction per value
    qs = [mpf_to_fraction(v) for v in values]
    e = min(((q.numerator & -q.numerator).bit_length() - q.denominator.bit_length()
             for q in qs if q), default=0)
    return [int(q / Fraction(2) ** e) for q in qs], e


DYADIC_VALUES = st.lists(st.one_of(
    # mpf at random precisions, signs and exponents
    st.builds(lambda man, exp, prec: mp.make_mpf(from_man_exp(man, exp, prec, round_nearest)),
              st.integers(-(1 << 700), 1 << 700), st.integers(-1000, 1000),
              st.integers(2, 600)),
    st.integers(-(1 << 400), 1 << 400),
    st.floats(allow_nan=False, allow_infinity=False),
    # subnormals, and the largest float
    st.sampled_from([5e-324, -1e-310, 2.0 ** -1050 * 3, sys.float_info.max]),
    st.sampled_from([0, 0.0, -0.0, mp.mpf(0)]),
), max_size=9)


@settings(max_examples=400, deadline=None)
@given(DYADIC_VALUES)
def test_dyadic_reads_every_value_exactly(values):
    assert dyadic(values) == reference_dyadic(values)


@settings(max_examples=400, deadline=None)
@given(st.integers(-2 ** 300, 2 ** 300), st.integers(1, 300), st.booleans())
def test_round_shift_rounds_half_to_even(v, n, tie):
    # the cover's alpha images: round(v 2^-n) in integers, ties included
    if tie:
        v = (v >> n << n) + (1 << (n - 1))
    assert masses._round_shift(v, n) == round(Fraction(v, 1 << n))


@pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, math.inf, -math.inf, math.nan])
def test_dyadic_rejects_non_finite_values(bad):
    with pytest.raises(InvalidParamsError):
        dyadic([mp.mpf(1), 3, bad])


def test_one_mass_row_builds_its_embedding_once(monkeypatch, capsys):
    # the mass stage builds one embedding, in the reduced basis; the height
    # builds none
    embeds = embedding_calls(monkeypatch)
    assert cli.main(["scan-family", "--family", TWO_UNIT, "--schedule", "list:1000",
                     "--samples", "60", "--H", "10"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("1000,ok,")
    assert embeds == [192]


def test_mass_stage_embeds_at_its_own_bits(monkeypatch, capsys):
    # at 128 bits the mass stage embeds once, at 192 bits; the basis reads
    # only the order's data, so a fresh order gives the same one
    orders = []
    build = units.build_order

    def recording(*args, **kwargs):
        orders.append(build(*args, **kwargs))
        return orders[-1]

    monkeypatch.setattr(units, "build_order", recording)
    embeds = embedding_calls(monkeypatch)
    assert cli.main(["mass-profile", "--family", TWO_UNIT, "--schedule", "list:1000",
                     "--samples", "60", "--H", "10", "--precision-bits", "128"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("1000,")
    (order,) = orders
    assert embeds == [192] and masses._bits(order) == 192
    assert masses._prereduced(order) == masses._prereduced(build(order.f, order.units, order.policy))


def test_embedding_rejects_an_explicit_precision_below_8_bits():
    # only a missing prec means the order's target bits; an explicit 0 is
    # rejected like any prec below PrecisionPolicy's floor of 8 bits
    order = build_order(SEED_ORDER.f, SEED_ORDER.units)
    for prec in (0, 7, -64):
        with pytest.raises(InvalidParamsError):
            embed_order_lattice(order, prec)
    assert embed_order_lattice(order, None) == embed_order_lattice(order, order.policy.target_bits)
    assert embed_order_lattice(order, 8).exp < 0


def test_embedding_reads_no_ambient_precision():
    embeddings = []
    saved = mp.mp.prec
    try:
        for ambient in (30, 300):
            order = build_order(SEED_ORDER.f, SEED_ORDER.units)
            mp.mp.prec = ambient
            embeddings.append(embed_order_lattice(order))
            mp.mp.prec = saved
    finally:
        mp.mp.prec = saved
    assert embeddings[0] == embeddings[1]


def three_term_hex_domain(phi):
    # every vertex as the full barycentric sum, its zero-weight term included
    weights = (mp.mpf(0), mp.mpf(1) / 3, mp.mpf(2) / 3)
    alphas = (phi.alpha1, phi.alpha2, phi.alpha3)
    verts = [tuple(sum(weights[perm[i]] * alphas[i].coords[k] for i in range(3))
                   for k in range(3))
             for perm in itertools.permutations(range(3))]
    return verts, max(max(v) for v in verts)


@pytest.mark.parametrize("kind", ["one_unit", "two_unit", "seed"])
@pytest.mark.parametrize("width", [53, 113, 300])
def test_hex_domain_equals_the_three_term_sums(kind, width):
    order, _ = mass_member(kind, 10 ** 12)
    v1, v2 = (log_embed(order, *u) for u in order.units[:2])
    phi = make_simplex(v1, v2, width)
    hd = hex_domain(phi, width)
    with mp.workprec(width):
        verts, ceiling = three_term_hex_domain(phi)
    assert [[x._mpf_ for x in v] for v in hd.vertices] == [[x._mpf_ for x in v] for v in verts]
    assert hd.ceiling._mpf_ == ceiling._mpf_


def _raw_simplex(phi):
    # each alpha's raw coordinates and its float error bound
    return [(*(x._mpf_ for x in alpha.coords), alpha.err)
            for alpha in (phi.alpha1, phi.alpha2, phi.alpha3)]


@pytest.mark.parametrize("ambient", [53, 256])
def test_mass_stage_builds_the_members_own_simplex(monkeypatch, ambient):
    # a scan-family row with mass makes one simplex, at ROW_BITS (here also
    # patched to 256): the member's own (_Member.phi, for ceil_w), which the
    # order keeps as one entry and the mass stage reads again; a fresh
    # member makes its own, raw tuple for raw tuple the same, and a second
    # read returns the kept one, whatever the ambient precision
    made, read = [], []
    alphas_of = masses._Alphas.of.__func__

    def recording(v1, v2, prec):
        made.append(make_simplex(v1, v2, prec))
        return made[-1]

    def reading(cls, phi):
        read.append(phi)
        return alphas_of(cls, phi)

    monkeypatch.setattr(masses, "make_simplex", recording)
    monkeypatch.setattr(masses._Alphas, "of", classmethod(reading))
    monkeypatch.setattr(masses, "ROW_BITS", ambient)
    row = cli._scan_row((TWO_UNIT, 10 ** 6, 192, 600, ["10", "100"], True))
    member = cli._Member.of_family(TWO_UNIT, 10 ** 6, 192)
    own = member.phi
    assert row.split(",")[1] == "ok" and all(row.split(",")[-2:])
    assert len(made) == 2 and made[1] is own and read == made[:1]
    assert _raw_simplex(made[0]) == _raw_simplex(own)
    assert own.alpha2.x1._mpf_[3] <= ambient  # rounded at the patched width
    for other in (16, ambient + 1):
        with mp.workprec(other):
            assert masses._order_simplex(member.order, *member.logs) is own
    assert len(made) == 2


@pytest.mark.parametrize("rows", ["scan", "profile"])
def test_a_member_embeds_each_unit_once(monkeypatch, rows):
    # the row embeds the first two units for its columns; the mass stage
    # reads the simplex the ceiling made, and embeds none
    calls = []
    embed = units.log_embed

    def counted(order, a, b):
        calls.append((a, b))
        return embed(order, a, b)

    monkeypatch.setattr(units, "log_embed", counted)
    monkeypatch.setattr(masses, "log_embed", counted)
    if rows == "scan":
        row = cli._scan_row((TWO_UNIT, 10 ** 6, 192, 600, ("10", "100"), True))
    else:
        row = cli._mass_rows((TWO_UNIT, 10 ** 6, 192, 600, ("10", "100"), "2"))
    assert "Error" not in row and sorted(calls) == [(1, 1), (2, 3)]


def test_order_simplex_is_kept_per_width(monkeypatch):
    # a mass call at ROW_BITS, then ROW_BITS patched to 256 on the same
    # order: the next mass call reads a simplex made at 256 bits, not the
    # one kept from the first, and each width keeps its own
    order, _ = mass_member("one_unit", 10 ** 3)
    logs = [log_embed(order, *u) for u in order.units[:2]]
    read = []
    alphas_of = masses._Alphas.of.__func__

    def reading(cls, phi):
        read.append(phi)
        return alphas_of(cls, phi)

    monkeypatch.setattr(masses._Alphas, "of", classmethod(reading))
    mass_above_height(order, (10.0,), samples=300)
    monkeypatch.setattr(masses, "ROW_BITS", 256)
    mass_above_height(order, (10.0,), samples=300)
    coarse, fine = read
    assert _raw_simplex(coarse) == _raw_simplex(make_simplex(*logs, ROW_BITS))
    assert _raw_simplex(fine) == _raw_simplex(make_simplex(*logs, 256))
    assert _raw_simplex(fine) != _raw_simplex(coarse)
    assert masses._order_simplex(order, *logs) is fine
    monkeypatch.setattr(masses, "ROW_BITS", ROW_BITS)
    assert masses._order_simplex(order, *logs) is coarse


def test_mass_above_height_needs_two_units(monkeypatch):
    # x^3 - 3x - 1 along x(x - 3) at t = 5: theta - 3 fails the norm check,
    # so the order has one verified unit, and the stage raises before it
    # embeds a unit or calls the kernel
    seed_rank1 = ('{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},'
                  '"a":"1","b":"0","c":"1","d":"3"}')
    order = cli._Member.of_family(seed_rank1, 5, 192).order
    assert len(order.units) == 1
    calls = []

    def never(*args, **kwargs):
        calls.append(args)
        raise AssertionError("reached past the unit count")

    for name in ("log_embed", "make_simplex", "shortest_vector_norm", "_certified_norm"):
        monkeypatch.setattr(masses, name, never)
    with pytest.raises(InvalidParamsError, match="fewer than two verified units"):
        mass_above_height(order, (10.0,), samples=60)
    assert not calls
