"""The member's front stages on raw mpmath tuples, against their
mpmath-operator forms in tests/oracles.py, and the shape against truth.

units.LogVector's arithmetic, log_embed, relative_regulator_with_error and
certify_fundamental, shapes' omega and corner, and masses' make_simplex,
hex_domain and shortest_vector_norm call mpmath's libmp functions
directly. Each must give every field's raw tuple and the class and text of
every error that the operator code gives, over three families, every
decade 10^3..10^24 of both signs, five precisions and three widths, each
passed to the stages with another ambient precision set directly on mp.mp,
which no stage reads. The lattice embedding and the shape come from exact
integers instead. Every entry of the embedding must lie within its stated
relative error of its value at the stored roots, computed at four times
the bits. The shape is checked against the same member at 768 bits: it
must lie within its radius of that shape, and be the convention's
representative of the closed fundamental domain.
"""

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from cubicunits import cubics, masses, shapes, units
from cubicunits.cli import _Member
from cubicunits.cubics import MonicCubic, is_irreducible, is_totally_real
from cubicunits.errors import InvalidParamsError
from cubicunits.precision import mpf_to_fraction

from . import oracles as O

FAMILIES = {
    "one_unit": '{"kind":"one_unit","a":"1","b":"1"}',
    "two_unit": '{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}',
    "seed": '{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},"a":"1","b":"0","c":"1","d":"-1"}',
}
DECADES = [s * 10 ** k for k in range(3, 25) for s in (1, -1)]
BITS = (64, 96, 128, 192, 384)
AMBIENT = (16, 53, 300)
# each width a stage is asked for, with the ambient precision set meanwhile
OTHER = {16: 300, 53: 16, 300: 53}


@pytest.fixture(autouse=True)
def _restore_ambient():
    prec = mp.mp.prec
    yield
    mp.mp.prec = prec


def raw(x):
    """x with every mpf, mpc and log vector replaced by its raw tuples."""
    if hasattr(x, "_mpf_"):
        return x._mpf_
    if hasattr(x, "_mpc_"):
        return x._mpc_
    if hasattr(x, "err"):
        return raw((x.x1, x.x2, x.x3, x.err))
    if isinstance(x, (tuple, list)):
        return tuple(raw(v) for v in x)
    return x


def outcome(fn, *args):
    """('ok', raw result) or ('error', class name, text)."""
    try:
        return "ok", raw(fn(*args))
    except Exception as e:  # the class and text are what is compared
        return "error", type(e).__name__, str(e)


def reference_vector(v):
    with mp.workprec(4096):  # the check passes wherever the vector's does
        return O.ReferenceLogVector(v.x1, v.x2, v.x3, v.err)


def _simplex(phi):
    return phi.alpha1, phi.alpha2, phi.alpha3


def _hexagon(hd):
    return hd.vertices, hd.ceiling, hd.ceiling_err


def _certificate_of(rep):
    return rep.rel_reg, rep.cusick_ratio, rep.certified


def _certificate(v1, v2, disc, bits, width, regulator, certify):
    # the reference returns the report's three fields as a tuple
    reg, err = regulator(v1, v2, width)
    rep = certify(reg, disc, err, bits)
    return _certificate_of(rep) if hasattr(rep, "rel_reg") else rep


def check_vectors(v, r, disc, bits, width):
    """Every stage that takes a width, on the unit pair v (LogVector),
    against the operator code on r (ReferenceLogVector), at that width; the
    exact arithmetic takes none."""
    third = mp.mpf(1) / 3
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: -b,
               lambda a, b: a.scaled(3), lambda a, b: b.scaled(-2),
               lambda a, b: a.scaled(third)):
        assert outcome(op, *v) == outcome(op, *r)
    assert outcome(_certificate, *v, disc, bits, width, units.relative_regulator_with_error,
                   units.certify_fundamental) == outcome(
        _certificate, *r, disc, bits, width, O.reference_relative_regulator_with_error,
        O.reference_certify_fundamental)
    got = outcome(lambda a, b: _simplex(masses.make_simplex(a, b, width)), *v)
    assert got == outcome(O.reference_make_simplex, *r, width)
    if got[0] == "ok":
        assert outcome(lambda a, b: _hexagon(masses.hex_domain(masses.make_simplex(a, b, width), width)), *v) \
            == outcome(lambda a, b: O.reference_hex_domain(O.reference_make_simplex(a, b, width), width), *r)


def check_embedding(order, bits):
    """Every entry of embed_order_lattice(order, bits), and of the mass
    stage's _prereduced(order) at the order's own bits, lies within a
    relative 2^-(prec+29) of disc^(-1/6) g_k(theta_i) at the stored roots,
    g_k the column's coefficient vector over the power basis: g_k(theta_i)
    exact, the rest at 4 prec bits."""
    thetas = [mpf_to_fraction(r.value) for r in order.roots]
    power = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    reduced = [u for _, u in masses._reduced_trace_form(order)]
    for basis, coeffs, prec in ((masses.embed_order_lattice(order, bits), power, bits),
                                (masses._prereduced(order), reduced, masses._bits(order))):
        with mp.workprec(4 * prec):
            scale = mp.power(order.disc, mp.mpf(-1) / 6)
            for col, (u0, u1, u2) in zip(basis.cols, coeffs):
                for entry, x in zip(col, thetas):
                    g = u0 + u1 * x + u2 * x * x
                    ref = scale * g.numerator / g.denominator
                    got = mp.make_mpf(from_man_exp(entry, basis.exp))
                    assert abs(got - ref) <= abs(ref) * mp.ldexp(1, -(prec + 29)), (order.f, prec)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_front_stages_match_the_operator_code(family, bits):
    for t in DECADES:
        order = _Member.of_family(FAMILIES[family], t, bits).order
        check_embedding(order, bits)
        pairs = order.units[:2]
        for width in AMBIENT:
            mp.mp.prec = OTHER[width]
            order._logs.clear()  # log_embed computes again at this ambient precision
            got = [outcome(units.log_embed, order, a, b) for a, b in pairs]
            assert got == [outcome(O.reference_log_embed, order, a, b) for a, b in pairs]
            v = [units.log_embed(order, a, b) for a, b in pairs]
            check_vectors(v, [reference_vector(x) for x in v], order.disc, bits, width)


def _one_unit_logs(t=10 ** 12, bits=192):
    return _Member.of_family(FAMILIES["one_unit"], t, bits).logs


@pytest.mark.parametrize("amb", AMBIENT)
def test_error_paths_match_the_operator_code(amb):
    # each stage at amb bits, with another ambient precision set meanwhile
    mp.mp.prec = OTHER[amb]
    v1, v2 = _one_unit_logs()
    r1 = reference_vector(v1)
    mpf = mp.mpf
    # dependent vectors
    d, rd = v1.scaled(2), r1.scaled(2)
    assert outcome(units.relative_regulator_with_error, v1, d, amb) == outcome(
        O.reference_relative_regulator_with_error, r1, rd, amb)
    got = outcome(lambda a, b: _simplex(masses.make_simplex(a, b, amb)), v1, d)
    assert got[:2] == ("error", "DependentUnitsError")
    assert got == outcome(O.reference_make_simplex, r1, rd, amb)
    zero = units.LogVector(mpf(0), mpf(0), mpf(0), mpf(0))
    for pair in ((v1, d), (zero, v1), (v1, zero)):
        assert outcome(shapes.shape_from_units, *pair)[:2] == ("error", "DependentUnitsError")
    # off-plane input: the LogVector check
    assert outcome(units.LogVector, mpf(1), mpf(1), mpf(1), mpf(1e-30)) == outcome(
        O.ReferenceLogVector, mpf(1), mpf(1), mpf(1), mpf(1e-30))
    # minors that disagree: the first vector sums to 1e-8, inside LogVector's
    # 2^-24 relative slack but, from 53 bits on, far outside the regulator's
    # tolerance
    with mp.workprec(64):
        a = units.LogVector(mpf(1), mpf(2), mpf(-3) + mpf(1e-8), mpf(1e-30))
        b = units.LogVector(mpf(2), mpf(-5), mpf(3), mpf(1e-30))
    got = outcome(units.relative_regulator_with_error, a, b, amb)
    assert amb < 53 or got[:2] == ("error", "InternalInconsistencyError")
    assert got == outcome(O.reference_relative_regulator_with_error,
                          reference_vector(a), reference_vector(b), amb)
    # certification outside its regime, and a non-positive regulator
    for args in ((mpf(1), 16), (mpf(1), -23), (mpf(0), 49), (-1, 49), (mpf(2), 49, mpf(0), 64)):
        assert outcome(lambda *x: _certificate_of(units.certify_fundamental(*x)), *args) \
            == outcome(O.reference_certify_fundamental, *args)
    # the lower half plane
    for tau in (mp.mpc(0.3, -1), mp.mpc(0.3, 0), mpf(2)):
        got = outcome(shapes.reduce_fundamental, tau, 64)
        assert got[:2] == ("error", "InvalidParamsError") and got[2].startswith("need Im(tau) > 0")


@pytest.mark.parametrize("prec", [None, 8, 16, 53, 64, 192, 384])
@pytest.mark.parametrize("amb", AMBIENT)
def test_omega_and_corner_match_the_operator_code(prec, amb):
    # None omits prec: the default is 53 bits, whatever the ambient precision
    mp.mp.prec = amb
    args, ref = ((), 53) if prec is None else ((prec,), prec)
    assert shapes.omega(*args)._mpc_ == O.reference_omega(ref)._mpc_
    assert shapes.corner(*args)._mpc_ == O.reference_corner(ref)._mpc_


# ---------------------------------------------------------------------------
# The shape against truth: the same member at 768 bits
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def truth():
    return {(family, t): _Member.of_family(FAMILIES[family], t, 768).shape
            for family in FAMILIES for t in DECADES}


def glued_distance(z, w):
    # |z - w| up to the gluing of the domain's vertical edges (w +- 1) and
    # of its arc (-1/w), but not the mirror
    with mp.workprec(1024):
        return min(abs(z - c) for c in (w, w + 1, w - 1, -1 / w))


@pytest.mark.parametrize("bits", BITS)
def test_shape_lies_within_its_radius_of_the_768_bit_shape(bits, truth):
    # each printed shape is the convention's representative, lies within
    # its radius of the truth, and is the reference plane map's quotient
    # of the same log vectors carried by its own word
    for family in sorted(FAMILIES):
        for t in DECADES:
            v = _Member.of_family(FAMILIES[family], t, bits).logs
            sp, ref = shapes.shape_from_units(*v, bits), truth[family, t]
            assert O.reference_convention(sp), (family, t)
            assert glued_distance(sp.tau, ref.tau) <= sp.radius + ref.radius, (family, t)
            with mp.workprec(4 * bits):
                z = O.reference_to_plane(v[1]) / O.reference_to_plane(v[0])
                flip = sp.reduction_word[:1] == ("reflect",)
                assert flip == (z.imag < 0)
                z = O.replay(mp.conj(z) if flip else z, sp.reduction_word[flip:])
                assert abs(z - sp.tau) <= sp.radius, (family, t)


# ---------------------------------------------------------------------------
# An explicit precision below 8 bits is an error; an omitted one is 53 bits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prec", [0, -5, 7])
def test_shape_precision_below_eight_bits_is_rejected(prec):
    v1, v2 = _one_unit_logs()
    calls = [lambda: shapes.shape_from_units(v1, v2, prec),
             lambda: shapes.reduce_fundamental(mp.mpc(0.1, 2), prec),
             lambda: shapes.omega(prec), lambda: shapes.corner(prec)]
    for call in calls:
        with pytest.raises(InvalidParamsError, match=f"at least 8 bits, got {prec}$"):
            call()


@pytest.mark.parametrize("amb", AMBIENT)
def test_shape_precision_defaults_to_53_bits(amb):
    v1, v2 = _one_unit_logs()
    tau = mp.mpc(0.1, 2)
    mp.mp.prec = amb
    assert shapes.shape_from_units(v1, v2) == shapes.shape_from_units(v1, v2, 53)
    assert shapes.reduce_fundamental(tau) == shapes.reduce_fundamental(tau, 53)
    assert shapes.corner_distance(tau) == shapes.corner_distance(tau, 53)
    assert shapes.reduce_fundamental(tau, 8).reduced  # 8 bits is allowed


# ---------------------------------------------------------------------------
# masses.shortest_vector_norm: the exact lambda_1^2's square root, rounded once
# ---------------------------------------------------------------------------

_ENTRIES = st.one_of(st.integers(-4, 4), st.integers(-2 ** 600, 2 ** 600))


def _root_of_minimum(basis, prec):
    return O.reference_root(basis._minimum[1], basis.exp, prec)._mpf_


@settings(max_examples=500, deadline=None)
@given(st.lists(_ENTRIES, min_size=9, max_size=9), st.integers(-600, 600),
       st.sampled_from((53, 192, 384)))
def test_root_matches_mpf_sqrt(entries, exp, prec):
    # exact, perfect-square and rounded roots up to 2^1200, scaled by 2^exp
    cols = tuple(tuple(entries[3 * j:3 * j + 3]) for j in range(3))
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = cols
    assume(a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0) + a2 * (b0 * c1 - b1 * c0))
    basis = masses.LatticeBasis3(cols, exp)
    assert masses.shortest_vector_norm(basis, prec)._mpf_ == _root_of_minimum(basis, prec)


def test_root_matches_mpf_sqrt_on_sweep_minima(monkeypatch):
    # every square root of an exact minimum that a mass sweep takes:
    # lambda_1 for each centre, lambda_2 for a wide cover's B (the height
    # takes none: it is one exact sixth root of the trace form's minimum)
    bases, roots = [], []
    norm, sqrt = masses.shortest_vector_norm, masses.mpf_sqrt
    monkeypatch.setattr(masses, "shortest_vector_norm",
                        lambda basis, prec: bases.append(basis) or norm(basis, prec))
    monkeypatch.setattr(masses, "mpf_sqrt",
                        lambda x, prec, rnd: roots.append((x, prec, sqrt(x, prec, rnd))) or roots[-1][2])
    for family in sorted(FAMILIES):
        for t, bits in ((10 ** 3, 192), (10 ** 6, 128), (10 ** 9, 192), (-10 ** 9, 384),
                        (-10 ** 15, 192), (10 ** 21, 192)):
            m = _Member.of_family(FAMILIES[family], t, bits)
            masses.mass_above_height(m.order, [10.0, 100.0, 1000.0], 600)
    minima = {from_man_exp(n, 2 * b.exp): (n, b.exp) for b in bases for n in b._minimum[1:]}
    checked = [(minima[x], prec, r) for x, prec, r in roots if x in minima]
    assert len(checked) > 90
    for (n, exp), prec, r in checked:
        assert r == O.reference_root(n, exp, prec)._mpf_


# ---------------------------------------------------------------------------
# Each member is validated once
# ---------------------------------------------------------------------------


def test_validation_is_kept_on_the_cubic(monkeypatch):
    # the CLI tests irreducibility and total reality, then build_order,
    # refined_roots and the root isolation ask again: one computation each
    calls = []
    no_int_root = cubics._no_int_root
    monkeypatch.setattr(cubics, "_no_int_root", lambda g: calls.append("irr") or no_int_root(g))
    m = _Member.of_family(FAMILIES["seed"], 10 ** 6, 192)
    assert is_irreducible(m.f) and is_totally_real(m.f)
    m.order
    assert calls == ["irr"] and {"_irreducible", "_real"} <= set(vars(m.f))
    assert m.order.disc == O.disc_oracle(m.f.p2, m.f.p1, m.f.p0)
    # the memo takes no part in equality, hashing or repr
    g = MonicCubic(m.f.p2, m.f.p1, m.f.p0)
    assert g == m.f and hash(g) == hash(m.f) and repr(g) == repr(m.f)
    assert not is_irreducible(MonicCubic(0, -1, 0)) and not is_totally_real(MonicCubic(0, 0, -2))
