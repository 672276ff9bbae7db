"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the library across its full
pipeline (family construction, certified root isolation, regulator
certification, shape reduction, mass estimation, ratio orbits) and prints
a single PASS/FAIL line. The print bypasses pytest's capture (capfd
stays disabled for the write) so the verdicts always appear in the run
log; the assert that follows carries the same text. Randomized suites
use fixed seeds, so any failure here is reproducible by rerunning the
file.
"""

import math
import random
import statistics
import time
from fractions import Fraction

import mpmath as mp

from cubicunits import (
    INFINITY,
    McrPair,
    MonicCubic,
    OneUnitParams,
    PrecisionPolicy,
    TwoUnitParams,
    build_one_unit,
    build_order,
    build_two_unit,
    certify_fundamental,
    check_tight,
    corner_distance,
    cusick_angle_cos,
    discriminant,
    embed_order_lattice,
    eval_scaled,
    hex_domain,
    is_admissible_one_unit,
    is_admissible_two_unit,
    is_mutually_cubic_pair,
    lattice_height,
    log_embed,
    make_simplex,
    mass_above_height,
    norm_linear_form,
    orbit,
    recipe_pairs,
    reduce_fundamental,
    refined_roots,
    relative_regulator_with_error,
    same_shape,
    shape_from_units,
    shortest_vector_norm,
    simplest_cubic,
    tilde_D,
    tilde_T,
)
from cubicunits.errors import InvalidParamsError
from cubicunits.precision import ROW_BITS

from .oracles import (
    disc_from_roots, disc_oracle, exp_act, floor_power, log_vector, norm_from_roots, reference_to_plane)


def _verdict(capfd, num: int, ok: bool, detail: str) -> None:
    line = f"AC{num} {'PASS' if ok else 'FAIL'}: {detail}"
    with capfd.disabled():
        print(line, flush=True)
    assert ok, line


def _simplest_order(t: int):
    return build_order(simplest_cubic(t), [(1, 0), (1, -1)])


# ---------------------------------------------------------------------------
# AC1: designed evaluations are exact units across random admissible params
# ---------------------------------------------------------------------------


def _one_unit_candidates(rng: random.Random):
    """A signed admissible (a, b) pair drawn from the known recipes."""
    kind = rng.choice(["one_b", "b2b1", "one_minus_b", "square_cube"])
    cap = {"one_b": 10**6, "b2b1": 999, "one_minus_b": 10**6, "square_cube": 99}
    a, b = recipe_pairs(kind, rng.randint(2, cap[kind]))
    a *= rng.choice([1, -1])
    b *= rng.choice([1, -1])
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            try:
                p = OneUnitParams(a, b, e1, e2)
            except InvalidParamsError:
                continue
            if is_admissible_one_unit(p):
                out.append(p)
    return out


def _two_unit_candidates(rng: random.Random):
    base = rng.choice(["quad", "cube", "seed"])
    if base == "quad":
        b = rng.randint(1, 999)
        a, b, c, d = b * b + b + 1, b, b + 1, 1
    elif base == "cube":
        c = rng.randint(1, 99)
        a, b, c, d = c**3 + 1, c**2, c, 1
    else:
        a, b, c, d = 3, 1, 2, 1
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    if rng.random() < 0.5:
        a, b = -a, -b
    if rng.random() < 0.5:
        c, d = -c, -d
    out = []
    for e1 in (1, -1):
        for e2 in (1, -1):
            try:
                p = TwoUnitParams(a, b, c, d, e1, e2)
            except InvalidParamsError:
                continue
            if is_admissible_two_unit(p):
                out.append(p)
    return out


def test_ac1_designed_units_exact(capfd):
    rng = random.Random(101)
    t0 = time.time()
    n_one = n_two = 0
    while n_one < 1000:
        cands = _one_unit_candidates(rng)
        if not cands:
            continue
        p = rng.choice(cands)
        t = rng.randint(-(10**6), 10**6)
        f = build_one_unit(p, t)
        assert eval_scaled(f, p.b, p.a) == p.eps1
        assert f.p0 == p.eps2
        n_one += 1
    while n_two < 1000:
        cands = _two_unit_candidates(rng)
        if not cands:
            continue
        p = rng.choice(cands)
        t = rng.randint(-(10**6), 10**6)
        f = build_two_unit(p, t)
        assert eval_scaled(f, p.b, p.a) == p.eps1
        assert eval_scaled(f, p.d, p.c) == p.eps2
        n_two += 1
    dt = time.time() - t0
    ok = n_one >= 1000 and n_two >= 1000 and dt < 60
    _verdict(capfd, 1, ok, f"{n_one} one-unit + {n_two} two-unit members evaluate to "
                    f"their designed units exactly ({dt:.2f}s)")


# ---------------------------------------------------------------------------
# AC2: certified regulator ratios approach 1/16 on the simplest family
# ---------------------------------------------------------------------------


def test_ac2_cusick_ratio_approaches_sixteenth(capfd):
    ratios = []
    certified = []
    for t in (10**3, 10**6, 10**9, 10**12):
        order = _simplest_order(t)
        v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
        reg, err = relative_regulator_with_error(v1, v2, 220)
        rep = certify_fundamental(reg, order.disc, err)
        ratios.append(rep.cusick_ratio)
        certified.append(rep.certified)
    devs = [abs(r - mp.mpf(1) / 16) for r in ratios]
    ok = (all(certified)
          and all(devs[i + 1] < devs[i] for i in range(3))
          and devs[-1] <= mp.mpf("0.00625"))
    _verdict(capfd, 2, ok, "ratio " + " > ".join(mp.nstr(r, 6) for r in ratios)
             + f" -> 1/16, final off by {mp.nstr(devs[-1], 3)} (<10%), all certified")


# ---------------------------------------------------------------------------
# AC3: root deviation scales like 1/t; discriminant matches its leading term
# ---------------------------------------------------------------------------


def test_ac3_two_unit_asymptotics(capfd):
    xs, ys = [], []
    ratio_dev = None
    for k in range(10, 31):
        t = 2**k
        f = build_two_unit(TwoUnitParams(3, 1, 2, 1), t)
        roots = refined_roots(f, PrecisionPolicy(target_bits=192))
        with mp.workprec(220):
            dev = abs(roots[1].value - mp.mpf(1) / 3)
        xs.append(math.log(t))
        ys.append(float(mp.log(dev)))
        if k == 30:
            ratio_dev = abs(float(Fraction(discriminant(f), 36 * t**4)) - 1)
    slope = statistics.linear_regression(xs, ys).slope
    ok = -1.15 <= slope <= -0.85 and ratio_dev <= 0.01
    _verdict(capfd, 3, ok, f"log-log slope {slope:.5f} in -1+-0.15; "
                    f"disc/(36 t^4) off by {ratio_dev:.2e} at t=2^30")


# ---------------------------------------------------------------------------
# AC4: unit-lattice shapes collapse onto the hexagonal corner
# ---------------------------------------------------------------------------


def test_ac4_shapes_reach_corner(capfd):
    dists = []
    for t in (10**3, 10**6, 10**9):
        order = _simplest_order(t)
        v1, v2 = log_embed(order, 1, 0), log_embed(order, 1, -1)
        sp = shape_from_units(v1, v2, 200)
        dists.append(corner_distance(sp))
    slack = mp.ldexp(1, -40)
    ok = (dists[-1] <= mp.mpf("0.05")
          and all(dists[i + 1] <= dists[i] + slack for i in range(2)))
    _verdict(capfd, 4, ok, "corner distance "
             + " >= ".join(mp.nstr(d, 4) for d in dists) + " (final <= 0.05)")


# ---------------------------------------------------------------------------
# AC5: slow-growth shapes land on the unit arc at the predicted angle
# ---------------------------------------------------------------------------


def _slow_growth_errors(num: int, den: int, t: int):
    b = floor_power(t, num, den)
    f = build_one_unit(OneUnitParams(1, b), t)
    order = build_order(f, [(1, b), (1, 0)])
    va, vb = log_embed(order, 1, b), log_embed(order, 1, 0)
    target = cusick_angle_cos(Fraction(num, den))
    with mp.workprec(220):
        tau = reference_to_plane(vb) / reference_to_plane(va)
        if mp.im(tau) < 0:
            tau = mp.conj(tau)
        e_abs = abs(abs(tau) - 1)
        e_cos = abs(mp.cos(mp.arg(tau)) - (mp.mpf(target.numerator) / target.denominator))
    return e_abs, e_cos


def _trending_down(errs) -> bool:
    # the cosine error can cross zero mid-schedule, so "decreasing" is
    # judged on halves plus a strict head-to-tail drop
    return max(errs[2:]) <= max(errs[:2]) and errs[-1] < errs[0] * 0.7


def test_ac5_slow_growth_limit_angles(capfd):
    schedule = (10**6, 10**8, 10**10, 10**12)
    details = []
    ok = True
    for num, den in ((1, 5), (1, 2), (4, 5)):
        errs = [_slow_growth_errors(num, den, t) for t in schedule]
        e_abs = [e[0] for e in errs]
        e_cos = [e[1] for e in errs]
        ok = ok and e_abs[-1] <= 0.1 and e_cos[-1] <= 0.1
        ok = ok and _trending_down(e_abs) and _trending_down(e_cos)
        details.append(f"a={num}/{den}: |tau| off {mp.nstr(e_abs[-1], 2)}, "
                       f"cos off {mp.nstr(e_cos[-1], 2)}")
    _verdict(capfd, 5, ok, "; ".join(details) + " at t=1e12, both shrinking over the schedule")


# ---------------------------------------------------------------------------
# AC6: escape of mass grows along the family and meets the r^2 lower bound
# ---------------------------------------------------------------------------


def test_ac6_mass_escape(capfd):
    fracs = []
    for t in (10**3, 10**5, 10**7, 10**9):
        f = build_one_unit(OneUnitParams(1, 1), t)
        order = build_order(f, [(1, 1), (1, 0)])
        fracs += mass_above_height(order, (10.0,), samples=600)
    monotone = all(fracs[i + 1] >= fracs[i] for i in range(3))
    ok = monotone and fracs[-1] >= Fraction(4, 5)

    bound = Fraction(1, 9) * Fraction(95, 100)
    tight_all = True
    bound_all = True
    for b in (16, 32, 64):
        p = TwoUnitParams(b * b + b + 1, b, b + 1, 1)
        order = build_order(build_two_unit(p, b**3), [(p.a, p.b), (p.c, p.d)])
        v1, v2 = log_embed(order, p.a, p.b), log_embed(order, p.c, p.d)
        phi = make_simplex(v1, v2, ROW_BITS)
        ht = lattice_height(order)
        tight = check_tight(hex_domain(phi, ROW_BITS), ht, 2, Fraction(1, 3), ROW_BITS)
        tight_all = tight_all and tight
        if tight:
            frac, = mass_above_height(order, (10.0,), samples=600)
            bound_all = bound_all and frac >= bound
    ok = ok and tight_all and bound_all
    _verdict(capfd, 6, ok, "fractions " + " <= ".join(str(f) for f in fracs)
             + f" (final >= 4/5); growing family tight at r=1/3 with mass >= {float(bound):.4f}")


# ---------------------------------------------------------------------------
# AC7: ratio orbits converge to their fixed points; tilde maps preserve
# the mutually-cubic property
# ---------------------------------------------------------------------------


def _first_hit(states, limit, tol=1e-6):
    for k, s in enumerate(states):
        if not s.is_infinity and abs(s.as_mpf(80) - limit) < tol:
            return k
    return None


def test_ac7_orbits_and_tilde_maps(capfd):
    with mp.workprec(80):
        hit_t = _first_hit(orbit("T", Fraction(3), 40), (3 + mp.sqrt(5)) / 2)
        hit_r = _first_hit(orbit("R", INFINITY, 60), (3 + mp.sqrt(3)) / 2)

    rng = random.Random(707)
    pair = McrPair(2, 1)
    steps_in_chain = 0
    failures = 0
    for _ in range(10**4):
        if steps_in_chain >= 6 or pair.b == 0:
            pair = McrPair(rng.randint(2, 50), 1)
            steps_in_chain = 0
        if rng.random() < 0.3 and pair.b != 0 and (pair.a**2 + pair.a + 1) % pair.b == 0:
            pair = tilde_D(pair)
        else:
            pair = tilde_T(pair)
        if not is_mutually_cubic_pair(pair.a, pair.b):
            failures += 1
        steps_in_chain += 1
    ok = hit_t is not None and hit_t <= 40 and hit_r is not None and hit_r <= 60 \
        and failures == 0
    _verdict(capfd, 7, ok, f"T-orbit within 1e-6 of (3+sqrt5)/2 after {hit_t} steps, "
                    f"R-orbit after {hit_r}; 10^4 tilde applications, {failures} failures")


# ---------------------------------------------------------------------------
# AC8: three independent discriminant routes agree; norms match root products
# ---------------------------------------------------------------------------


def test_ac8_discriminant_and_norm_oracles(capfd):
    rng = random.Random(808)
    tol_disc = mp.ldexp(1, -64)
    tol_norm = mp.ldexp(1, -80)
    n = 0
    worst_disc = mp.mpf(0)
    worst_norm = mp.mpf(0)
    while n < 1000:
        f = MonicCubic(rng.randint(-(10**4), 10**4),
                       rng.randint(-(10**4), 10**4),
                       rng.randint(-(10**4), 10**4))
        d = discriminant(f)
        assert d == disc_oracle(f.p2, f.p1, f.p0)
        if d == 0:
            continue
        with mp.workprec(340):
            rel = abs(disc_from_roots(f.p2, f.p1, f.p0, 320) - d) / abs(mp.mpf(d))
        worst_disc = max(worst_disc, rel)

        a = rng.choice([x for x in range(-100, 101) if x != 0])
        b = rng.randint(-100, 100)
        exact = norm_linear_form(f, a, b)
        if exact != 0:
            with mp.workprec(420):
                reln = abs(norm_from_roots(f.p2, f.p1, f.p0, a, b, 400)
                           - exact) / abs(mp.mpf(exact))
            worst_norm = max(worst_norm, reln)
        n += 1
    ok = worst_disc <= tol_disc and worst_norm <= tol_norm
    _verdict(capfd, 8, ok, f"1000 cubics: disc formula == resultant exactly, root-product "
                    f"off by <= {mp.nstr(worst_disc, 2)} (tol 2^-64); norms off by "
                    f"<= {mp.nstr(worst_norm, 2)} (tol 2^-80)")


# ---------------------------------------------------------------------------
# AC9: invariance suites, 10^3 randomized trials each, zero failures
# ---------------------------------------------------------------------------


def _apply_word(tau, word):
    for step in word:
        if step == "S":
            tau = -1 / tau
        else:
            tau = tau + step
    return tau


def _suite_reduction_invariance(rng: random.Random) -> int:
    failures = 0
    with mp.workprec(200):
        for _ in range(1000):
            tau = mp.mpc(rng.uniform(-3, 3), rng.uniform(0.05, 4))
            word = [rng.choice(["S", -3, -2, -1, 1, 2, 3])
                    for _ in range(rng.randint(1, 5))]
            moved = _apply_word(tau, word)
            # the word is applied with rounding, so the two points differ by
            # more than the radii of their reductions
            if not same_shape(reduce_fundamental(tau, 200),
                              reduce_fundamental(moved, 200), mp.ldexp(1, -100)):
                failures += 1
    return failures


def _suite_height_periodicity(rng: random.Random) -> int:
    failures = 0
    orders = [_simplest_order(1000),
              build_order(build_one_unit(OneUnitParams(1, 1), 1000), [(1, 1), (1, 0)])]
    cached = []
    for order in orders:
        v1 = log_embed(order, *order.units[0])
        v2 = log_embed(order, *order.units[1])
        cached.append((order, v1, v2))
    for _ in range(1000):
        order, v1, v2 = cached[rng.randrange(2)]
        n1, n2 = rng.randint(-2, 2), rng.randint(-2, 2)
        if n1 == 0 and n2 == 0:
            n1 = 1
        x = v1.scaled(n1) + v2.scaled(n2)
        span = max(abs(x.x1), abs(x.x2), abs(x.x3))
        prec = 128 + 4 * (int(span) + 1)
        with mp.workprec(prec):
            base = embed_order_lattice(order, prec)
            ref = lattice_height(order, prec)
            moved = exp_act(x.coords, base, prec)
            if abs(1 / shortest_vector_norm(moved, prec) - ref) > ref * mp.ldexp(1, -40):
                failures += 1
    return failures


def _suite_minor_agreement(rng: random.Random) -> int:
    failures = 0
    order = _simplest_order(1000)
    v1 = log_embed(order, 1, 0)
    v2 = log_embed(order, 1, -1)
    base_reg, base_err = relative_regulator_with_error(v1, v2, 220)
    with mp.workprec(220):
        for _ in range(1000):
            while True:
                n1, n2 = rng.randint(-3, 3), rng.randint(-3, 3)
                m1, m2 = rng.randint(-3, 3), rng.randint(-3, 3)
                det = n1 * m2 - n2 * m1
                if det != 0:
                    break
            u = v1.scaled(n1) + v2.scaled(n2)
            w = v1.scaled(m1) + v2.scaled(m2)
            try:
                reg, err = relative_regulator_with_error(u, w, 220)
            except Exception:
                failures += 1
                continue
            want = abs(det) * base_reg
            if abs(reg - want) > err + abs(det) * base_err + mp.ldexp(1, -150):
                failures += 1
    return failures


def _shoelace(pts):
    s = mp.mpf(0)
    for i in range(len(pts)):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % len(pts)]
        s += x1 * y2 - x2 * y1
    return abs(s) / 2


def _suite_hexagon_covolume(rng: random.Random) -> int:
    failures = 0
    with mp.workprec(200):
        tiny = mp.ldexp(1, -120)
        done = 0
        while done < 1000:
            a1, a2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            b1, b2 = rng.uniform(-5, 5), rng.uniform(-5, 5)
            cross = abs(mp.mpf(a1) * b2 - mp.mpf(a2) * b1)
            if cross < mp.mpf("0.01"):
                continue
            v1 = log_vector(mp.mpf(a1), mp.mpf(a2), -mp.mpf(a1) - a2, tiny)
            v2 = log_vector(mp.mpf(b1), mp.mpf(b2), -mp.mpf(b1) - b2, tiny)
            hd = hex_domain(make_simplex(v1, v2, 200), 200)
            proj = [(v[0], v[1]) for v in hd.vertices]
            proj.sort(key=lambda p: mp.atan2(p[1], p[0]))
            if abs(_shoelace(proj) - cross) > cross * mp.ldexp(1, -50):
                failures += 1
            done += 1
    return failures


def test_ac9_invariance_suites(capfd):
    rng = random.Random(909)
    f_red = _suite_reduction_invariance(rng)
    f_ht = _suite_height_periodicity(rng)
    f_min = _suite_minor_agreement(rng)
    f_hex = _suite_hexagon_covolume(rng)
    ok = f_red == 0 and f_ht == 0 and f_min == 0 and f_hex == 0
    _verdict(capfd, 9, ok, "1000-trial suites, failures: shape reduction "
             f"{f_red}, height periodicity {f_ht}, regulator minors {f_min}, "
             f"hexagon covolume {f_hex}")
