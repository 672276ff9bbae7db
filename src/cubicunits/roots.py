"""Certified refinement of the three real roots from exact brackets.

The brackets are exact and need no search (`cubics.isolating_intervals`:
the Cauchy interval cut at two rational separators near the critical
points of f, which lie strictly between the roots), and each is refined
on its own. Refinement only has to find a good iterate; the certificate
does not trust it. Newton runs on exact integers (Brent and Zimmermann,
Modern Computer Arithmetic, section 4.2) from the root of f's exact
second-order model at the bracket's separator end, rounded once to a
float (for the outer roots that start lies beyond the root, where Newton
does not overshoot): each iterate is a dyadic X/2^P whose X has the
working precision's bits, and each step is one integer division. Where
the model gives no start, Newton starts from an exact split of the
bracket. The enclosure [x-eps, x+eps], clipped to the exact bracket, is
accepted only with an exact sign change at its ends, so the returned
interval is unconditionally correct; x itself is the returned value, so
eps bounds its error with no rounding. A window without that sign
change sends the root to exact bisection, at the same splits, and then
to the next, doubled precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import mpmath as mp
from mpmath.libmp import from_man_exp, from_rational, round_nearest, round_up, to_rational

from .cubics import MonicCubic, discriminant, eval_scaled, is_totally_real, isolating_ends, sign_at
from .errors import DomainError, InternalInconsistencyError, PrecisionExhaustedError
from .precision import DEFAULT_POLICY, PrecisionPolicy, fraction_to_mpf

__all__ = [
    "IsolatedRoot",
    "refine_root",
    "refined_roots",
]


@dataclass(frozen=True)
class IsolatedRoot:
    """One real root: exact bracketing interval [lo, hi] plus a floating
    value inside it. err is an absolute radius bound: |true root - value|
    <= err."""

    lo: Fraction
    hi: Fraction
    value: mp.mpf
    err: mp.mpf
    prec: int  # bits the value was computed at


def _centred(lo: Fraction, hi: Fraction, prec: int) -> tuple[mp.mpf, mp.mpf]:
    """(value, err) for the bracket [lo, hi]: its midpoint rounded to
    nearest at prec bits, and the radius of the bracket about that value,
    max(value - lo, hi - value), rounded up. Each is one rounding of exact
    integers, so err >= (hi - lo)/2 + |value - (lo + hi)/2|."""
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    mid = from_rational(a * d + c * b, 2 * b * d, prec, round_nearest)
    v, w = to_rational(mid)  # mid = v/w exactly; both radii over w*b*d
    rad = from_rational(max((v * b - a * w) * d, (c * w - v * d) * b), w * b * d, prec, round_up)
    return mp.make_mpf(mid), mp.make_mpf(rad)


def _exponent(x: Fraction) -> int:
    """e with 2^e <= x < 2^(e+1), for x > 0."""
    n, d = x.as_integer_ratio()
    e = n.bit_length() - d.bit_length()
    return e - (n << max(-e, 0) < d << max(e, 0))


def _split(lo: Fraction, hi: Fraction) -> Fraction:
    """An exact rational strictly between lo < hi: 0 across a sign change,
    a power of two between the ends when one is more than 4 times the
    other (halfway between their exponents, an end at 0 counting as
    2^-1074), the midpoint otherwise. A bracket reaching out to the Cauchy
    bound is so cut near its geometric mean, not near its far end."""
    if lo < 0 < hi:
        return Fraction(0)
    small, big = sorted((abs(lo), abs(hi)))
    if big <= 4 * small:
        return (lo + hi) / 2
    eb = _exponent(big)
    k = min(((_exponent(small) if small else -1074) + eb) // 2, eb - 1)
    return Fraction(2) ** k if hi > 0 else -Fraction(2) ** k


def _model_start(f: MonicCubic, lo: Fraction, hi: Fraction, slo: int,
                 flo: int | None = None, fhi: int | None = None):
    """(x, lo, hi): the root of f's second-order model at one end q of the
    bracket, rounded once to a float (exactly -p2/3 where f vanishes
    there; None where the model has no root that way or its root lies
    beyond float64 range), and the bracket, narrowed when it spans the
    inflection point -p2/3. flo and fhi, where given, are eval_scaled of f
    at lo and at hi, so that q is not evaluated again.

    f(q + h) = f(q) + f'(q) h + (3q + p2) h^2 + h^3 exactly, so the model
    drops only h^3, which is under a third of the quadratic term while
    |h| < |q + p2/3|. q is the end of the bracket on the root's side of
    the inflection point -p2/3 nearest to it: the separator end of an
    outer bracket, and for the middle one the end that the exact sign at
    -p2/3 picks (that sign also narrows the bracket). At an outer
    bracket's separator f(q + h) = h^3 at the model root, whose sign puts
    it beyond the root, on the side where f f'' > 0 and Newton does not
    overshoot. The model's coefficients are exact integers at the scale of
    q's denominator, and the start is its least root in the direction of
    the bracket, rounded once.
    """
    p2 = f.p2
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if 3 * hn <= -p2 * hd:  # hi <= -p2/3
        (n, m), F, step = (hn, hd), fhi, -1
    elif 3 * ln >= -p2 * ld:  # lo >= -p2/3
        (n, m), F, step = (ln, ld), flo, 1
    else:
        v = eval_scaled(f, -p2, 3)
        if v == 0:
            return Fraction(-p2, 3), lo, hi
        if (v > 0) == (slo > 0):
            lo, (n, m), F, step = Fraction(-p2, 3), (hn, hd), fhi, -1
        else:
            hi, (n, m), F, step = Fraction(-p2, 3), (ln, ld), flo, 1
    # m^3 times the model at q = n/m plus step w/m: F + G w + A w^2, F > 0
    if F is None:
        F = eval_scaled(f, n, m)
    sign = step if F > 0 else -step
    F, G, A = abs(F), sign * ((3 * n + 2 * p2 * m) * n + f.p1 * m * m), sign * step * (3 * n + p2 * m)
    disc = G * G - 4 * A * F
    if G < 0 and disc >= 0:
        num, den = 2 * F, isqrt(disc) - G
    elif A < 0:
        num, den = G + isqrt(disc), -2 * A
    else:
        return None, lo, hi
    try:
        return (n * den + step * num) / (m * den), lo, hi
    except OverflowError:
        return None, lo, hi


def _newton(f: MonicCubic, x: int, q: int, bits: int, target: int):
    """Newton on exact integers from x/q, q > 0, each iterate X/2^P.

    With F = q^3 f(x/q) and D = q^2 f'(x/q), the next iterate is
    (x D - F)/(q D) exactly; it is rounded once to X/2^P, with P read from
    its own exponent so that X has `bits` significant bits (so a root below
    float64 range keeps its relative precision), and P >= target + 8 so
    that the window X +- 2^(P - target) is integral. Returns (X, P) after
    the first step below 2^-(target+4), or None if f' vanishes or no step
    gets there.
    """
    p2, p1 = f.p2, f.p1
    for _ in range(bits.bit_length() * 8 + 40):
        fx = eval_scaled(f, x, q)
        dfx = (3 * x + 2 * p2 * q) * x + p1 * q * q
        if dfx == 0:
            return None
        num, den = x * dfx - fx, q * dfx
        if den < 0:
            num, den = -num, -den
        k = num.bit_length() - den.bit_length()  # 2^(k-1) < |num/den| < 2^(k+1)
        if abs(num) << max(-k, 0) >= den << max(k, 0):
            k += 1
        p = max(bits - k, target + 8)
        x, q = ((num << (p + 1)) // den + 1) >> 1, 1 << p  # nearest X/2^P
        if abs(fx) << (target + 4) < den:  # |f/f'| < 2^-(target+4)
            return x, p
    return None


def _window_end(f: MonicCubic, n: int, q: int, end: Fraction, outside: bool, sign: int | None):
    """(point, sign of f there) for the window end n/q, clipped to the
    bracket end `end` when n/q lies outside it; sign is f's sign at `end`
    where it is known, and None otherwise."""
    if outside:
        return end, sign_at(f, end) if sign is None else sign
    v = eval_scaled(f, n, q)
    return Fraction(n, q), (v > 0) - (v < 0)


def refine_root(f: MonicCubic, lo: Fraction, hi: Fraction,
                pol: PrecisionPolicy = DEFAULT_POLICY, values: tuple[int, int] | None = None) -> IsolatedRoot:
    """Shrink the exact bracket [lo, hi], which holds exactly one simple
    root of f, to an enclosure of absolute radius <= 2^-target_bits.

    The iterate: Newton on exact integers (`_newton`) from the root of
    f's second-order model at an end of the bracket (`_model_start`), or
    from the exact split of the bracket (`_split`) where the model gives
    none; each iterate is a dyadic X/2^P with as many significant bits as
    the working precision, until a step is below 2^-(target+4). The
    certificate does not trust the iterate: the window (X +- 2^(P -
    target))/2^P is clipped to the exact bracket by integer
    cross-multiplication (the bracket holds exactly one root, and an end
    of it can lie within 2^-target of the root), and accepted only with an
    exact sign change at its ends. value is X/2^P exactly and err is
    2^-target, so the window is centred on value. Otherwise exact
    bisection at `_split` narrows the bracket, and the next rung of
    `pol.ladder()` doubles the working precision and starts Newton from
    the narrowed bracket's split. Where the low end, a window end or a
    split is itself the root, the result is that exact point with err 0,
    its value at the first rung's working precision.

    values, where the caller has them, are eval_scaled of f at lo and at
    hi (den^3 f over each end's reduced denominator), with f(lo) f(hi) <
    0; refined_roots passes those its isolation computed, so that no end
    of a bracket is evaluated twice. Without them, f is evaluated at lo,
    and at hi only where a window is clipped to it.
    """
    target = pol.target_bits
    # working precision must absorb the root magnitude (err bound is
    # absolute): the bits of ceil(max(|lo|, |hi|))
    (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
    mag_bits = max(-(-abs(a) // b), -(-abs(c) // d)).bit_length()
    first = target + mag_bits + 64  # the first rung's working precision

    def exact(x: Fraction) -> IsolatedRoot:
        # a rational root of the monic f is an integer of at most mag_bits
        # bits, so it is exact at the first rung: a width-0 enclosure
        return IsolatedRoot(x, x, fraction_to_mpf(x, first), mp.mpf(0), first)

    flo, fhi = values or (eval_scaled(f, a, b), None)
    slo = (flo > 0) - (flo < 0)
    if slo == 0:
        return exact(lo)
    start, lo, narrowed = _model_start(f, lo, hi, slo, flo, fhi)
    # f has the sign slo at lo, and shi at hi where it is known: -slo once
    # hi has moved
    if narrowed != hi:
        hi, shi = narrowed, -slo
    else:
        shi = None if fhi is None else (fhi > 0) - (fhi < 0)
    for bits in pol.ladder(start_extra=first - target):
        if start is None:
            start = _split(lo, hi)
        found = _newton(f, *start.as_integer_ratio(), bits, target)
        if found is not None:
            x, p = found
            q, e = 1 << p, 1 << (p - target)
            (a, b), (c, d) = lo.as_integer_ratio(), hi.as_integer_ratio()
            if (x + e) * b >= a * q and (x - e) * d <= c * q:  # the window meets [lo, hi]
                cand_lo, sl = _window_end(f, x - e, q, lo, (x - e) * b < a * q, slo)
                cand_hi, sh = _window_end(f, x + e, q, hi, (x + e) * d > c * q, shi)
                if sl == 0 or sh == 0:
                    return exact(cand_lo if sl == 0 else cand_hi)
                if sl != sh:
                    v = mp.make_mpf(from_man_exp(x, -p))
                    return IsolatedRoot(cand_lo, cand_hi, v, mp.make_mpf(from_man_exp(1, -target)), bits)
        # Newton failed to certify at this precision: tighten the exact
        # bracket by bisection (always sound) and escalate; the next rung
        # starts from the narrowed bracket.
        start = None
        width = Fraction(2, 1 << target)
        for _ in range(64):
            mid = _split(lo, hi)
            sm = sign_at(f, mid)
            if sm == 0:
                return exact(mid)
            if sm == slo:
                lo = mid
            else:
                hi, shi = mid, sm
            if hi - lo <= width:
                return IsolatedRoot(lo, hi, *_centred(lo, hi, bits), bits)
    raise PrecisionExhaustedError(f"could not certify root of {f} to 2^-{target} within {pol.max_bits} bits")


def refined_roots(f: MonicCubic, pol: PrecisionPolicy = DEFAULT_POLICY) -> list[IsolatedRoot]:
    """The three real roots, ascending, each refined from its exact
    isolating bracket. f must have three distinct real roots. f is
    evaluated once at each end of a bracket: the separators' values come
    from the isolation, and each refinement reads its ends' values."""
    if not is_totally_real(f):
        raise DomainError(f"not totally real (disc={discriminant(f)}): {f}")
    ends = [(x, eval_scaled(f, *x.as_integer_ratio()) if v is None else v) for x, v in isolating_ends(f)]
    if any(u * v >= 0 for (_, u), (_, v) in zip(ends, ends[1:])):
        raise InternalInconsistencyError(f"isolation returned a non-bracketing interval for {f}")
    if len(ends) != 4:
        raise InternalInconsistencyError(f"expected 3 real roots, isolated {len(ends) - 1} for {f}")
    return [refine_root(f, lo, hi, pol, (u, v)) for (lo, u), (hi, v) in zip(ends, ends[1:])]
