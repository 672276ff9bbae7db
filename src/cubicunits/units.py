"""Log embeddings of units, relative regulators, Cusick certification.

The certification side is deliberately one-sided: "certified" must never
be wrong, so the Cusick ratio is compared against 1/8 minus a margin with
all numeric error pushed in the pessimistic direction. "Not certified"
only ever means inconclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from math import gcd

import mpmath as mp
from mpmath.libmp import (
    fone, from_float, from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_log, mpf_lt,
    mpf_mul, mpf_mul_int, mpf_neg, mpf_pow_int, mpf_shift, mpf_sub, round_nearest as _RND)

from .cubics import MonicCubic, discriminant, is_irreducible, is_totally_real, norm_linear_form
from .errors import (
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    OutOfRegimeError,
    PrecisionExhaustedError,
)
from .precision import DEFAULT_POLICY, PrecisionPolicy, dyadic, exceeds, float_above, float_below, mpf_to_fraction, up
from .roots import IsolatedRoot, refine_root, refined_roots

__all__ = [
    "LogVector",
    "CubicOrderData",
    "RegulatorReport",
    "log_embed",
    "relative_regulator_with_error",
    "certify_fundamental",
    "build_order",
    "report_to_json",
]


# certify_fundamental asks the Cusick ratio to clear 1/8 by 2^-_MARGIN_BITS
_MARGIN_BITS = 32

# The routines below compute their values on mpmath's raw tuples: each
# step is the libmp call, precision and rounding that mpmath's operator
# for it makes (-x and abs(x) round, int * x is mpf_mul_int, x ** 2 is
# mpf_pow_int, a sum() rounds its first term), at the precision the caller
# names, so every value bit is the operator code's. At precision 0, libmp
# adds, subtracts and multiplies exactly. _RND is mpmath's default
# rounding, to nearest. Their error bounds are float64 upper bounds, each
# float step rounded outward (precision.up), and each test of a value
# against a bound is exact (precision.exceeds).
_EIGHTH = mp.mpf(0.125)


def _show(x: float, digits: int) -> str:
    # the float x to digits digits, as mp.nstr prints an mpf
    return mp.nstr(mp.make_mpf(from_float(x)), digits)


@dataclass(frozen=True)
class LogVector:
    """Point of the trace-zero plane {x1+x2+x3=0}, up to the shared error
    bound err on each coordinate: a float64 at or above the coordinates'
    true error (an mpf or int given is read as the float at or above it,
    precision.float_above). +, -, negation and scaled(c) are exact on the
    coordinates and round err outward (precision.up), so (v + w).err is
    at or above v.err + w.err."""

    x1: mp.mpf
    x2: mp.mpf
    x3: mp.mpf
    err: float

    def __post_init__(self):
        if type(self.err) is not float:
            object.__setattr__(self, "err", float_above(self.err))
        # the exact coordinate sum must be within 3 err, or within the
        # exact 2^-24 max(1, |x_i|)
        x = [t._mpf_ for t in self.coords]
        s = mpf_abs(mpf_add(mpf_add(x[0], x[1]), x[2]))
        err3 = up(3 * self.err)
        s24 = mpf_shift(s, 24)
        if exceeds(s, err3) and mpf_gt(s24, fone) and all(mpf_gt(s24, mpf_abs(t)) for t in x):
            raise InvalidParamsError(f"coordinates sum to {mp.nstr(mp.make_mpf(s), 8)}, beyond 3*err={_show(err3, 8)}")

    @property
    def coords(self):
        return (self.x1, self.x2, self.x3)

    def __add__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, mpf_add)

    def __sub__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, mpf_sub)

    def _combine(self, o, op) -> "LogVector":
        x = [op(s._mpf_, t._mpf_) for s, t in zip(self.coords, o.coords)]
        return _vector(x, up(self.err + o.err))

    def __neg__(self) -> "LogVector":
        return _vector([mpf_neg(s._mpf_) for s in self.coords], self.err)

    def scaled(self, c) -> "LogVector":
        (n,), e = dyadic([c])  # c, an int, float or mpf, read exactly
        c = from_man_exp(n, e)
        return _vector([mpf_mul(c, s._mpf_) for s in self.coords], up(float_above(mpf_abs(c)) * self.err))


def _vector(x, err: float) -> LogVector:
    # the vector with raw coordinates x and error bound err
    return LogVector(*map(mp.make_mpf, x), err)


@dataclass(frozen=True)
class CubicOrderData:
    """A constructed order Z[theta]: defining cubic, validated ascending
    roots, discriminant, the unit parameters that survived the exact norm
    check (with the rejects and why), and a memo of data derived from
    them, which no later call can change: the simplex of the first two
    units' log vectors (masses._order_simplex), keyed by the width it was
    made at, the rows' ROW_BITS. The lattice embedding is built once per
    mass call and is not kept."""

    f: MonicCubic
    roots: tuple[IsolatedRoot, IsolatedRoot, IsolatedRoot]
    disc: int
    units: tuple[tuple[int, int], ...]
    dropped: tuple[tuple[tuple[int, int], str], ...]
    policy: PrecisionPolicy
    _simplex: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RegulatorReport:
    """The relative regulator and the Cusick ratio, each with a float64 error bound."""
    rel_reg: mp.mpf
    cusick_ratio: mp.mpf
    certified: bool
    rel_reg_err: float = 0.0
    ratio_err: float = 0.0

    def __post_init__(self):
        if self.certified and not self.cusick_ratio < _EIGHTH:
            raise InternalInconsistencyError("certified report with ratio >= 1/8")


def build_order(f: MonicCubic, candidate_units, pol: PrecisionPolicy = DEFAULT_POLICY) -> CubicOrderData:
    """Validate the polynomial, refine its roots, and vet candidate units
    by exact norm evaluation. Failing candidates are reported, not fatal."""
    if not is_totally_real(f):
        raise DomainError(f"{f} is not totally real")
    if not is_irreducible(f):
        raise DomainError(f"{f} is reducible over Q")
    roots = tuple(refined_roots(f, pol))
    kept, dropped = [], []
    for a, b in candidate_units:
        a, b = int(a), int(b)
        if a == 0:
            dropped.append(((a, b), "a=0: not a linear form in theta"))
        elif gcd(a, b) > 1:
            dropped.append(((a, b), f"gcd={gcd(a, b)}>1"))
        elif abs(norm_linear_form(f, a, b)) != 1:
            dropped.append(((a, b), f"norm={norm_linear_form(f, a, b)}"))
        elif (a, b) not in kept:
            kept.append((a, b))
    return CubicOrderData(f, roots, discriminant(f), tuple(kept), tuple(dropped), pol)


def log_embed(order: CubicOrderData, a: int, b: int) -> LogVector:
    """psi(a*theta - b) = (log|a*theta_i - b|)_i, with a propagated error
    bound. While some |a*theta_i - b| is too close to zero to take a
    trustworthy log, the roots are refined at the next rung of the order's
    precision ladder, up to max_bits itself. Every step rounds at the
    roots' bits."""
    if a == 0 or abs(norm_linear_form(order.f, a, b)) != 1:
        raise InvalidParamsError(f"({a},{b}) is not a verified unit of this order")
    roots = list(order.roots)
    pol = order.policy
    rungs = pol.ladder()
    next(rungs)  # the stored roots' rung
    fa = float_above(abs(a))
    while True:
        bits = max(r.prec for r in roots)
        ms = [mpf_sub(mpf_mul_int(r.value._mpf_, a, bits, _RND), from_int(b), bits, _RND) for r in roots]
        errs = [up(fa * float_above(r.err._mpf_)) for r in roots]  # |a| err_i
        ams = [mpf_abs(m, bits, _RND) for m in ms]
        if all(exceeds(am, 256 * e) for am, e in zip(ams, errs)):
            coords = [mpf_log(am, bits, _RND) for am in ams]
            # the largest of 2 e / |m| + 2^-(bits - 8) max(1, |c|) over the coordinates
            err = max(up(up(2 * e / float_below(am))
                         + up(math.ldexp(max(1.0, float_above(mpf_abs(c))), 8 - bits)))
                      for am, e, c in zip(ams, errs, coords))
            return LogVector(*map(mp.make_mpf, coords), err)
        target = next(rungs, None)
        if target is None:
            raise PrecisionExhaustedError(
                f"|{a}*theta-{b}| indistinguishable from 0 at {pol.max_bits} bits")
        sub = PrecisionPolicy(target, pol.max_bits)
        roots = [refine_root(order.f, r.lo, r.hi, sub) for r in roots]


def relative_regulator_with_error(v1: LogVector, v2: LogVector, prec: int):
    """|2x2 minor| of the embedding pair, each step rounded at prec bits,
    plus a float64 error bound. All three coordinate-deletion minors must agree
    (rows sum to ~0); disagreement beyond tolerance is an internal error,
    near-zero determinant means the units are dependent."""
    p, a, b = prec, [x._mpf_ for x in v1.coords], [x._mpf_ for x in v2.coords]
    # the minors deleting coordinate 1, 2 and 3
    minors = [mpf_sub(mpf_mul(a[i], b[j], p, _RND), mpf_mul(a[j], b[i], p, _RND), p, _RND)
              for i, j in ((1, 2), (0, 2), (0, 1))]
    # 10 scale (err1 + err2) + 2^-(p - 12) scale^2, scale = max(1, |x_i|)
    # over both vectors
    scale = max(1.0, *(float_above(mpf_abs(x)) for x in a + b))
    err = up(up(up(10 * scale) * up(v1.err + v2.err)) + up(math.ldexp(up(scale * scale), 12 - p)))
    vals = [mpf_abs(m, p, _RND) for m in minors]
    hi = reduce(lambda m, v: v if mpf_gt(v, m) else m, vals)  # as max() and min() pick
    lo = reduce(lambda m, v: v if mpf_lt(v, m) else m, vals)
    if exceeds(mpf_sub(hi, lo, p, _RND), err):
        raise InternalInconsistencyError(
            f"minors disagree beyond tolerance: {[mp.nstr(mp.make_mpf(v), 12) for v in vals]} (tol {_show(err, 6)})")
    det = vals[2]  # first-two-coordinates minor, per the stated convention
    if not exceeds(det, 8 * err):
        raise DependentUnitsError("regulator determinant below the error floor")
    return mp.make_mpf(det), err


def certify_fundamental(rel_reg, disc: int, rel_reg_err=0, prec: int = 192) -> RegulatorReport:
    """Cusick test: a pair of independent units with relative regulator
    R' satisfying R'/log^2(disc/4) < 1/8 is a fundamental pair. certified
    means the inequality holds with margin 2^-_MARGIN_BITS after pushing
    all numeric error upward; False is inconclusive, never a disproof.
    Every step, the reading of rel_reg included, rounds at max(prec, 64)
    bits. The ratio's error bound is ratio_hi - ratio."""
    if disc <= 16:
        raise OutOfRegimeError(f"certification needs disc > 16, got {disc}")
    q = max(prec, 64)
    rel_reg = mp.mpf(rel_reg, prec=q)
    if not mpf_gt(r := rel_reg._mpf_, fzero):
        raise InvalidParamsError("relative regulator must be positive")
    L = mpf_log(mpf_div(from_int(disc, q, _RND), from_int(4), q, _RND), q, _RND)
    pad = mpf_shift(fone, -(q - 16))
    ratio = mpf_div(r, mpf_pow_int(L, 2, q, _RND), q, _RND)
    den = mpf_pow_int(mpf_mul(L, mpf_sub(fone, pad, q, _RND), q, _RND), 2, q, _RND)
    e = mp.mpf(rel_reg_err, prec=q)._mpf_
    ratio_hi = mpf_mul(mpf_div(mpf_add(r, e, q, _RND), den, q, _RND), mpf_add(pad, fone, q, _RND), q, _RND)
    certified = mpf_lt(ratio_hi, mpf_sub(_EIGHTH._mpf_, mpf_shift(fone, -_MARGIN_BITS), q, _RND))
    # ratio_hi - ratio bounds the error below the ratio too: its mirror
    # (rel_reg - err) / (L (1 + pad))^2 (1 - pad) lies no farther below the
    # ratio, as A + B >= 2 for A = (1 + pad) / (1 - pad)^2 and B = (1 - pad)
    # / (1 + pad)^2, whose product exceeds 1
    return RegulatorReport(rel_reg, mp.make_mpf(ratio), certified, float_above(e),
                           float_above(mpf_sub(ratio_hi, ratio)))


def _backed(x: mp.mpf, err: float, digits: int) -> str:
    # the positive x to n significant digits, the most up to `digits` with
    # 5 rel 10^n <= 2 for its relative error rel = err / x: then err <= 2u/5
    # for the last digit's unit u = 10^(e+1-n), where 10^e <= x < 10^(e+1).
    # mpmath prints within u/2 + u/1000 of x (it rounds twice), so the
    # printed value is within u of the value x stands for
    n, rel = digits, Fraction(err) / mpf_to_fraction(x)
    while n > 1 and 5 * rel * 10 ** n > 2:
        n -= 1
    return mp.nstr(x, n, strip_zeros=False)


def report_to_json(rep: RegulatorReport, digits: int = 40) -> str:
    """The report as JSON, each value to the digits its error bound backs,
    at most `digits`."""
    return json.dumps({
        "rel_reg": _backed(rep.rel_reg, rep.rel_reg_err, digits),
        "cusick_ratio": _backed(rep.cusick_ratio, rep.ratio_err, digits),
        "certified": rep.certified,
        "margin_bits": _MARGIN_BITS,
    })
