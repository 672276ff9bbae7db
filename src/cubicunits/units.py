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
from math import gcd

import mpmath as mp
from mpmath.libmp import (
    fone, from_float, from_int, fzero, mpf_add, mpf_div, mpf_gt, mpf_log, mpf_lt, mpf_mul, mpf_pow_int,
    mpf_shift, mpf_sub, round_nearest)

from .cubics import MonicCubic, discriminant, is_irreducible, is_totally_real, norm_linear_form
from .errors import (
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    OutOfRegimeError,
    PrecisionExhaustedError,
)
from .precision import (
    DEFAULT_POLICY, PrecisionPolicy, above, aligned, below, dyadic, dyadic_to_mpf, float_above, greater,
    mpf_to_fraction, round_dyadic, round_sum, up)
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

# A log vector is its exact integer image, three ints at one shared
# exponent, and the routines below compute on such images: each rounded
# step is an exact integer product, sum or difference, rounded once by
# precision.round_dyadic (or round_sum) to the precision the caller names,
# which gives the bits mpmath's operator for that step gives at that
# precision (an mpf product or sum of operands of at most p bits is its
# exact value rounded to nearest, ties to even). A value is a dyadic pair
# (m, x) for m 2^x; mpf values are made only for what a caller reads as
# one. A vector of mpf values x1, x2, x3 is LogVector(*dyadic((x1, x2,
# x3)), err), each coordinate read exactly. Only the logs of log_embed and
# certify_fundamental's steps run on libmp's raw tuples. The error bounds
# are float64 upper bounds, each float step rounded outward (precision.up),
# and each test of a value against a bound is exact (precision.greater).
_EIGHTH = mp.mpf(0.125)


def _show(x: float, digits: int) -> str:
    # the float x to digits digits, as mp.nstr prints an mpf
    return mp.nstr(mp.make_mpf(from_float(x)), digits)


@dataclass(frozen=True, repr=False)
class LogVector:
    """Point of the trace-zero plane {x1+x2+x3=0}, up to the shared error
    bound err on each coordinate, held as its exact integer image: the
    coordinates are ints[i] 2^exp. LogVector(ints, exp, err) takes three
    ints at any shared exponent and keeps the canonical image
    precision.dyadic reads (exp the least 2-adic valuation of a nonzero
    coordinate, 0 for the zero vector); err is a float64 at or above the
    coordinates' true error. The vector of mpf, int or float values x1,
    x2, x3 is LogVector(*dyadic((x1, x2, x3)), err).

    x1, x2, x3 and coords are mpf views of the image, made on each read.
    +, -, negation and scaled(c) are exact integer operations on the image
    and round err outward (precision.up), so (v + w).err is at or above
    v.err + w.err. Every vector passes the trace check: the exact
    coordinate sum is within 3 err, or within the exact 2^-24 max(1,
    |x_i|)."""

    ints: tuple[int, int, int]
    exp: int
    err: float

    def __post_init__(self):
        ints, e = self.ints, self.exp
        z = ints[0] | ints[1] | ints[2]  # its lowest set bit is their least one
        if not z:
            e = 0
        elif not z & 1:
            k = (z & -z).bit_length() - 1
            ints, e = [x >> k for x in ints], e + k
        s = abs(ints[0] + ints[1] + ints[2])
        err3 = up(3 * self.err)
        if (s << 24 > max(abs(ints[0]), abs(ints[1]), abs(ints[2])) and greater(s, e + 24, 1.0)
                and greater(s, e, err3)):
            raise InvalidParamsError(
                f"coordinates sum to {mp.nstr(dyadic_to_mpf(s, e), 8)}, beyond 3*err={_show(err3, 8)}")
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "exp", e)

    x1 = property(lambda self: dyadic_to_mpf(self.ints[0], self.exp))
    x2 = property(lambda self: dyadic_to_mpf(self.ints[1], self.exp))
    x3 = property(lambda self: dyadic_to_mpf(self.ints[2], self.exp))
    coords = property(lambda self: tuple(dyadic_to_mpf(n, self.exp) for n in self.ints))

    def __repr__(self) -> str:
        return f"LogVector(x1={self.x1!r}, x2={self.x2!r}, x3={self.x3!r}, err={self.err!r})"

    def __add__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, 1)

    def __sub__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, -1)

    def _combine(self, o, sign: int) -> "LogVector":
        d, err = o.exp - self.exp, up(self.err + o.err)
        if d >= 0:
            return LogVector([x + sign * (y << d) for x, y in zip(self.ints, o.ints)], self.exp, err)
        return LogVector([(x << -d) + sign * y for x, y in zip(self.ints, o.ints)], o.exp, err)

    def __neg__(self) -> "LogVector":
        return LogVector([-x for x in self.ints], self.exp, self.err)

    def scaled(self, c) -> "LogVector":
        (n,), e = dyadic([c])  # c, an int, float or mpf, read exactly
        return LogVector([n * x for x in self.ints], self.exp + e, up(above(abs(n), e) * self.err))


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
    roots, pol, rungs = order.roots, order.policy, None
    fa = above(abs(a))
    while True:
        bits = max(r.prec for r in roots)
        ams, errs = [], []  # |a theta_i - b| as raw tuples, and a bound on each one's error
        for r in roots:
            sign, man, exp, _ = r.value._mpf_
            # a theta_i - b, as mpmath's int * x - b rounds each step
            m, x = round_sum(round_dyadic(-a * man if sign else a * man, exp, bits), (-b, 0), bits)
            e = up(fa * float_above(r.err._mpf_))  # |a| err_i
            if not greater(abs(m), x, 256 * e):
                break
            ams.append((0, abs(m), x, abs(m).bit_length()))
            errs.append(e)
        else:
            coords = [mpf_log(am, bits, round_nearest) for am in ams]
            # the largest of 2 e / |m| + 2^-(bits - 8) max(1, |c|) over the coordinates
            err = max(up(up(2 * e / below(am[1], am[2]))
                         + up(math.ldexp(max(1.0, above(c[1], c[2])), 8 - bits)))
                      for am, e, c in zip(ams, errs, coords))
            return LogVector(*aligned([(-c[1] if c[0] else c[1], c[2]) for c in coords]), err)
        if rungs is None:
            rungs = pol.ladder()
            next(rungs)  # the stored roots' rung
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
    near-zero determinant means the units are dependent. The minors are
    products and differences of the vectors' ints, each rounded once
    (precision.round_dyadic)."""
    p, a, b, e = prec, v1.ints, v2.ints, v1.exp + v2.exp
    # the minors deleting coordinate 1, 2 and 3, in absolute value
    vals = []
    for i, j in ((1, 2), (0, 2), (0, 1)):
        m, x = round_sum(round_dyadic(a[i] * b[j], e, p), round_dyadic(-a[j] * b[i], e, p), p)
        vals.append((abs(m), x))
    # 10 scale (err1 + err2) + 2^-(p - 12) scale^2, scale = max(1, |x_i|)
    # over both vectors
    scale = max(1.0, above(max(map(abs, a)), v1.exp), above(max(map(abs, b)), v2.exp))
    err = up(up(up(10 * scale) * up(v1.err + v2.err)) + up(math.ldexp(up(scale * scale), 12 - p)))
    ints, e = aligned(vals)
    if greater(*round_dyadic(max(ints) - min(ints), e, p), err):
        raise InternalInconsistencyError(
            f"minors disagree beyond tolerance: {[mp.nstr(dyadic_to_mpf(*v), 12) for v in vals]} (tol {_show(err, 6)})")
    det = vals[2]  # first-two-coordinates minor, per the stated convention
    if not greater(*det, 8 * err):
        raise DependentUnitsError("regulator determinant below the error floor")
    return dyadic_to_mpf(*det), err


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
    L = mpf_log(mpf_div(from_int(disc, q, round_nearest), from_int(4), q, round_nearest), q, round_nearest)
    pad = mpf_shift(fone, -(q - 16))
    ratio = mpf_div(r, mpf_pow_int(L, 2, q, round_nearest), q, round_nearest)
    den = mpf_pow_int(mpf_mul(L, mpf_sub(fone, pad, q, round_nearest), q, round_nearest), 2, q, round_nearest)
    e = mp.mpf(rel_reg_err, prec=q)._mpf_
    ratio_hi = mpf_mul(mpf_div(mpf_add(r, e, q, round_nearest), den, q, round_nearest),
                       mpf_add(pad, fone, q, round_nearest), q, round_nearest)
    certified = mpf_lt(ratio_hi, mpf_sub(_EIGHTH._mpf_, mpf_shift(fone, -_MARGIN_BITS), q, round_nearest))
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
