"""Log embeddings of units, relative regulators, Cusick certification.

The certification side is deliberately one-sided: "certified" must never
be wrong, so the Cusick ratio is compared against 1/8 minus a margin with
all numeric error pushed in the pessimistic direction. "Not certified"
only ever means inconclusive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from math import gcd

import mpmath as mp
from mpmath.libmp import (
    fone, from_int, from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_gt, mpf_le, mpf_log, mpf_lt,
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
from .precision import DEFAULT_POLICY, PrecisionPolicy, dyadic
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

# The routines below compute on mpmath's raw tuples: each step is the libmp
# call, precision and rounding that mpmath's operator for it makes (-x and
# abs(x) round, int * x is mpf_mul_int, x ** 2 is mpf_pow_int, a sum()
# rounds its first term), at the precision the caller names, so every bit
# is the operator code's. At precision 0, libmp adds, subtracts and
# multiplies exactly. _RND is mpmath's default rounding, to nearest.
_EIGHTH = mp.mpf(0.125)


def _max1(xs):
    # the first maximal of (1, *xs) under >, as max() picks it, for raw
    # tuples xs; None stands for the int 1
    return reduce(lambda m, x: x if mpf_gt(x, m or fone) else m, xs, None)


@dataclass(frozen=True)
class LogVector:
    """Point of the trace-zero plane {x1+x2+x3=0}, up to the shared error
    bound err on each coordinate. Its arithmetic is exact: +, -, negation
    and scaled(c) round nothing, and add or scale err exactly."""

    x1: mp.mpf
    x2: mp.mpf
    x3: mp.mpf
    err: mp.mpf

    def __post_init__(self):
        # the exact coordinate sum must be within 3 err, or within the
        # exact 2^-24 max(1, |x_i|)
        x = [t._mpf_ for t in self.coords]
        s = mpf_abs(mpf_add(mpf_add(x[0], x[1]), x[2]))
        err3 = mpf_mul(self.err._mpf_, from_int(3))
        if mpf_gt(s, err3) and mpf_gt(s, mpf_shift(_max1([mpf_abs(t) for t in x]) or fone, -24)):
            raise InvalidParamsError(f"coordinates sum to {mp.nstr(mp.make_mpf(s), 8)}, beyond 3*err={mp.nstr(mp.make_mpf(err3), 8)}")

    @property
    def coords(self):
        return (self.x1, self.x2, self.x3)

    def __add__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, mpf_add)

    def __sub__(self, o: "LogVector") -> "LogVector":
        return self._combine(o, mpf_sub)

    def _combine(self, o, op) -> "LogVector":
        x = [op(s._mpf_, t._mpf_) for s, t in zip(self.coords, o.coords)]
        return _vector(x, mpf_add(self.err._mpf_, o.err._mpf_))

    def __neg__(self) -> "LogVector":
        return _vector([mpf_neg(s._mpf_) for s in self.coords], self.err._mpf_)

    def scaled(self, c) -> "LogVector":
        (n,), e = dyadic([c])  # c, an int, float or mpf, read exactly
        c = from_man_exp(n, e)
        return _vector([mpf_mul(c, s._mpf_) for s in self.coords], mpf_mul(mpf_abs(c), self.err._mpf_))


def _vector(x, err) -> LogVector:
    # the vector with raw coordinates x and raw error err
    return LogVector(*map(mp.make_mpf, x), mp.make_mpf(err))


@dataclass(frozen=True)
class CubicOrderData:
    """A constructed order Z[theta]: defining cubic, validated ascending
    roots, discriminant, the unit parameters that survived the exact norm
    check (with the rejects and why), and two memos of data derived from
    them, which no later call can change: log_embed's log vectors, keyed
    by (a, b), and the simplex of the first two units' log vectors
    (masses._order_simplex), keyed by the width it was made at, the rows'
    ROW_BITS. The lattice embedding is built once per mass call and is not
    kept."""

    f: MonicCubic
    roots: tuple[IsolatedRoot, IsolatedRoot, IsolatedRoot]
    disc: int
    units: tuple[tuple[int, int], ...]
    dropped: tuple[tuple[tuple[int, int], str], ...]
    policy: PrecisionPolicy
    _logs: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _simplex: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RegulatorReport:
    rel_reg: mp.mpf
    cusick_ratio: mp.mpf
    certified: bool

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
    roots' bits, so the order memoises the result, keyed by (a, b)."""
    if (a, b) in order._logs:
        return order._logs[a, b]
    if a == 0 or abs(norm_linear_form(order.f, a, b)) != 1:
        raise InvalidParamsError(f"({a},{b}) is not a verified unit of this order")
    roots = list(order.roots)
    pol = order.policy
    rungs = pol.ladder()
    next(rungs)  # the stored roots' rung
    while True:
        bits = max(r.prec for r in roots)
        ms = [mpf_sub(mpf_mul_int(r.value._mpf_, a, bits, _RND), from_int(b), bits, _RND) for r in roots]
        errs = [mpf_mul_int(r.err._mpf_, abs(a), bits, _RND) for r in roots]
        ams = [mpf_abs(m, bits, _RND) for m in ms]
        if all(m != fzero and mpf_gt(am, mpf_mul_int(e, 256, bits, _RND)) for m, am, e in zip(ms, ams, errs)):
            coords = [mpf_log(am, bits, _RND) for am in ams]
            # 2 e / |m| + 2^-(bits - 8) max(1, |c|) per coordinate, and the first maximal
            terms = [mpf_add(mpf_div(mpf_mul_int(e, 2, bits, _RND), am, bits, _RND),
                             mpf_shift(_max1([mpf_abs(c, bits, _RND)]) or fone, -(bits - 8)), bits, _RND)
                     for am, e, c in zip(ams, errs, coords)]
            err = reduce(lambda m, t: t if mpf_gt(t, m) else m, terms)
            return order._logs.setdefault((a, b), LogVector(*map(mp.make_mpf, coords), mp.make_mpf(err)))
        target = next(rungs, None)
        if target is None:
            raise PrecisionExhaustedError(
                f"|{a}*theta-{b}| indistinguishable from 0 at {pol.max_bits} bits")
        sub = PrecisionPolicy(target, pol.max_bits)
        roots = [refine_root(order.f, r.lo, r.hi, sub) for r in roots]


def relative_regulator_with_error(v1: LogVector, v2: LogVector, prec: int):
    """|2x2 minor| of the embedding pair, plus an error bound, each step
    rounded at prec bits. All three coordinate-deletion minors must agree
    (rows sum to ~0); disagreement beyond tolerance is an internal error,
    near-zero determinant means the units are dependent."""
    p, a, b = prec, [x._mpf_ for x in v1.coords], [x._mpf_ for x in v2.coords]
    # the minors deleting coordinate 1, 2 and 3
    minors = [mpf_sub(mpf_mul(a[i], b[j], p, _RND), mpf_mul(a[j], b[i], p, _RND), p, _RND)
              for i, j in ((1, 2), (0, 2), (0, 1))]
    scale = _max1([mpf_abs(x, p, _RND) for x in a + b])
    # 10 * scale is the int 10 when scale is the int 1
    ten = from_int(10) if scale is None else mpf_mul_int(scale, 10, p, _RND)
    err = mpf_add(mpf_mul(ten, mpf_add(v1.err._mpf_, v2.err._mpf_, p, _RND), p, _RND),
                  mpf_shift(mpf_mul(scale, scale, p, _RND) if scale else fone, -(p - 12)), p, _RND)
    vals = [mpf_abs(m, p, _RND) for m in minors]
    hi = reduce(lambda m, v: v if mpf_gt(v, m) else m, vals)  # as max() and min() pick
    lo = reduce(lambda m, v: v if mpf_lt(v, m) else m, vals)
    if mpf_gt(mpf_sub(hi, lo, p, _RND), err):
        raise InternalInconsistencyError(
            f"minors disagree beyond tolerance: {[mp.nstr(mp.make_mpf(v), 12) for v in vals]} (tol {mp.nstr(mp.make_mpf(err), 6)})")
    det = vals[2]  # first-two-coordinates minor, per the stated convention
    if mpf_le(det, mpf_mul_int(err, 8, p, _RND)):
        raise DependentUnitsError("regulator determinant below the error floor")
    return mp.make_mpf(det), mp.make_mpf(err)


def certify_fundamental(rel_reg, disc: int, rel_reg_err=0, prec: int = 192) -> RegulatorReport:
    """Cusick test: a pair of independent units with relative regulator
    R' satisfying R'/log^2(disc/4) < 1/8 is a fundamental pair. certified
    means the inequality holds with margin 2^-_MARGIN_BITS after pushing
    all numeric error upward; False is inconclusive, never a disproof.
    Every step, the reading of rel_reg included, rounds at max(prec, 64)
    bits."""
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
    ratio_hi = mpf_mul(mpf_div(mpf_add(r, mp.mpf(rel_reg_err, prec=q)._mpf_, q, _RND), den, q, _RND),
                       mpf_add(pad, fone, q, _RND), q, _RND)
    certified = mpf_lt(ratio_hi, mpf_sub(_EIGHTH._mpf_, mpf_shift(fone, -_MARGIN_BITS), q, _RND))
    return RegulatorReport(rel_reg, mp.make_mpf(ratio), certified)


def report_to_json(rep: RegulatorReport, digits: int = 40) -> str:
    return json.dumps({
        "rel_reg": mp.nstr(rep.rel_reg, digits, strip_zeros=False),
        "cusick_ratio": mp.nstr(rep.cusick_ratio, digits, strip_zeros=False),
        "certified": rep.certified,
        "margin_bits": _MARGIN_BITS,
    })
