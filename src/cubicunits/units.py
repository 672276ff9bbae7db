"""Log embeddings of units, relative regulators, Cusick certification.

The certification side is deliberately one-sided: "certified" must never
be wrong, so the Cusick ratio is compared against 1/8 minus a margin with
all numeric error pushed in the pessimistic direction. "Not certified"
only ever means inconclusive.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import gcd

import mpmath as mp

from .cubics import MonicCubic, discriminant, is_irreducible, is_totally_real, norm_linear_form
from .errors import (
    DependentUnitsError,
    DomainError,
    InternalInconsistencyError,
    InvalidParamsError,
    OutOfRegimeError,
    PrecisionExhaustedError,
)
from .precision import DEFAULT_POLICY, PrecisionPolicy
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


def _round_slack(coords) -> mp.mpf:
    return mp.ldexp(max(1, *(abs(x) for x in coords)), -(mp.mp.prec - 2))


@dataclass(frozen=True)
class LogVector:
    """Point of the trace-zero plane {x1+x2+x3=0}, up to the shared error
    bound err on each coordinate."""

    x1: mp.mpf
    x2: mp.mpf
    x3: mp.mpf
    err: mp.mpf

    def __post_init__(self):
        s = abs(self.x1 + self.x2 + self.x3)
        if s > 3 * self.err and s > mp.ldexp(1, -24) * max(1, abs(self.x1), abs(self.x2), abs(self.x3)):
            raise InvalidParamsError(f"coordinates sum to {mp.nstr(s, 8)}, beyond 3*err={mp.nstr(3 * self.err, 8)}")

    @property
    def coords(self):
        return (self.x1, self.x2, self.x3)

    # mpmath rounds every operation (negation included) to the ambient
    # precision, so each derived vector charges that rounding to err; the
    # bound stays honest even for arithmetic done at low precision.

    def __add__(self, o: "LogVector") -> "LogVector":
        x = (self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3)
        return LogVector(*x, self.err + o.err + _round_slack(x))

    def __sub__(self, o: "LogVector") -> "LogVector":
        x = (self.x1 - o.x1, self.x2 - o.x2, self.x3 - o.x3)
        return LogVector(*x, self.err + o.err + _round_slack(x))

    def __neg__(self) -> "LogVector":
        x = (-self.x1, -self.x2, -self.x3)
        return LogVector(*x, self.err + _round_slack(x))

    def scaled(self, c) -> "LogVector":
        x = (c * self.x1, c * self.x2, c * self.x3)
        return LogVector(*x, abs(c) * self.err + _round_slack(x))

    def norm(self) -> mp.mpf:
        return mp.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)


@dataclass(frozen=True)
class CubicOrderData:
    """A constructed order Z[theta]: defining cubic, validated ascending
    roots, discriminant, the unit parameters that survived the exact norm
    check (with the rejects and why), and two memos of exact data derived
    from them, which no later call can change and no ambient precision
    enters: log_embed's log vectors, keyed by (a, b), and
    masses.embed_order_lattice's lattice embeddings, keyed by the
    precision in bits they were built at."""

    f: MonicCubic
    roots: tuple[IsolatedRoot, IsolatedRoot, IsolatedRoot]
    disc: int
    units: tuple[tuple[int, int], ...]
    dropped: tuple[tuple[tuple[int, int], str], ...]
    policy: PrecisionPolicy
    _logs: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _lattices: dict = field(default_factory=dict, init=False, compare=False, repr=False)


@dataclass(frozen=True)
class RegulatorReport:
    rel_reg: mp.mpf
    cusick_ratio: mp.mpf
    certified: bool

    def __post_init__(self):
        if self.certified and not self.cusick_ratio < mp.mpf(1) / 8:
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
    bound. Escalates root precision if some |a*theta_i - b| is too close
    to zero to take a trustworthy log. No step uses the ambient precision,
    so the order memoises the result, keyed by (a, b)."""
    if (a, b) in order._logs:
        return order._logs[a, b]
    if a == 0 or abs(norm_linear_form(order.f, a, b)) != 1:
        raise InvalidParamsError(f"({a},{b}) is not a verified unit of this order")
    roots = list(order.roots)
    pol = order.policy
    target = pol.target_bits
    while True:
        bits = max(r.prec for r in roots)
        with mp.workprec(bits):
            ms = [a * r.value - b for r in roots]
            errs = [abs(a) * r.err for r in roots]
            if all(m != 0 and abs(m) > 256 * e for m, e in zip(ms, errs)):
                coords = [mp.log(abs(m)) for m in ms]
                err = max(
                    2 * e / abs(m) + mp.ldexp(max(1, abs(c)), -(bits - 8))
                    for m, e, c in zip(ms, errs, coords)
                )
                return order._logs.setdefault((a, b), LogVector(*coords, err))
        if 2 * target > pol.max_bits:
            raise PrecisionExhaustedError(
                f"|{a}*theta-{b}| indistinguishable from 0 at {pol.max_bits} bits")
        target *= 2
        sub = PrecisionPolicy(target, pol.max_bits)
        roots = [refine_root(order.f, r.lo, r.hi, sub) for r in roots]


def relative_regulator_with_error(v1: LogVector, v2: LogVector):
    """|2x2 minor| of the embedding pair, plus an error bound. All three
    coordinate-deletion minors must agree (rows sum to ~0); disagreement
    beyond tolerance is an internal error, near-zero determinant means the
    units are dependent."""
    a = (v1.x1, v1.x2, v1.x3)
    b = (v2.x1, v2.x2, v2.x3)
    minors = [
        a[1] * b[2] - a[2] * b[1],  # delete coordinate 1
        a[0] * b[2] - a[2] * b[0],  # delete coordinate 2
        a[0] * b[1] - a[1] * b[0],  # delete coordinate 3
    ]
    scale = max(1, *(abs(x) for x in a + b))
    err = 10 * scale * (v1.err + v2.err) + mp.ldexp(scale * scale, -(mp.mp.prec - 12))
    vals = [abs(m) for m in minors]
    if max(vals) - min(vals) > err:
        raise InternalInconsistencyError(
            f"minors disagree beyond tolerance: {[mp.nstr(v, 12) for v in vals]} (tol {mp.nstr(err, 6)})")
    det = vals[2]  # first-two-coordinates minor, per the stated convention
    if det <= 8 * err:
        raise DependentUnitsError("regulator determinant below the error floor")
    return det, err


def certify_fundamental(rel_reg, disc: int, rel_reg_err=0, prec: int = 192) -> RegulatorReport:
    """Cusick test: a pair of independent units with relative regulator
    R' satisfying R'/log^2(disc/4) < 1/8 is a fundamental pair. certified
    means the inequality holds with margin 2^-_MARGIN_BITS after pushing
    all numeric error upward; False is inconclusive, never a disproof."""
    if disc <= 16:
        raise OutOfRegimeError(f"certification needs disc > 16, got {disc}")
    rel_reg = mp.mpf(rel_reg)
    if not rel_reg > 0:
        raise InvalidParamsError("relative regulator must be positive")
    with mp.workprec(max(prec, 64)):
        L = mp.log(mp.mpf(disc) / 4)
        pad = mp.ldexp(1, -(mp.mp.prec - 16))
        ratio = rel_reg / L ** 2
        ratio_hi = (rel_reg + mp.mpf(rel_reg_err)) / (L * (1 - pad)) ** 2 * (1 + pad)
        certified = bool(ratio_hi < mp.mpf(1) / 8 - mp.ldexp(1, -_MARGIN_BITS))
        return RegulatorReport(rel_reg, ratio, certified)


def report_to_json(rep: RegulatorReport, digits: int = 40) -> str:
    return json.dumps({
        "rel_reg": mp.nstr(rep.rel_reg, digits, strip_zeros=False),
        "cusick_ratio": mp.nstr(rep.cusick_ratio, digits, strip_zeros=False),
        "certified": rep.certified,
        "margin_bits": _MARGIN_BITS,
    })
