"""Closed-form families of totally real cubics with designed units.

Two constructions: the one-parameter-pair family (one designed unit
a*theta - b besides theta itself) and the four-parameter family with two
designed units a*theta - b and c*theta - d. Admissibility is a pair of
cubic congruences in each case; the builders verify their own output by
exact scaled evaluation, so a silently wrong closed form cannot escape.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import gcd

from .cubics import MonicCubic, eval_scaled, poly_from_json
from .errors import InternalInconsistencyError, InvalidParamsError

__all__ = [
    "OneUnitParams",
    "TwoUnitParams",
    "is_mutually_cubic_pair",
    "is_admissible_one_unit",
    "is_admissible_two_unit",
    "build_one_unit",
    "build_two_unit",
    "extend_seed",
    "recipe_pairs",
    "simplest_cubic",
    "family_from_json",
]


def _check_sign(name, v):
    if v not in (1, -1):
        raise InvalidParamsError(f"{name} must be +1 or -1, got {v}")


@dataclass(frozen=True)
class OneUnitParams:
    a: int
    b: int
    eps1: int = 1
    eps2: int = 1

    def __post_init__(self):
        if self.a == 0 or self.b == 0:
            raise InvalidParamsError("a and b must be nonzero")
        if gcd(self.a, self.b) != 1:
            raise InvalidParamsError(f"gcd(a,b) must be 1, got gcd({self.a},{self.b})={gcd(self.a, self.b)}")
        _check_sign("eps1", self.eps1)
        _check_sign("eps2", self.eps2)


@dataclass(frozen=True)
class TwoUnitParams:
    a: int
    b: int
    c: int
    d: int
    eps1: int = 1
    eps2: int = 1

    def __post_init__(self):
        if 0 in (self.a, self.b, self.c, self.d):
            raise InvalidParamsError("a,b,c,d must all be nonzero")
        if self.a * self.d - self.b * self.c not in (1, -1):
            raise InvalidParamsError(f"ad-bc must be +-1, got {self.a * self.d - self.b * self.c}")
        _check_sign("eps1", self.eps1)
        _check_sign("eps2", self.eps2)

    @property
    def eps(self) -> int:
        return self.a * self.d - self.b * self.c


def _cong(x: int, r: int, m: int) -> bool:
    """x == r modulo m, with modulus 0 meaning exact equality."""
    if m == 0:
        return x == r
    return (x - r) % m == 0


def is_mutually_cubic_pair(a: int, b: int) -> bool:
    """a^3 == 1 (mod b) and b^3 == 1 (mod a); modulus 0 = exact equality."""
    return _cong(a ** 3, 1, b) and _cong(b ** 3, 1, a)


def is_admissible_one_unit(p: OneUnitParams) -> bool:
    return _cong(p.a ** 3, p.eps1 * p.eps2, p.b) and _cong(p.b ** 3, p.eps1, p.a)


def is_admissible_two_unit(p: TwoUnitParams) -> bool:
    return _cong(p.b ** 3, p.eps1, p.a) and _cong(p.d ** 3, p.eps2, p.c)


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r != 0:
        raise InternalInconsistencyError(f"inexact division in {what}: {num}/{den}")
    return q


def build_one_unit(p: OneUnitParams, t: int) -> MonicCubic:
    """Cubic with constant term eps2 and a^3 f(b/a) = eps1, for any t.

    The t direction perturbs by t*x*(a*x - b), so the designed evaluations
    are t-independent. Divisions are exact precisely when p is admissible.
    """
    if not is_admissible_one_unit(p):
        raise InvalidParamsError(f"inadmissible one-unit params {p}")
    a, b, e1, e2 = p.a, p.b, p.eps1, p.eps2
    k = a ** 3 - e1 * e2
    P = _exact_div(e1 * k * k - b ** 3, a * b * b, "build_one_unit P") + t * a
    Q = _exact_div(-e1 * a * k, b, "build_one_unit Q") - t * b
    f = MonicCubic(P, Q, e2)
    if eval_scaled(f, b, a) != e1 or f.p0 != e2:
        raise InternalInconsistencyError(f"one-unit postcondition failed for {p}, t={t}")
    return f


def build_two_unit(p: TwoUnitParams, t: int) -> MonicCubic:
    """Cubic with a^3 f(b/a) = eps1 and c^3 f(d/c) = eps2, for any t.

    The constant term is forced; the two remaining coefficients solve a
    2x2 integer linear system with determinant -(ad-bc) = -+1, solved
    exactly here rather than via a transcribed closed form.
    """
    if not is_admissible_two_unit(p):
        raise InvalidParamsError(f"inadmissible two-unit params {p}")
    a, b, c, d, e1, e2 = p.a, p.b, p.c, p.d, p.eps1, p.eps2
    eps = p.eps
    R = eps * e1 * d ** 3 - eps * e2 * b ** 3 + t * b * d
    u = _exact_div(e1 - b ** 3 - R * a ** 3, a * b, "build_two_unit u")
    v = _exact_div(e2 - d ** 3 - R * c ** 3, c * d, "build_two_unit v")
    # [[b, a], [d, c]] @ (P, Q) = (u, v); det = bc - ad = -eps.
    P = eps * (a * v - c * u)
    Q = eps * (d * u - b * v)
    f = MonicCubic(P, Q, R)
    if eval_scaled(f, b, a) != e1 or eval_scaled(f, d, c) != e2:
        raise InternalInconsistencyError(f"two-unit postcondition failed for {p}, t={t}")
    return f


def extend_seed(h: MonicCubic, a: int, b: int, c: int, d: int, t: int) -> MonicCubic:
    """h + t*(a*x - b)*(c*x - d): the degree-2 perturbation all the families
    live inside. Requires gcd(a,b)=gcd(c,d)=1 and ad-bc != 0."""
    if gcd(a, b) != 1 or gcd(c, d) != 1:
        raise InvalidParamsError("extend_seed needs gcd(a,b)=gcd(c,d)=1")
    if a * d - b * c == 0:
        raise InvalidParamsError("extend_seed needs ad-bc != 0 (proportional factors)")
    return MonicCubic(h.p2 + t * a * c, h.p1 - t * (a * d + b * c), h.p0 + t * b * d)


RECIPE_KINDS = ("one_b", "b2b1", "one_minus_b", "square_cube")


def recipe_pairs(kind: str, param: int) -> tuple[int, int]:
    """Stock mutually-cubic-root pairs: (1,b), (b^2+b+1,b), (1-b,b), (r^2,r^3+1)."""
    if kind == "one_b":
        pair = (1, param)
    elif kind == "b2b1":
        pair = (param * param + param + 1, param)
    elif kind == "one_minus_b":
        pair = (1 - param, param)
    elif kind == "square_cube":
        pair = (param * param, param ** 3 + 1)
    else:
        raise InvalidParamsError(f"unknown recipe kind {kind!r}; expected one of {RECIPE_KINDS}")
    if 0 in pair:
        raise InvalidParamsError(f"recipe {kind}({param}) degenerates to {pair}")
    if not is_mutually_cubic_pair(*pair):
        raise InternalInconsistencyError(f"recipe {kind}({param}) -> {pair} fails the congruences")
    return pair


def simplest_cubic(t: int) -> MonicCubic:
    """x^3 - t x^2 - (t+3) x - 1. Roots are units; so are their translates
    by 1. Realized as the seed x^3-3x-1 perturbed by -t*x*(x+1)."""
    f = extend_seed(MonicCubic(0, -3, -1), 1, 0, 1, -1, -t)
    assert f == MonicCubic(-t, -(t + 3), -1)
    return f


# ---------------------------------------------------------------------------
# Family descriptors: {"kind": ..., params..., "t": "..."} with decimal
# strings for anything that can be astronomically large.
# ---------------------------------------------------------------------------


def family_from_json(s: str | dict):
    """Returns (params_or_seed_tuple, t, built MonicCubic)."""
    d = json.loads(s) if isinstance(s, str) else s
    kind = d.get("kind")
    t = int(d["t"])
    if kind == "one_unit":
        p = OneUnitParams(int(d["a"]), int(d["b"]),
                          int(d.get("eps1", 1)), int(d.get("eps2", 1)))
        return p, t, build_one_unit(p, t)
    if kind == "two_unit":
        p = TwoUnitParams(int(d["a"]), int(d["b"]), int(d["c"]), int(d["d"]),
                          int(d.get("eps1", 1)), int(d.get("eps2", 1)))
        return p, t, build_two_unit(p, t)
    if kind == "seed":
        h = poly_from_json(d["h"])
        abcd = (int(d["a"]), int(d["b"]), int(d["c"]), int(d["d"]))
        return (h, abcd), t, extend_seed(h, *abcd, t)
    raise InvalidParamsError(f"unknown family kind {kind!r}")
