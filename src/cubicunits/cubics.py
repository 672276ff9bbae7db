"""Exact integer arithmetic on monic cubics.

Everything in this module is exact: big integers and Fractions only, no
floating point. Irreducibility and root isolation both reduce to the
sign of an integer, a^3 f(b/a) (`eval_scaled`, the one exact evaluator
here and in `roots`), at rational points chosen from the critical points
of f; the isolating intervals are cut at those points in closed form,
with no bisection, and the integer-root search runs false position on
the monotone runs between them. The numeric side (isolated root
refinement, logs, shapes) lives elsewhere and consumes these polynomials.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import InvalidParamsError

__all__ = [
    "MonicCubic",
    "eval_scaled",
    "norm_linear_form",
    "discriminant",
    "is_totally_real",
    "is_irreducible",
    "scale_root",
    "poly_from_json",
    "isolating_intervals",
]


@dataclass(frozen=True)
class MonicCubic:
    """x^3 + p2*x^2 + p1*x + p0 with exact integer coefficients."""

    p2: int
    p1: int
    p0: int

    # Verdicts kept in the instance's __dict__, outside the fields (so
    # outside equality, hashing and repr): a member its caller validated is
    # not tested again by build_order or refined_roots.
    _real = cached_property(lambda f: discriminant(f) > 0)
    _irreducible = cached_property(lambda f: _no_int_root(f))

    def __post_init__(self):
        for name in ("p2", "p1", "p0"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidParamsError(f"coefficient {name} must be an int, got {type(v).__name__}")

    def __call__(self, x):
        # Horner; works for int, Fraction, mpf, anything with ring ops.
        return ((x + self.p2) * x + self.p1) * x + self.p0

    def __str__(self):
        def term(c, mon):
            if c == 0:
                return ""
            s = "+" if c > 0 else "-"
            a = abs(c)
            body = mon if (a == 1 and mon) else (f"{a}{mon}" if mon else f"{a}")
            return f" {s} {body}"

        return ("x^3" + term(self.p2, "x^2") + term(self.p1, "x") + term(self.p0, "")).strip()


def eval_scaled(f: MonicCubic, b: int, a: int) -> int:
    """a^3 * f(b/a), exactly, as an integer, in Horner form.

    This is the quantity whose value +-1 decides whether a*theta - b is a
    unit of Z[theta] (up to sign, see norm_linear_form).
    """
    if a == 0:
        raise InvalidParamsError("eval_scaled requires a != 0")
    aa = a * a
    return ((b + f.p2 * a) * b + f.p1 * aa) * b + f.p0 * aa * a


def norm_linear_form(f: MonicCubic, a: int, b: int) -> int:
    """N(a*theta - b) = -a^3 f(b/a) for theta a root of the irreducible f.

    Caller is responsible for irreducibility; the formula itself is just
    the resultant identity and always returns the exact integer.
    """
    return -eval_scaled(f, b, a)


def discriminant(f: MonicCubic) -> int:
    """prod_{i<j} (theta_i - theta_j)^2 via the closed coefficient formula.

    Cross-validated in the test suite against a Sylvester-resultant oracle
    and against root products.
    """
    p2, p1, p0 = f.p2, f.p1, f.p0
    return (
        18 * p2 * p1 * p0
        - 4 * p2 ** 3 * p0
        + p2 ** 2 * p1 ** 2
        - 4 * p1 ** 3
        - 27 * p0 ** 2
    )


def is_totally_real(f: MonicCubic) -> bool:
    """True iff f has three distinct real roots (positive discriminant)."""
    return f._real


def scale_root(f: MonicCubic, n: int) -> MonicCubic:
    """The monic cubic whose roots are n * (roots of f): n^3 f(x/n)."""
    if n == 0:
        raise InvalidParamsError("scale_root requires n != 0")
    return MonicCubic(n * f.p2, n * n * f.p1, n * n * n * f.p0)


# ---------------------------------------------------------------------------
# Exact real-root isolation and irreducibility, on integer signs only.
#
# f' has the critical points c1 < c2 = (-p2 -+ sqrt(D))/3, D = p2^2 - 3p1.
# Between and beyond them f is monotone, which is all the irreducibility
# test needs. The isolation needs no search either: rationals near c1 and
# c2 separate three simple roots, and repeated roots are integers with
# closed forms.
# ---------------------------------------------------------------------------


def sign_at(f: MonicCubic, q: Fraction) -> int:
    """Sign of f(q), exactly. Fraction keeps den > 0, so this is the sign
    of den^3 f(q) = eval_scaled(f, num, den)."""
    v = eval_scaled(f, q.numerator, q.denominator)
    return (v > 0) - (v < 0)


def _root_bound(f: MonicCubic) -> int:
    # Cauchy: every real root has |x| < 1 + max|coeff|.
    return 1 + max(abs(f.p2), abs(f.p1), abs(f.p0))


def _separators(f: MonicCubic, D: int) -> tuple[tuple[Fraction, int], tuple[Fraction, int]]:
    """For disc > 0: rationals q1 <= -p2/3 <= q2 with f(q1) > 0 > f(q2),
    each with eval_scaled of f at it (its den^3 f(q)).

    -p2/3 is the mean of the roots r1 < r2 < r3, so q1 < r3 and q2 > r1;
    the signs then force r1 < q1 < r2 < q2 < r3. The q_i are the critical
    points with sqrt(D) rounded down at scale 2^k, and they converge to
    c1 and c2, where f(c1) > 0 > f(c2), so raising k ends the search.
    """
    k = 0
    while True:
        s = isqrt(D << (2 * k))  # floor(2^k sqrt(D))
        q1 = Fraction((-f.p2 << k) - s, 3 << k)
        v1 = eval_scaled(f, q1.numerator, q1.denominator)
        if v1 > 0:
            q2 = Fraction((-f.p2 << k) + s, 3 << k)
            v2 = eval_scaled(f, q2.numerator, q2.denominator)
            if v2 < 0:
                return (q1, v1), (q2, v2)
        k = 2 * k + 1


def _isolating_ends(f: MonicCubic) -> tuple[tuple[Fraction, int | None], ...]:
    """The ends of isolating_intervals, ascending, each with eval_scaled of
    f at it (den^3 f(end), over the end's own reduced denominator) where
    the cuts' search evaluated it, at the separators, and None elsewhere."""
    B = Fraction(_root_bound(f))
    disc = discriminant(f)
    D = f.p2 * f.p2 - 3 * f.p1
    if disc > 0:
        cuts = _separators(f, D)
    elif disc == 0 and D:
        # (x - a)^2 (x - b): D = (a - b)^2 and 9p0 - p1p2 = 2a(a - b)^2
        a = (9 * f.p0 - f.p1 * f.p2) // (2 * D)
        cuts = ((Fraction(-f.p2 - a, 2), None),)  # (a + b)/2, as b = -p2 - 2a
    else:  # one simple real root, or (x - r)^3 when disc = D = 0
        cuts = ()
    return ((-B, None), *cuts, (B, None))


def isolating_intervals(f: MonicCubic) -> list[tuple[Fraction, Fraction]]:
    """Half-open intervals (lo, hi], ascending, each containing exactly one
    distinct real root of f. Exact; handles any cubic (1 or 3 real roots,
    even with repeated roots, which are counted once).

    No search: (-B, B], B the Cauchy bound, is cut at the separators
    q1 < q2 when disc > 0, at the midpoint of the two integer roots when
    one of them is double, and nowhere when f has one distinct real root.
    f is nonzero at every end, with a strict sign change when disc > 0."""
    ends = [x for x, _ in _isolating_ends(f)]
    return list(zip(ends, ends[1:]))


def _has_int_root(f: MonicCubic, lo: int, hi: int, d: int) -> bool:
    """Whether f has a root in the integers lo..hi, where d*f is increasing.

    Exact false position on g = d*f: the secant through the ends, rounded
    to the nearest integer strictly inside, is the next point. A secant
    step that keeps more than half the run is followed by one bisection
    step, so an end that sticks cannot make the search cost more than
    about twice bisection's.
    """
    if lo > hi:
        return False
    glo = d * eval_scaled(f, lo, 1)
    if glo >= 0:
        return glo == 0
    ghi = d * eval_scaled(f, hi, 1)
    if ghi <= 0:
        return ghi == 0
    bisect = False
    while hi - lo > 1:
        if bisect:
            k = (lo + hi) // 2
        else:  # nearest integer to lo - glo (hi - lo)/(ghi - glo)
            den = ghi - glo
            k = lo + (-2 * glo * (hi - lo) + den) // (2 * den)
            k = min(max(k, lo + 1), hi - 1)
        g = d * eval_scaled(f, k, 1)
        if g == 0:
            return True
        width = hi - lo
        if g < 0:
            lo, glo = k, g
        else:
            hi, ghi = k, g
        bisect = not bisect and 2 * (hi - lo) > width
    return False


def is_irreducible(f: MonicCubic) -> bool:
    """Irreducible over Q iff the monic cubic has no integer root.

    The integers split into at most three runs on which f is monotone,
    cut at integer brackets of the critical points; each run is searched
    by exact false position on f(k) (`_has_int_root`). No divisor
    enumeration of p0.
    """
    return f._irreducible


def _no_int_root(f: MonicCubic) -> bool:
    if f.p0 == 0:
        return False
    B = _root_bound(f)
    D = f.p2 * f.p2 - 3 * f.p1
    if D <= 0:  # f' = 3(x + p2/3)^2 - D/3 >= 0: f increases everywhere
        return not _has_int_root(f, -B, B, 1)
    s = isqrt(D)  # s <= sqrt(D) < s + 1
    # b1 = ceil((-p2 - s)/3) >= c1 with b1 - 1 < c1, and
    # a2 = floor((-p2 + s)/3) <= c2 with a2 + 1 > c2.
    b1 = -((f.p2 + s) // 3)
    a2 = (s - f.p2) // 3
    return not (_has_int_root(f, -B, b1 - 1, 1)
                or _has_int_root(f, b1, a2, -1)
                or _has_int_root(f, a2 + 1, B, 1))


# ---------------------------------------------------------------------------
# Parsing: {"p2": "...", "p1": "...", "p0": "..."} decimal strings.
# ---------------------------------------------------------------------------


def poly_from_json(s: str | dict) -> MonicCubic:
    d = json.loads(s) if isinstance(s, str) else s
    try:
        return MonicCubic(int(d["p2"]), int(d["p1"]), int(d["p0"]))
    except (KeyError, ValueError) as e:
        raise InvalidParamsError(f"bad polynomial JSON: {e}") from e
