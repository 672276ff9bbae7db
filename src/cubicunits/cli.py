"""Command-line front end: family scans, curve emission, orbit dumps,
one-off certification, mass profiles, and a doubled-precision re-audit.

scan-family, mass-profile, verify and certify format one lazily staged
member pipeline, `_Member`, reading its stages in column order: a command
never computes, or fails in, a stage it does not print, and the first
stage that fails names the row's status.

Output contract: CSV with a header row, '.' decimal separator, LF line
endings, and byte-identical bytes for identical inputs (worker pools only
ever reorder computation, never output). Exit codes: 0 success, 2 config
error, 3 numeric-capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import mpmath as mp

from . import families, masses, ratios, shapes, units
from .cubics import is_irreducible, is_totally_real, poly_from_json
from .errors import (
    CubicUnitsError,
    InvalidParamsError,
    OrbitCapError,
    PrecisionExhaustedError,
)
from .precision import ROW_BITS, PrecisionPolicy, mpf_to_fraction

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CAPACITY = 3

T_CAPACITY = 10 ** 24  # schedule endpoints beyond this are a capacity error

_CONFIG_KEYS = {
    "family", "schedule", "precision_bits", "samples", "h", "out", "jobs",
    "tight_r_cap",
}


class ConfigError(Exception):
    pass


@dataclass
class ScanConfig:
    family_json: str
    schedule: list[int]
    precision_bits: int = 192
    samples: int = 10000
    heights: list[str] = field(default_factory=lambda: ["10"])
    out: str | None = None
    jobs: int = 1
    tight_r_cap: str = "2"  # the R in the (R, r)-tightness report


def _fmt(x, prec: int = ROW_BITS) -> str:
    # 17 digits of x rounded to prec bits
    return mp.nstr(mp.mpf(x, prec=prec), 17)


def _fmt_frac(q: Fraction) -> str:
    return f"{q.numerator / q.denominator:.10f}"


def _bool(b: bool) -> str:
    return "true" if b else "false"


def parse_schedule(text: str) -> list[int]:
    """arith:start:stop:step | geom:start:stop:ratio | list:v1,v2,...
    Inclusive endpoints, integer values only."""
    parts = text.split(":")
    try:
        if parts[0] == "arith" and len(parts) == 4:
            a, b, d = int(parts[1]), int(parts[2]), int(parts[3])
            if d == 0 or (b - a) * d < 0:
                raise ConfigError(f"bad arithmetic schedule {text!r}")
            out = list(range(a, b + (1 if d > 0 else -1), d))
        elif parts[0] == "geom" and len(parts) == 4:
            a, b, q = int(parts[1]), int(parts[2]), int(parts[3])
            # the values keep start's sign, so a stop of the other sign is never reached
            if a == 0 or q < 2 or abs(b) < abs(a) or (a < 0) != (b < 0):
                raise ConfigError(f"bad geometric schedule {text!r}")
            out, v = [], a
            while abs(v) <= abs(b):
                out.append(v)
                v *= q
        elif parts[0] == "list" and len(parts) == 2:
            out = [int(v) for v in parts[1].split(",") if v.strip()]
        else:
            raise ConfigError(f"unrecognized schedule {text!r}")
    except ValueError as e:
        raise ConfigError(f"non-integer in schedule {text!r}: {e}") from e
    if not out:
        raise ConfigError(f"empty t-schedule {text!r}")
    if any(abs(t) > T_CAPACITY for t in out):
        raise OrbitCapError(f"schedule endpoint beyond capacity {T_CAPACITY}")
    return out


def read_config(path: str) -> dict:
    """Flat key=value lines; '#' comments; keys are case-insensitive."""
    cfg = {}
    try:
        with open(path, encoding="ascii") as fh:
            for ln, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{ln}: expected key=value")
                key, val = line.split("=", 1)
                key = key.strip().lower()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
                cfg[key] = val.strip()
    except (OSError, UnicodeDecodeError) as e:  # a non-ASCII byte fails the decode
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return cfg


def _check_bits(bits: int) -> int:
    if bits < 64 or bits > 1 << 20:
        raise ConfigError(f"precision_bits {bits} out of range [64, 2^20]")
    return bits


def build_scan_config(args) -> ScanConfig:
    cfg = read_config(args.config) if args.config else {}
    family = args.family or cfg.get("family")
    schedule = args.schedule or cfg.get("schedule")
    if not family:
        raise ConfigError("no family descriptor (flag --family or config family=)")
    if not schedule:
        raise ConfigError("no t-schedule (flag --schedule or config schedule=)")
    try:
        json.loads(family)
    except json.JSONDecodeError as e:
        raise ConfigError(f"family descriptor is not valid JSON: {e}") from e

    def flag_or_config(flag, key: str, default):
        # an explicit 0 is a value to range-check, not a missing flag
        return flag if flag is not None else cfg.get(key, default)

    try:
        bits = int(flag_or_config(args.precision_bits, "precision_bits", 192))
        samples = int(flag_or_config(args.samples, "samples", 10000))
        jobs = int(flag_or_config(args.jobs, "jobs", 1))
    except ValueError as e:
        raise ConfigError(f"bad integer option: {e}") from e
    heights = list(args.heights or [])
    if not heights and "h" in cfg:
        heights = [h.strip() for h in cfg["h"].split(",") if h.strip()]
    if not heights:
        heights = ["10"]
    for h in heights:
        try:
            if not float(h) > 1:  # NaN fails this too
                raise ConfigError(f"height threshold must exceed 1, got {h}")
        except ValueError as e:
            raise ConfigError(f"bad height {h!r}") from e
    r_cap = args.tight_r_cap or cfg.get("tight_r_cap", "2")
    try:
        if not mp.mpf(r_cap, prec=ROW_BITS) >= 1:  # parsed as the tight_r column parses it
            raise ConfigError(f"tight_r_cap must be at least 1, got {r_cap}")
    except ValueError as e:
        raise ConfigError(f"bad tight_r_cap {r_cap!r}") from e
    _check_bits(bits)
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    ts = parse_schedule(schedule)
    try:  # a malformed descriptor fails the same way at every t
        _Member.of_family(family, ts[0], bits)
    except CubicUnitsError:
        pass  # a numeric failure at one t is that row's status
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"bad family descriptor: {e!r}") from e
    return ScanConfig(family, ts, bits, samples, heights,
                      args.out or cfg.get("out"), jobs, r_cap)


def _candidate_units(params_or_seed) -> list[tuple[int, int]]:
    if isinstance(params_or_seed, families.OneUnitParams):
        # theta itself is a unit: the constant coefficient is +-1 by
        # construction, so the pair (designed unit, theta) drives the
        # rank-2 pipeline
        return [(params_or_seed.a, params_or_seed.b), (1, 0)]
    if isinstance(params_or_seed, families.TwoUnitParams):
        return [(params_or_seed.a, params_or_seed.b),
                (params_or_seed.c, params_or_seed.d)]
    # seed kind (h, (a, b, c, d)): the linear factors (ax-b), (cx-d)
    # evaluate identically on the seed and on every extension, so they are
    # the natural candidates
    _, (a, b, c, d) = params_or_seed
    return [(a, b), (c, d)]


class _Member:
    """One family member's pipeline; each stage below is computed on first
    read and kept."""

    def __init__(self, f, candidate_units, bits: int):
        self.f = f
        self.candidates = candidate_units
        self.bits = bits

    @classmethod
    def of_family(cls, family_json: str, t: int, bits: int) -> "_Member":
        d = json.loads(family_json)
        d["t"] = str(t)
        params, _, f = families.family_from_json(d)
        return cls(f, _candidate_units(params), bits)

    @cached_property
    def order(self) -> units.CubicOrderData:
        pol = PrecisionPolicy(self.bits, max(4 * self.bits, 4096))
        return units.build_order(self.f, self.candidates, pol)

    @cached_property
    def logs(self) -> tuple[units.LogVector, units.LogVector]:
        """Log vectors of the first two verified units."""
        if len(self.order.units) < 2:
            raise InvalidParamsError("the member has fewer than two verified units")
        return tuple(units.log_embed(self.order, a, b) for a, b in self.order.units[:2])

    @cached_property
    def certificate(self) -> tuple[mp.mpf, units.RegulatorReport]:
        reg, err = units.relative_regulator_with_error(*self.logs, ROW_BITS)
        return reg, units.certify_fundamental(reg, self.order.disc, err, prec=self.bits)

    @cached_property
    def shape(self) -> shapes.ShapePoint:
        return shapes.shape_from_units(*self.logs, self.bits)

    @cached_property
    def ht(self) -> mp.mpf:
        return masses.lattice_height(masses.embed_order_lattice(self.order), self.bits)

    @cached_property
    def phi(self) -> masses.SimplexSet:
        return masses._order_simplex(self.order, *self.logs)


def _scan_row(payload) -> str:
    """One scan-family CSV row; never raises on per-t numeric failures."""
    family_json, t, bits, samples, heights, with_mass = payload
    ncols = 16 + (len(heights) if with_mass else 0)
    try:
        m = _Member.of_family(family_json, t, bits)
        f = m.f
        red = is_irreducible(f) and is_totally_real(f)
        cells = [str(t), "ok" if red else "reducible_or_complex",
                 str(f.p2), str(f.p1), str(f.p0), _bool(red)]
        if red:
            cells += [str(m.order.disc), f"{len(m.order.units)}/{len(m.candidates)}"]
        if red and len(m.order.units) >= 2:
            reg, rep = m.certificate
            cells += [_fmt(reg), _fmt(rep.cusick_ratio), _bool(rep.certified)]
            sp = m.shape
            cells += [_fmt(sp.tau.real), _fmt(sp.tau.imag), _bool(sp.reduced)]
            cells += [_fmt(m.ht), _fmt(masses.hex_domain(m.phi, ROW_BITS).ceiling)]
            if with_mass:
                cells += map(_fmt_frac, masses.mass_above_height(
                    m.order, [float(h) for h in heights], samples))
    except CubicUnitsError as e:
        cells = [str(t), type(e).__name__]
    return ",".join(cells + [""] * (ncols - len(cells)))


def _mass_rows(payload) -> str:
    """mass-profile rows for one t: one line per height threshold."""
    family_json, t, bits, samples, heights, r_cap = payload
    try:
        m = _Member.of_family(family_json, t, bits)
        m.logs  # below rank 2 this raises; the units are embedded before the height
        ht = m.ht
        hd = masses.hex_domain(m.phi, ROW_BITS)
        big_r = mp.mpf(r_cap, prec=ROW_BITS)
        tight_k = next((k for k in range(100, -1, -1)
                        if masses.check_tight(hd, ht, big_r, Fraction(k, 100), ROW_BITS)), 0)
        fracs = masses.mass_above_height(m.order, [float(h) for h in heights], samples)
        return "\n".join(",".join([
            str(t), str(m.order.disc), _fmt(ht), _fmt(hd.ceiling), h, _fmt_frac(frac),
            f"{tight_k / 100:.2f}",
        ]) for h, frac in zip(heights, fracs))
    except CubicUnitsError as e:
        return "\n".join(",".join([str(t), type(e).__name__, "", "", h, "", ""])
                         for h in heights)


def _emit(lines: list[str], out: str | None) -> None:
    data = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _pooled(worker, cfg: ScanConfig, extra) -> list:
    """worker((family_json, t, bits, samples, heights, extra)) for each t, in order."""
    payloads = [(cfg.family_json, t, cfg.precision_bits, cfg.samples,
                 tuple(cfg.heights), extra) for t in cfg.schedule]
    if cfg.jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    # imported here: the pool pulls in multiprocessing, which only --jobs > 1 uses
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
        return list(pool.map(worker, payloads))


def cmd_scan_family(args) -> int:
    cfg = build_scan_config(args)
    with_mass = not args.no_mass
    header = ["t", "status", "p2", "p1", "p0", "irreducible", "disc",
              "units_verified", "rel_reg", "cusick_ratio", "certified",
              "shape_re", "shape_im", "shape_reduced", "ht", "ceil_w"]
    if with_mass:
        header += [f"mass_h{h}" for h in cfg.heights]
    _emit([",".join(header)] + _pooled(_scan_row, cfg, with_mass), cfg.out)
    return EXIT_OK


def cmd_mass_profile(args) -> int:
    cfg = build_scan_config(args)
    _emit(["t,disc,ht,ceilW,H,fraction,tight_r"] + _pooled(_mass_rows, cfg, cfg.tight_r_cap),
          cfg.out)
    return EXIT_OK


def cmd_emit_curves(args) -> int:
    try:
        at = Fraction(args.a_tilde)
        bt = Fraction(args.b_tilde)
        steps = int(args.steps)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad curve arguments: {e}") from e
    if steps < 2:
        raise ConfigError("steps must be >= 2")
    if not (0 <= at <= bt):
        raise ConfigError(f"need 0 <= a~ <= b~, got {at}, {bt}")
    # an explicit 0 is a value to range-check, not a missing flag
    prec = _check_bits(96 if args.precision_bits is None else args.precision_bits)
    rmax = shapes.curve_range(at, bt) or Fraction(1)  # constant curve: unit span
    lines = ["r,re,im,reduced"]
    for j in range(steps + 1):
        r = rmax * Fraction(j, steps)
        sp = shapes.curve_point(at, bt, r, prec)
        lines.append(",".join([_fmt_frac(r), _fmt(sp.tau.real, prec), _fmt(sp.tau.imag, prec),
                               _bool(sp.reduced)]))
    _emit(lines, args.out)
    return EXIT_OK


def cmd_lambda_orbit(args) -> int:
    if args.map not in ("T", "R"):
        raise ConfigError(f"map must be T or R, got {args.map!r}")
    try:
        s0 = (ratios.INFINITY if args.start.strip().lower() in ("inf", "infinity")
              else ratios.ProjectiveRatio(Fraction(args.start)))
        n = int(args.steps)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad orbit arguments: {e}") from e
    if n < 0:
        raise ConfigError("steps must be >= 0")
    orb = ratios.orbit(args.map, s0, n)
    lines = ["step,num,den,decimal"]
    lines += [",".join(str(c) for c in row) for row in ratios.orbit_csv_rows(orb)]
    _emit(lines, args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    try:
        f = poly_from_json(args.poly)
    except (json.JSONDecodeError, KeyError, ValueError) as e:
        raise ConfigError(f"bad polynomial JSON: {e}") from e
    cand = []
    for u in args.unit or []:
        try:
            a, b = (int(v) for v in u.split(","))
        except ValueError as e:
            raise ConfigError(f"bad unit {u!r}, expected a,b") from e
        cand.append((a, b))
    if len(cand) < 2:
        raise ConfigError("need at least two --unit a,b candidates")
    m = _Member(f, cand, _check_bits(192 if args.precision_bits is None else args.precision_bits))
    out: dict = {"poly": json.loads(args.poly), "report": None}
    try:
        out["disc"] = str(m.order.disc)
        out["units_kept"] = [[a, b] for a, b in m.order.units]
        out["units_dropped"] = [
            {"unit": [a, b], "reason": why} for (a, b), why in m.order.dropped]
        if len(m.order.units) >= 2:
            out["report"] = json.loads(units.report_to_json(m.certificate[1]))
        else:
            out["error"] = "fewer than two verified units"
    except CubicUnitsError as e:
        out["error"] = f"{type(e).__name__}: {e}"
    _emit([json.dumps(out, indent=2, sort_keys=True)], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Re-audit: recompute spot rows at doubled precision and compare."""
    try:
        spots = int(args.spots)
    except ValueError as e:
        raise ConfigError(f"bad spots {args.spots!r}") from e
    if spots < 1:
        raise ConfigError(f"spots must be >= 1, got {spots}")
    cfg = build_scan_config(args)
    sched = cfg.schedule
    idx = sorted({(k * (len(sched) - 1)) // max(1, spots - 1) for k in range(spots)}
                 ) if len(sched) > 1 else [0]
    failures = 0
    lines = []
    for i in idx:
        t = sched[i]
        lo = _audit_point(cfg, t, cfg.precision_bits)
        hi = _audit_point(cfg, t, 2 * cfg.precision_bits)
        ok = lo["status"] == hi["status"]
        if ok and lo["status"] == "ok":
            ok = lo["certified"] == hi["certified"] and shapes.same_shape(lo["shape"], hi["shape"]) and all(
                abs(x - y) <= Fraction(1, 10 ** 12) * (1 + abs(y))  # exactly
                for x, y in ((mpf_to_fraction(lo[k]), mpf_to_fraction(hi[k])) for k in ("reg", "ht")))
        lines.append(f"VERIFY t={t}: {'PASS' if ok else 'FAIL'}"
                     f" (status={lo['status']}/{hi['status']})")
        failures += 0 if ok else 1
    lines.append(f"verified {len(idx)} rows, {failures} failures")
    _emit(lines, cfg.out)
    return EXIT_OK if failures == 0 else 1


def _audit_point(cfg: ScanConfig, t: int, bits: int) -> dict:
    try:
        m = _Member.of_family(cfg.family_json, t, bits)
        if len(m.order.units) < 2:
            return {"status": "rank<2"}
        reg, rep = m.certificate
        return {"status": "ok", "certified": rep.certified, "reg": reg,
                "shape": m.shape, "ht": m.ht}  # in stage order
    except CubicUnitsError as e:
        return {"status": type(e).__name__}


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cubicunits",
        description="cubic unit families: scans, shapes, mass profiles, orbits")
    sub = p.add_subparsers(dest="command", required=True)

    def add_scan_flags(sp):
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--family", help="family descriptor JSON")
        sp.add_argument("--schedule",
                        help="arith:a:b:step | geom:a:b:ratio | list:v1,v2,...")
        sp.add_argument("--precision-bits", dest="precision_bits", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--H", dest="heights", action="append",
                        help="height threshold (repeatable)")
        sp.add_argument("--jobs", type=int)
        sp.add_argument("--tight-r-cap", dest="tight_r_cap",
                        help="R bound used for the tight_r column")
        sp.add_argument("--out", help="output path (default stdout)")

    sp = sub.add_parser("scan-family", help="full per-t pipeline scan")
    add_scan_flags(sp)
    sp.add_argument("--no-mass", action="store_true",
                    help="skip the mass-fraction columns")
    sp.set_defaults(fn=cmd_scan_family)

    sp = sub.add_parser("mass-profile", help="t, disc, ht, ceilW, H, fraction, tight_r")
    add_scan_flags(sp)
    sp.set_defaults(fn=cmd_mass_profile)

    sp = sub.add_parser("emit-curves", help="limit-curve samples gamma(r)")
    sp.add_argument("--a-tilde", required=True)
    sp.add_argument("--b-tilde", required=True)
    sp.add_argument("--steps", default="100")
    sp.add_argument("--precision-bits", dest="precision_bits", type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_emit_curves)

    sp = sub.add_parser("lambda-orbit", help="orbit of the ratio-set maps")
    sp.add_argument("--map", required=True, help="T or R")
    sp.add_argument("--start", required=True, help="rational or 'inf'")
    sp.add_argument("--steps", default="40")
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_lambda_orbit)

    sp = sub.add_parser("certify", help="certify a unit pair for one cubic")
    sp.add_argument("--poly", required=True, help='{"p2":"..","p1":"..","p0":".."}')
    sp.add_argument("--unit", action="append", help="a,b (repeatable)")
    sp.add_argument("--precision-bits", dest="precision_bits", type=int)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("verify", help="re-audit spot rows at doubled precision")
    add_scan_flags(sp)
    sp.add_argument("--spots", default="5", help="number of schedule points to audit")
    sp.set_defaults(fn=cmd_verify)
    return p


# Built once: argparse copies every default (the --H append list included)
# into a fresh namespace on each parse, so calls share no state.
_PARSER = make_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidParamsError as e:
        print(f"invalid parameters: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OrbitCapError, PrecisionExhaustedError, OverflowError) as e:
        print(f"numeric capacity exceeded: {e}", file=sys.stderr)
        return EXIT_CAPACITY


if __name__ == "__main__":
    sys.exit(main())
