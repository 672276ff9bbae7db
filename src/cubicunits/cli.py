"""Command-line front end: family scans, curve emission, orbit dumps,
one-off certification, mass profiles, and a doubled-precision re-audit.

Output contract: CSV with a header row, '.' decimal separator, LF line
endings, and byte-identical bytes for identical inputs (worker pools only
ever reorder computation, never output). Exit codes: 0 success, 2 config
error, 3 numeric-capacity error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from . import families, masses, ratios, shapes, units
from .cubics import is_irreducible, is_totally_real, poly_from_json
from .errors import (
    CubicUnitsError,
    InvalidParamsError,
    OrbitCapError,
    OutOfRegimeError,
    PrecisionExhaustedError,
)
from .precision import PrecisionPolicy

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


def _fmt(x, digits: int = 17) -> str:
    return mp.nstr(mp.mpf(x), digits)


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
            if a == 0 or q < 2 or abs(b) < abs(a):
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
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return cfg


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
    try:
        bits = int(args.precision_bits or cfg.get("precision_bits", 192))
        samples = int(args.samples or cfg.get("samples", 10000))
        jobs = int(args.jobs or cfg.get("jobs", 1))
    except ValueError as e:
        raise ConfigError(f"bad integer option: {e}") from e
    heights = list(args.heights or [])
    if not heights and "h" in cfg:
        heights = [h.strip() for h in cfg["h"].split(",") if h.strip()]
    if not heights:
        heights = ["10"]
    for h in heights:
        try:
            if float(h) <= 1:
                raise ConfigError(f"height threshold must exceed 1, got {h}")
        except ValueError as e:
            raise ConfigError(f"bad height {h!r}") from e
    if bits < 64 or bits > 1 << 20:
        raise ConfigError(f"precision_bits {bits} out of range [64, 2^20]")
    if samples < 1:
        raise ConfigError("samples must be >= 1")
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    return ScanConfig(family, parse_schedule(schedule),
                      bits, samples, heights,
                      args.out or cfg.get("out"), jobs,
                      args.tight_r_cap or cfg.get("tight_r_cap", "2"))


def _candidate_units(params_or_seed, descriptor: dict) -> list[tuple[int, int]]:
    if isinstance(params_or_seed, families.OneUnitParams):
        # theta itself is a unit: the constant coefficient is +-1 by
        # construction, so the pair (designed unit, theta) drives the
        # rank-2 pipeline
        return [(params_or_seed.a, params_or_seed.b), (1, 0)]
    if isinstance(params_or_seed, families.TwoUnitParams):
        return [(params_or_seed.a, params_or_seed.b),
                (params_or_seed.c, params_or_seed.d)]
    # seed kind: the linear factors (ax-b), (cx-d) evaluate identically on
    # the seed and on every extension, so they are the natural candidates
    return [(int(descriptor["a"]), int(descriptor["b"])),
            (int(descriptor["c"]), int(descriptor["d"]))]


def _member_for_t(family_json: str, t: int):
    d = json.loads(family_json)
    d["t"] = str(t)
    params, _, f = families.family_from_json(d)
    return params, f, _candidate_units(params, d)


def _scan_row(payload) -> str:
    """One scan-family CSV row; never raises on per-t numeric failures."""
    family_json, t, bits, samples, heights, with_mass = payload
    ncols = 16 + (len(heights) if with_mass else 0)
    try:
        params, f, cand = _member_for_t(family_json, t)
        cells = [str(t), "ok", str(f.p2), str(f.p1), str(f.p0)]
        red = is_irreducible(f) and is_totally_real(f)
        cells.append(_bool(red))
        if not red:
            cells += [""] * (ncols - len(cells))
            cells[1] = "reducible_or_complex"
            return ",".join(cells)
        pol = PrecisionPolicy(bits, max(4 * bits, 4096))
        order = units.build_order(f, cand, pol)
        cells.append(str(order.disc))
        cells.append(f"{len(order.units)}/{len(cand)}")
        if len(order.units) < 2:
            cells += [""] * (ncols - len(cells))
            return ",".join(cells)
        (a1, b1), (a2, b2) = order.units[0], order.units[1]
        v1 = units.log_embed(order, a1, b1)
        v2 = units.log_embed(order, a2, b2)
        reg, err = units.relative_regulator_with_error(v1, v2)
        rep = units.certify_fundamental(reg, order.disc, err, prec=bits)
        cells += [_fmt(reg), _fmt(rep.cusick_ratio), _bool(rep.certified)]
        sp = shapes.shape_from_units(v1, v2, bits)
        cells += [_fmt(sp.tau.real), _fmt(sp.tau.imag), _bool(sp.reduced)]
        base = masses.embed_order_lattice(order)
        ht = masses.lattice_height(base, bits)
        phi = masses.make_simplex(v1, v2)
        hd = masses.hex_domain(phi)
        cells += [_fmt(ht), _fmt(hd.ceiling)]
        if with_mass:
            for h in heights:
                frac = masses.mass_above_height(order, phi, float(h), samples)
                cells.append(_fmt_frac(frac))
        return ",".join(cells)
    except CubicUnitsError as e:
        cells = [str(t), type(e).__name__]
        cells += [""] * (ncols - len(cells))
        return ",".join(cells)


def _mass_rows(payload) -> list[str]:
    """mass-profile rows for one t: one line per height threshold."""
    family_json, t, bits, samples, heights, r_cap = payload
    try:
        params, f, cand = _member_for_t(family_json, t)
        pol = PrecisionPolicy(bits, max(4 * bits, 4096))
        order = units.build_order(f, cand, pol)
        if len(order.units) < 2:
            raise InvalidParamsError("mass profile needs two verified units")
        v1 = units.log_embed(order, *order.units[0])
        v2 = units.log_embed(order, *order.units[1])
        base = masses.embed_order_lattice(order)
        ht = masses.lattice_height(base, bits)
        phi = masses.make_simplex(v1, v2)
        hd = masses.hex_domain(phi)
        tight_r = Fraction(0)
        for k in range(100, -1, -1):
            if masses.check_tight(phi, ht, mp.mpf(r_cap), Fraction(k, 100)):
                tight_r = Fraction(k, 100)
                break
        rows = []
        for h in heights:
            frac = masses.mass_above_height(order, phi, float(h), samples)
            rows.append(",".join([
                str(t), str(order.disc), _fmt(ht), _fmt(hd.ceiling), h,
                _fmt_frac(frac), f"{tight_r.numerator / tight_r.denominator:.2f}",
            ]))
        return rows
    except CubicUnitsError as e:
        return [",".join([str(t), type(e).__name__, "", "", h, "", ""])
                for h in heights]


def _emit(lines: list[str], out: str | None) -> None:
    data = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="ascii", newline="") as fh:
            fh.write(data)
    else:
        sys.stdout.write(data)


def _pooled(worker, payloads, jobs: int):
    if jobs <= 1 or len(payloads) <= 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, payloads))


def cmd_scan_family(args) -> int:
    cfg = build_scan_config(args)
    with_mass = not args.no_mass
    header = ["t", "status", "p2", "p1", "p0", "irreducible", "disc",
              "units_verified", "rel_reg", "cusick_ratio", "certified",
              "shape_re", "shape_im", "shape_reduced", "ht", "ceil_w"]
    if with_mass:
        header += [f"mass_h{h}" for h in cfg.heights]
    payloads = [(cfg.family_json, t, cfg.precision_bits, cfg.samples,
                 tuple(cfg.heights), with_mass) for t in cfg.schedule]
    rows = _pooled(_scan_row, payloads, cfg.jobs)
    _emit([",".join(header)] + rows, cfg.out)
    return EXIT_OK


def cmd_mass_profile(args) -> int:
    cfg = build_scan_config(args)
    header = "t,disc,ht,ceilW,H,fraction,tight_r"
    payloads = [(cfg.family_json, t, cfg.precision_bits, cfg.samples,
                 tuple(cfg.heights), cfg.tight_r_cap) for t in cfg.schedule]
    blocks = _pooled(_mass_rows, payloads, cfg.jobs)
    lines = [header]
    for b in blocks:
        lines.extend(b)
    _emit(lines, cfg.out)
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
    bounds = []
    if at > 0:
        bounds.append(Fraction(1, 3) / at)
    if bt > 0:
        bounds.append(1 / bt)
    rmax = min(bounds) if bounds else Fraction(1)  # constant curve: unit span
    prec = int(args.precision_bits or 96)
    lines = ["r,re,im,reduced"]
    with mp.workprec(prec):
        for j in range(steps + 1):
            r = rmax * Fraction(j, steps)
            z = shapes.curve_gamma(at, bt, r, prec)
            sp = shapes.reduce_fundamental(z, prec)
            lines.append(",".join([
                f"{r.numerator / r.denominator:.10f}",
                _fmt(sp.tau.real), _fmt(sp.tau.imag), _bool(sp.reduced)]))
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
    bits = int(args.precision_bits or 192)
    out: dict = {"poly": json.loads(args.poly)}
    try:
        pol = PrecisionPolicy(bits, max(4 * bits, 4096))
        order = units.build_order(f, cand, pol)
        out["disc"] = str(order.disc)
        out["units_kept"] = [[a, b] for a, b in order.units]
        out["units_dropped"] = [
            {"unit": [a, b], "reason": why} for (a, b), why in order.dropped]
        if len(order.units) >= 2:
            v1 = units.log_embed(order, *order.units[0])
            v2 = units.log_embed(order, *order.units[1])
            reg, err = units.relative_regulator_with_error(v1, v2)
            rep = units.certify_fundamental(reg, order.disc, err, prec=bits)
            out["report"] = json.loads(units.report_to_json(rep))
        else:
            out["report"] = None
            out["error"] = "fewer than two verified units"
    except OutOfRegimeError as e:
        out["report"] = None
        out["error"] = f"OutOfRegimeError: {e}"
    except CubicUnitsError as e:
        out["report"] = None
        out["error"] = f"{type(e).__name__}: {e}"
    _emit([json.dumps(out, indent=2, sort_keys=True)], args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Re-audit: recompute spot rows at doubled precision and compare."""
    cfg = build_scan_config(args)
    spots = max(1, int(args.spots))
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
            ok = (lo["certified"] == hi["certified"]
                  and abs(lo["reg"] - hi["reg"]) <= mp.mpf("1e-12") * (1 + abs(hi["reg"]))
                  and abs(lo["ht"] - hi["ht"]) <= mp.mpf("1e-12") * (1 + abs(hi["ht"]))
                  and abs(lo["tau"] - hi["tau"]) <= mp.mpf("1e-12") * (1 + abs(hi["tau"])))
        lines.append(f"VERIFY t={t}: {'PASS' if ok else 'FAIL'}"
                     f" (status={lo['status']}/{hi['status']})")
        failures += 0 if ok else 1
    lines.append(f"verified {len(idx)} rows, {failures} failures")
    _emit(lines, cfg.out)
    return EXIT_OK if failures == 0 else 1


def _audit_point(cfg: ScanConfig, t: int, bits: int) -> dict:
    try:
        params, f, cand = _member_for_t(cfg.family_json, t)
        pol = PrecisionPolicy(bits, max(4 * bits, 4096))
        order = units.build_order(f, cand, pol)
        if len(order.units) < 2:
            return {"status": "rank<2"}
        v1 = units.log_embed(order, *order.units[0])
        v2 = units.log_embed(order, *order.units[1])
        reg, err = units.relative_regulator_with_error(v1, v2)
        rep = units.certify_fundamental(reg, order.disc, err, prec=bits)
        sp = shapes.shape_from_units(v1, v2, bits)
        ht = masses.lattice_height(masses.embed_order_lattice(order), bits)
        return {"status": "ok", "certified": rep.certified, "reg": reg,
                "ht": ht, "tau": sp.tau}
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
