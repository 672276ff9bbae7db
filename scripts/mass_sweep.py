"""The mass sweep: every family, every decade 10^3..10^24 of both signs,
600 samples, H in {10, 9.99, 100}, one height per `mass-profile` call, at
192 and 384 bits (792 cells); then the same sweep again with the ambient
mpmath precision set to 16 bits before each call.

Exits 1 on an InternalInconsistencyError, on an exception cell other than
the 18 known PrecisionExhaustedError cells, on a cell decided at both
widths with different fractions, or on a cell that the run at an ambient
16 bits prints otherwise.

Run from the repository root: PYTHONPATH=src python scripts/mass_sweep.py
"""

from __future__ import annotations

import contextlib
import io
import sys

import mpmath as mp

from cubicunits import cli

FAMILIES = {
    "one_unit": '{"kind":"one_unit","a":"1","b":"1"}',
    "two_unit": '{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}',
    "seed": '{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},"a":"1","b":"0","c":"1","d":"-1"}',
}
SCHEDULES = ("geom:1000:1000000000000000000000000:10", "geom:-1000:-1000000000000000000000000:10")
HEIGHTS = ("10", "9.99", "100")
WIDTHS = ("192", "384")

# (family, t, H) cells that raise PrecisionExhaustedError at both widths
KNOWN = {(name, sg * 10 ** e, h)
         for name, e, h, signs in [
             ("one_unit", 12, "10", (1, -1)), ("one_unit", 12, "100", (1, -1)),
             ("one_unit", 16, "100", (1, -1)), ("one_unit", 24, "10", (1, -1)),
             ("one_unit", 24, "100", (1, -1)), ("seed", 12, "10", (1,)),
             ("seed", 12, "100", (-1,)), ("seed", 16, "100", (1, -1)),
             ("seed", 24, "10", (1, -1)), ("seed", 24, "100", (1, -1))]
         for sg in signs}


def sweep(families=FAMILIES, schedules=SCHEDULES, heights=HEIGHTS, widths=WIDTHS) -> dict:
    """{(bits, family, t, H): the fraction, or the name of the error the
    row printed}, one mass-profile call per family, schedule, height and
    width."""
    cells = {}
    for bits in widths:
        flags = [] if bits == "192" else ["--precision-bits", bits]
        for name, family in families.items():
            for schedule in schedules:
                for h in heights:
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = cli.main(["mass-profile", "--family", family, "--schedule", schedule,
                                         "--samples", "600", "--H", h, *flags])
                    if code != 0:
                        raise RuntimeError(f"exit code {code}: {bits} bits, {name}, {schedule}, H = {h}")
                    for line in out.getvalue().splitlines()[1:]:
                        t, disc, _, _, _, fraction, _ = line.split(",")
                        cells[bits, name, int(t), h] = fraction or disc  # disc holds the error's name
    return cells


def bad_cells(cells: dict, known=KNOWN) -> list:
    """Every exception cell other than a known PrecisionExhaustedError
    cell, and every cell that the widest width decides otherwise."""
    bad = [(k, v) for k, v in cells.items() if not v[0].isdigit()
           and (v != "PrecisionExhaustedError" or k[1:] not in known)]
    wide = {k[1:]: v for k, v in cells.items() if k[0] == max(WIDTHS, key=int)}
    bad += [(k, v, wide[k[1:]]) for k, v in cells.items()
            if v[0].isdigit() and wide[k[1:]][0].isdigit() and wide[k[1:]] != v]
    return bad


def at_ambient(prec: int, call, *args):
    """call(*args) with mp.mp.prec set directly to prec."""
    saved = mp.mp.prec
    mp.mp.prec = prec
    try:
        return call(*args)
    finally:
        mp.mp.prec = saved


def main() -> int:
    cells = sweep()
    if len(cells) != 792:
        print(f"{len(cells)} cells, not 792")
        return 1
    bad = bad_cells(cells)
    low = at_ambient(16, sweep)
    bad += [(k, v, "at an ambient 16 bits:", low.get(k)) for k, v in cells.items() if low.get(k) != v]
    failed = sum(not v[0].isdigit() for v in cells.values())
    print(f"{len(cells)} cells, {failed} undecided, {len(bad)} bad")
    for entry in bad:
        print("bad cell:", *entry)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
