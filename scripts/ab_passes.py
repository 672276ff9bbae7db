"""A/B timing of two source trees in one process.

    python scripts/ab_passes.py BASE CHANGE --workload profile_high_t --passes 20

BASE and CHANGE are repository roots (each with src/cubicunits). Both
packages are loaded side by side under distinct names, so one interpreter,
one host state and one set of lazy imports serve both. The workload's
members (perfbench.workloads, read only) run through each tree's
`cli.main` in whole passes: one untimed warm-up pass per tree, then
alternating pairs, the first tree of a pair swapped each time. It prints
the median over pairs of CHANGE's pass time over BASE's, each tree's
median per-member latency, and whether every member printed the same bytes
and exit code on both trees; it exits 1 when one did not. Pass time is
wall clock, so a ratio is only as steady as the host over one pair.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.workloads import SPECS, members  # noqa: E402


def load_tree(root: Path, name: str):
    """The cubicunits package under root/src, imported as `name`, with its
    cli module."""
    pkg = Path(root).resolve() / "src" / "cubicunits"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, todo) -> tuple[list[float], list[tuple[int, str]]]:
    """Each member's wall time and (exit code, stdout), in order."""
    times, outs = [], []
    for m in todo:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(m.argv())
        times.append(perf_counter() - t0)
        outs.append((code, buf.getvalue()))
    return times, outs


def compare(base: Path, change: Path, workload: str, seed: int, passes: int) -> dict:
    """Alternating passes of the workload's members on both trees."""
    todo = members(workload, seed)
    clis = (load_tree(base, "cubicunits_ab_base"), load_tree(change, "cubicunits_ab_change"))
    outs = [run_pass(cli, todo)[1] for cli in clis]  # warm-up, and the outputs compared
    per_member = ([], [])
    ratios = []
    for i in range(passes):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        totals = [0.0, 0.0]
        for j in order:
            times, got = run_pass(clis[j], todo)
            per_member[j].extend(times)
            totals[j] = sum(times)
            if got != outs[j]:
                raise SystemExit(f"ab_passes: tree {j} printed different output on a repeated pass")
        ratios.append(totals[1] / totals[0])
    differ = [m.name for m, a, b in zip(todo, *outs) if a != b]
    return {"members": len(todo), "passes": passes,
            "ratio": statistics.median(ratios) if ratios else float("nan"),
            "better_in": sum(r < 1 for r in ratios),
            "base_ms": statistics.median(per_member[0]) * 1e3 if passes else float("nan"),
            "change_ms": statistics.median(per_member[1]) * 1e3 if passes else float("nan"),
            "differ": differ}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True, choices=list(SPECS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--passes", type=int, default=10, help="alternating pairs of timed passes")
    args = p.parse_args(argv)
    if args.passes < 0 or args.seed < 0:
        p.error("--passes and --seed must be non-negative")
    r = compare(args.base, args.change, args.workload, args.seed, args.passes)
    print(f"workload {args.workload}, seed {args.seed}: {r['members']} members, {r['passes']} pairs")
    print(f"  change/base pass time, median of pairs: {r['ratio']:.4f} "
          f"(change faster in {r['better_in']} of {r['passes']})")
    print(f"  median member latency: base {r['base_ms']:.4f} ms, change {r['change_ms']:.4f} ms")
    print(f"  outputs identical: {'yes' if not r['differ'] else 'no'}")
    for name in r["differ"][:20]:
        print(f"    DIFFERS {name}")
    return 1 if r["differ"] else 0


if __name__ == "__main__":
    sys.exit(main())
