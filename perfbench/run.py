"""Benchmark of the cubicunits per-member pipeline.

    python3 perfbench/run.py --workload mass_dense --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one block each

Runs the workload's family members in a closed loop from one process (the
next member starts when the previous one returns), one in-process
`cubicunits.cli.main` call per member with default flags, in whole passes
until --seconds have elapsed. Every output row is then checked against a
reference, outside the timed region. The last stdout line is one JSON
object: end-to-end metrics with --trace 0, per-layer metrics from a
separate traced run with --trace 1. End-to-end times are scaled to a
reference host speed measured beside the program (`calibration_s`), since
the speed of a shared host drifts. README.md here records the design.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench import refcheck  # noqa: E402
from perfbench.calibrate import at_reference_speed, calibration_s, sampling_host  # noqa: E402
from perfbench.layers import UNITS, layer_metrics, targets  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import SPECS, WARMUP, Member, cli_argv, members  # noqa: E402

REFERENCE = HERE / "reference" / "seed0.json"
OUT = HERE / "out"
SETUP_REPEATS = 7
DOUBLED_BITS = "384"  # twice the CLI default --precision-bits 192
CHECK_JOBS = "2"


# A fresh interpreter imports the package and finishes one warm-up member;
# numpy is imported lazily by the mass stage inside that member. It times a
# calibration block before and after, on whichever vCPU it runs, and
# prints both.
_SETUP_CODE = """\
import contextlib, io, sys
sys.path[:0] = sys.argv[1:3]
from perfbench.calibrate import calibration_s
before = calibration_s()
from cubicunits import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[3:])
print(before, calibration_s())
sys.exit(code)
"""


def run_member(cli, member: Member) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(member.argv())
    return code, buf.getvalue()


@dataclass
class Timed:
    passes: int = 0
    member_s: list[float] = field(default_factory=list)  # wall, less calibration
    member_ref_s: list[float] = field(default_factory=list)  # at reference speed
    runs: list[tuple[Member, int, str]] = field(default_factory=list)

    def members_per_s(self, ref: bool) -> float:
        return len(self.runs) / sum(self.member_ref_s if ref else self.member_s)


def measure(cli, todo: list[Member], seconds: float, tracer: Tracer | None = None) -> Timed:
    """Whole passes over `todo`, until at least `seconds` have elapsed, with
    a calibration block before the first member and after every member and,
    untraced, blocks during each member (their time is not member time;
    traced, they would land in the spans)."""
    res = Timed()
    start = perf_counter()
    cal = calibration_s()
    while True:
        for m in todo:
            during: list[float] = []
            t0 = perf_counter()
            if tracer is None:
                with sampling_host(during):
                    code, out = run_member(cli, m)
            else:
                with tracer.member(len(res.runs)):
                    code, out = run_member(cli, m)
            wall = perf_counter() - t0 - sum(during)
            cal_before, cal = cal, calibration_s()
            res.member_s.append(wall)
            res.member_ref_s.append(at_reference_speed(wall, [cal_before, *during, cal]))
            res.runs.append((m, code, out))
        res.passes += 1
        if perf_counter() - start >= seconds:
            return res


def references(cli, workload: str, seed: int, todo: list[Member]) -> tuple[dict[str, str], bool]:
    """Reference output per member name, and whether numeric cells get the
    relative tolerance (only for the doubled-precision recomputation)."""
    if seed == 0:
        return json.loads(REFERENCE.read_text(encoding="ascii"))[workload], False
    refs: dict[str, str] = {}
    groups: dict[tuple, list[Member]] = {}
    for m in todo:
        groups.setdefault((m.command, m.family, m.flags), []).append(m)
    for group in groups.values():
        # one CLI call per family, its own worker pool doing the members
        first = group[0]
        argv = cli_argv(first.command, first.family, [m.t for m in group], first.flags,
                        "--precision-bits", DOUBLED_BITS, "--jobs", CHECK_JOBS)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(argv)
        per_t = refcheck.split_by_t(buf.getvalue())
        for m in group:
            refs[m.name] = per_t.get(str(m.t), "")
    return refs, True


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    newly_decided: int = 0


def check(runs, refs: dict[str, str], numeric_tol: bool) -> Checked:
    """Count failed member runs and collect cells that differ from `refs`.

    A member run fails when the CLI exits non-zero, a row carries an
    exception class, or a cell decided in the reference is changed or lost.
    """
    res = Checked()
    seen: dict[tuple[str, str], refcheck.Comparison] = {}
    for m, code, out in runs:
        key = (m.name, out)
        if key not in seen:
            cmp = refcheck.compare(out, refs.get(m.name, ""), numeric_tol)
            seen[key] = cmp
            res.mismatches += [f"{m.name}: {x}" for x in cmp.mismatches]
            res.newly_decided += cmp.newly_decided
        cmp = seen[key]
        res.attempted += 1
        if code != 0 or refcheck.has_error_status(out) or cmp.mismatches or cmp.lost:
            res.failed += 1
    return res


def setup_seconds() -> list[tuple[float, float]]:
    """(wall, at reference speed) for each fresh interpreter, less the time
    of its two calibration blocks."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(ROOT), str(SRC), *WARMUP.argv()],
            cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE, text=True)
        blocks = [float(v) for v in proc.stdout.split()]
        wall = perf_counter() - t0 - sum(blocks)
        out.append((wall, at_reference_speed(wall, blocks)))
    return out


def tail(member_s: list[float]) -> tuple[float, int] | None:
    """The highest percentile with at least ten members beyond it, in ms,
    and that percentile; None when it would not lie above the median."""
    n = len(member_s)
    if n < 20:
        return None
    return sorted(member_s)[n - 11] * 1000, (100 * (n - 10)) // n


def _row(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
    print(f"  {name:40s} {shown:>12s} {unit:6s} {note}".rstrip())


def _end_to_end(setup, timed: Timed, peak_mb: float) -> dict:
    """JSON metrics (times at reference speed), printed with their wall
    clock values and with the latency tail, which stays out of the JSON."""
    n = len(timed.member_s)
    setup_s = statistics.median(r for _, r in setup)
    mps = timed.members_per_s(ref=True)
    p50 = statistics.median(timed.member_ref_s) * 1000
    _row("setup_s", setup_s, "s", f"wall clock {statistics.median(w for w, _ in setup):.6g}")
    _row("members_per_s", mps, "1/s", f"wall clock {timed.members_per_s(ref=False):.6g}")
    _row("member_ms_p50", p50, "ms",
         f"{n} members; wall clock {statistics.median(timed.member_s) * 1000:.6g}")
    tl, wall_tl = tail(timed.member_ref_s), tail(timed.member_s)
    _row("member_ms_tail", tl[0] if tl else "n/a", "ms",
         f"p{tl[1]} of {n} members; wall clock {wall_tl[0]:.6g}" if tl
         else f"{n} members, needs 20")
    _row("peak_rss_mb", peak_mb, "MB")
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "members_per_s": {"value": mps, "unit": "1/s"},
            "member_ms_p50": {"value": p50, "unit": "ms"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"}}


def _per_layer(path: Path, tracer: Tracer, timed: Timed, traced: Timed) -> dict:
    values, errors = layer_metrics(tracer.spans, traced.passes)
    OUT.mkdir(exist_ok=True)
    tracer.write(path)
    print(f"  {traced.passes} traced passes, {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}; per-layer values are per pass, wall clock")
    for name, n in sorted(errors.items()):
        _row(name, n / traced.passes, "count")
    metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
    traced_mps = traced.members_per_s(ref=True)
    metrics["trace.members_per_s"] = {"value": traced_mps, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {
        "value": timed.members_per_s(ref=True) / traced_mps, "unit": "ratio"}
    for name, m in metrics.items():
        _row(name, m["value"], m["unit"])
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from cubicunits import cli

    todo = members(workload, seed)
    print(f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}: "
          f"{len(todo)} members per pass")
    setup = None if trace else setup_seconds()
    run_member(cli, WARMUP)  # lazy imports and caches settle before timing
    timed = measure(cli, todo, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runs = timed.runs
    if trace:
        tracer = Tracer()
        with tracer.installed(targets()):
            traced = measure(cli, todo, seconds, tracer)
        runs = runs + traced.runs
    refs, numeric_tol = references(cli, workload, seed, todo)
    chk = check(runs, refs, numeric_tol)

    print(f"  {timed.passes} untraced passes; host at "
          f"{sum(timed.member_s) / sum(timed.member_ref_s):.3f}x the reference time")
    against = ("stored seed-0 rows" if seed == 0
               else f"rows recomputed at --precision-bits {DOUBLED_BITS}")
    print(f"  check against {against}: {len(chk.mismatches)} mismatched cells, "
          f"{chk.newly_decided} reference-undecided cells now decided")
    for line in chk.mismatches[:20]:
        print(f"    MISMATCH {line}")
    _row("fail_frac", chk.failed / chk.attempted, "ratio", f"{chk.failed}/{chk.attempted} members")
    if trace:
        metrics = _per_layer(OUT / f"spans-{workload}-seed{seed}.jsonl", tracer, timed, traced)
    else:
        metrics = _end_to_end(setup, timed, peak_mb)
    return {"correct": not chk.mismatches, "attempted": chk.attempted,
            "failed": chk.failed, "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    results = {}
    for workload in SPECS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, check=True, timeout=900, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*SPECS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    if not (SRC / "cubicunits" / "__init__.py").is_file():
        print(f"perfbench: no cubicunits package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
