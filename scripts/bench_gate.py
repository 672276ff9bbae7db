"""The CI gates on a perfbench/run.py result: the JSON object it prints as
its last line.

Every gate needs the run's rows to match their reference ("correct" is
true) and holds the result to the gate's own thresholds:

  all            --workload all: failed members at most 0 in 18 on
                 mass_dense and wide_t, at most 4 in 18 on profile_high_t
  profile        profile_high_t, traced: masses.enum_calls at most 68,
                 failed members at most 4 in 18
  profile-seed3  profile_high_t at seed 3, traced: masses.enum_calls at
                 most 25, no member failed
  dense          mass_dense, traced: masses.enum_calls at most 10, no
                 member failed
  dense-seed3    mass_dense at seed 3, traced: masses.enum_calls at most
                 6, no member failed
  wide           wide_t, traced: roots.bits_max at most 339,
                 roots.refine_calls exactly 198 (one traced refine_root
                 per root of the 66 members, so a pipeline that stopped
                 going through refine_root, and read 0, fails), no
                 units.log_embed_escalations, no member failed
  no-failures    any single workload: no member failed

Given an all-result, the profile, dense and wide gates (and their seed-3
kin) read that workload's entry, so one traced --workload all pass feeds
them all. Exits 0 when the gate holds, else 1, naming each condition that
failed.

Run from the repository root:
  python3 perfbench/run.py --workload all --seed 0 --seconds 0 --trace 1 > bench.out
  python3 scripts/bench_gate.py all bench.out
  python3 scripts/bench_gate.py wide bench.out
"""

from __future__ import annotations

import json
import sys

# failed members allowed per 18 attempted, by workload
FAILED_CAPS = {"mass_dense": 0, "wide_t": 0, "profile_high_t": 4}
# the workload a single-workload gate reads from an all-result
WORKLOADS = {"profile": "profile_high_t", "profile-seed3": "profile_high_t",
             "dense": "mass_dense", "dense-seed3": "mass_dense", "wide": "wide_t"}


def _failed_at_most(result: dict, cap: int) -> bool:
    return 18 * result["failed"] <= cap * result["attempted"]


def _metric(result: dict, name: str):
    return result["metrics"][name]["value"]


def _enumerations(limit: int, cap: int):
    return lambda d: {f"masses.enum_calls <= {limit}": _metric(d, "masses.enum_calls") <= limit,
                      f"failed at most {cap} in 18": _failed_at_most(d, cap)}


GATES = {
    "all": lambda d: {f"{w} failed at most {FAILED_CAPS[w]} in 18": _failed_at_most(r, FAILED_CAPS[w])
                      for w, r in d["workloads"].items()},
    "profile": _enumerations(68, 4),
    "profile-seed3": _enumerations(25, 0),
    "dense": _enumerations(10, 0),
    "dense-seed3": _enumerations(6, 0),
    "wide": lambda d: {"roots.bits_max <= 339": _metric(d, "roots.bits_max") <= 339,
                       "roots.refine_calls == 198": _metric(d, "roots.refine_calls") == 198,
                       "units.log_embed_escalations == 0": _metric(d, "units.log_embed_escalations") == 0,
                       "no member failed": d["failed"] == 0},
    "no-failures": lambda d: {"no member failed": d["failed"] == 0},
}


def failures(gate: str, result: dict) -> list[str]:
    """The conditions of `gate` that `result` fails, in order."""
    if gate in WORKLOADS and "workloads" in result:
        result = result["workloads"][WORKLOADS[gate]]
    checks = {"correct": result["correct"] is True, **GATES[gate](result)}
    return [name for name, ok in checks.items() if not ok]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2 or argv[0] not in GATES:
        print(f"usage: bench_gate.py {{{','.join(GATES)}}} RESULT_FILE", file=sys.stderr)
        return 2
    gate, path = argv
    with open(path) as f:
        result = json.loads(f.read().splitlines()[-1])
    failed = failures(gate, result)
    for name in failed:
        print(f"bench_gate {gate}: failed {name}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
