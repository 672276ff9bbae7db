"""The three workloads: which family members each pass runs, and with what flags.

A member is one `cubicunits` CLI call for one t (`--schedule list:<t>`).
Seed 0 runs the stated schedules; any other seed shifts every t by a
seeded offset of at most 1% of t, staying inside [10^3, 10^24], so a
claim can be re-checked on members it was not written against while the
per-member cost stays comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

FAMILIES = {
    "one_unit": '{"kind":"one_unit","a":"1","b":"1"}',
    "two_unit": '{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}',
    # x^3 - 3x - 1 along x(x+1): the simplest cubics
    "seed": '{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},'
            '"a":"1","b":"0","c":"1","d":"-1"}',
}

T_MIN, T_MAX = 10 ** 3, 10 ** 24  # T_MAX is the CLI's T_CAPACITY


def cli_argv(command: str, family: str, ts, flags, *extra: str) -> list[str]:
    return [command, "--family", FAMILIES[family],
            "--schedule", "list:" + ",".join(str(t) for t in ts), *flags, *extra]


@dataclass(frozen=True)
class Member:
    command: str
    family: str
    t: int
    flags: tuple[str, ...]

    @property
    def name(self) -> str:
        return f"{self.command}:{self.family}@{self.t}"

    def argv(self) -> list[str]:
        return cli_argv(self.command, self.family, [self.t], self.flags)


@dataclass(frozen=True)
class Spec:
    command: str
    families: tuple[str, ...]
    ts: tuple[int, ...]
    flags: tuple[str, ...]


SPECS = {
    # the README/ROADMAP yardstick: certified mass enumeration dominates
    "mass_dense": Spec("scan-family", ("one_unit",),
                       tuple(10 ** e for e in range(3, 7)), ("--H", "10")),
    # every decade of the capacity range, no mass: roots/units/cli dominate
    "wide_t": Spec("scan-family", ("one_unit", "two_unit", "seed"),
                   tuple(10 ** e for e in range(3, 25)), ("--no-mass",)),
    # high t, three heights with a near-tie pair, plus the check_tight loop
    "profile_high_t": Spec("mass-profile", ("one_unit", "two_unit", "seed"),
                           tuple(10 ** e for e in range(9, 25, 3)),
                           ("--samples", "600", "--H", "10", "--H", "9.99",
                            "--H", "100")),
}

# One small member that touches every layer, numpy's lazy import included;
# it is the set-up cost a fresh interpreter pays before real work.
WARMUP = Member("scan-family", "one_unit", 1000, ("--H", "10", "--samples", "60"))


def shifted(t: int, rng: random.Random) -> int:
    k = rng.randint(1, max(1, t // 100))
    return t + k if t + k <= T_MAX else t - k


def members(workload: str, seed: int) -> list[Member]:
    """One pass of the workload, in run order (family-major)."""
    spec = SPECS[workload]
    rng = random.Random(f"{workload}/{seed}")
    return [Member(spec.command, fam, t if seed == 0 else shifted(t, rng), spec.flags)
            for fam in spec.families for t in spec.ts]
