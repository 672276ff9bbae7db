"""Record the seed-0 reference rows: every member's CSV output, per workload.

    python3 perfbench/record_reference.py

The stored file is the yardstick later commits are compared against, so
re-record it only for a change that fixes a documented defect in the rows.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import REFERENCE, SRC, run_member  # noqa: E402
from perfbench.workloads import SPECS, members  # noqa: E402


def main() -> int:
    sys.path.insert(0, str(SRC))
    from cubicunits import cli

    ref = {}
    for workload in SPECS:
        ref[workload] = {}
        for m in members(workload, 0):
            code, out = run_member(cli, m)
            if code != 0:
                print(f"{m.name}: exit code {code}", file=sys.stderr)
                return 1
            ref[workload][m.name] = out
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
