"""scripts/bench_gate.py: each CI gate passes a result within its
thresholds and fails one planted over each of them."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_gate.py"


@pytest.fixture(scope="module")
def gate_script():
    spec = importlib.util.spec_from_file_location("bench_gate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def single(failed=0, **metrics):
    return {"correct": True, "attempted": 18, "failed": failed,
            "metrics": {name: {"value": value} for name, value in metrics.items()}}


# per gate: a result at its thresholds, and for each threshold a change
# that takes the result one step over it (on either side of an exact count)
AT_THRESHOLD = {
    "all": ({"correct": True, "attempted": 54, "failed": 4,
             "workloads": {"mass_dense": single(), "wide_t": single(), "profile_high_t": single(4)}},
            [("workloads", "mass_dense", "failed", 1), ("workloads", "wide_t", "failed", 1),
             ("workloads", "profile_high_t", "failed", 5)]),
    "profile": (single(4, **{"masses.enum_calls": 68}),
                [("metrics", "masses.enum_calls", "value", 69), ("failed", 5)]),
    "profile-seed3": (single(**{"masses.enum_calls": 25}),
                      [("metrics", "masses.enum_calls", "value", 26), ("failed", 1)]),
    "dense": (single(**{"masses.enum_calls": 10}),
              [("metrics", "masses.enum_calls", "value", 11), ("failed", 1)]),
    "dense-seed3": (single(**{"masses.enum_calls": 6}),
                    [("metrics", "masses.enum_calls", "value", 7), ("failed", 1)]),
    "wide": (single(**{"roots.bits_max": 339, "roots.refine_calls": 198,
                       "units.log_embed_escalations": 0}),
             [("metrics", "roots.bits_max", "value", 340),
              ("metrics", "roots.refine_calls", "value", 199),
              ("metrics", "roots.refine_calls", "value", 197),
              ("metrics", "roots.refine_calls", "value", 0),
              ("metrics", "units.log_embed_escalations", "value", 1), ("failed", 1)]),
    "no-failures": (single(), [("failed", 1)]),
}


def planted(result, path):
    out = copy.deepcopy(result)
    *keys, last, value = path
    node = out
    for key in keys:
        node = node[key]
    node[last] = value
    return out


def test_every_gate_is_tested(gate_script):
    assert set(AT_THRESHOLD) == set(gate_script.GATES)


@pytest.mark.parametrize("gate", sorted(AT_THRESHOLD))
def test_gate_fails_each_planted_over_threshold_line(gate_script, gate, tmp_path):
    result, overs = AT_THRESHOLD[gate]
    assert gate_script.failures(gate, result) == []
    for path in overs + [("correct", False)]:
        assert len(gate_script.failures(gate, planted(result, path))) == 1, path
    # the script reads the last line of perfbench's output
    out = tmp_path / "bench.out"
    for line, code in ((result, 0), (planted(result, overs[0]), 1)):
        out.write_text(f"mass_dense: 18 members per pass\n{json.dumps(line)}\n")
        assert gate_script.main([gate, str(out)]) == code


@pytest.mark.parametrize("gate, workload", [("profile", "profile_high_t"), ("dense", "mass_dense"),
                                            ("wide", "wide_t")])
def test_single_workload_gates_read_their_entry_of_an_all_result(gate_script, gate, workload):
    # one traced --workload all pass feeds the profile, dense and wide
    # gates: each reads its own workload's entry and no other
    entry, overs = AT_THRESHOLD[gate]
    others = {w: single(18) for w in ("mass_dense", "wide_t", "profile_high_t") if w != workload}
    result = {"correct": True, "attempted": 54, "failed": 36, "workloads": {workload: entry, **others}}
    assert gate_script.failures(gate, result) == []
    for path in overs + [("correct", False)]:
        assert len(gate_script.failures(gate, planted(result, ("workloads", workload, *path)))) == 1, path


def test_ci_runs_every_gate_and_no_inline_one(gate_script):
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    assert set(re.findall(r"scripts/bench_gate\.py (\S+)", workflow)) == set(gate_script.GATES)
    assert "json.loads" not in workflow
