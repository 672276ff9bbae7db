"""scripts/ab_passes.py: two trees timed side by side in one process."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# runs the script's main with the workload cut to its first two members,
# so a smoke run stays short
TWO_MEMBERS = ("import sys; sys.path.insert(0, 'scripts'); import ab_passes; "
               "full = ab_passes.members; ab_passes.members = lambda w, s: full(w, s)[:2]; "
               "sys.exit(ab_passes.main(sys.argv[1:]))")


def ab_passes(*argv):
    return subprocess.run([sys.executable, "-c", TWO_MEMBERS, *map(str, argv)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_a_tree_against_itself_on_two_members():
    # the tree loads twice under distinct names; every member prints the
    # same bytes on both, and the report names the members and the pairs
    proc = ab_passes(ROOT, ROOT, "--workload", "profile_high_t", "--passes", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload profile_high_t, seed 0: 2 members, 2 pairs"
    assert "change/base pass time, median of pairs:" in lines[1]
    assert lines[2].startswith("  median member latency: base ")
    assert lines[3] == "  outputs identical: yes"


def test_a_tree_that_prints_otherwise_fails(tmp_path):
    # a copy whose cli prints one more line differs on every member
    shutil.copytree(ROOT / "src" / "cubicunits", tmp_path / "src" / "cubicunits")
    with open(tmp_path / "src" / "cubicunits" / "cli.py", "a", encoding="utf-8") as cli:
        cli.write("\n_main = main\n\n\ndef main(argv=None):\n    code = _main(argv)\n"
                  "    print('one more line')\n    return code\n")
    proc = ab_passes(ROOT, tmp_path, "--workload", "mass_dense", "--passes", "0")
    assert proc.returncode == 1, proc.stderr
    assert "outputs identical: no" in proc.stdout
    assert "DIFFERS scan-family:one_unit@1000" in proc.stdout
