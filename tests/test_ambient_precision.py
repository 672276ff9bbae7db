"""No CLI output depends on mpmath's ambient precision.

Every stage takes its width as an argument, so setting mp.mp.prec
directly, with no workprec, before cli.main changes no byte that
scan-family (with and without the mass stage), mass-profile, verify or
certify prints, on the three families at t = 10^3, 10^12 and 10^24.
"""

import contextlib
import io
import json

import mpmath as mp
import pytest

from cubicunits import cli

FAMILIES = {
    "one_unit": '{"kind":"one_unit","a":"1","b":"1"}',
    "two_unit": '{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}',
    "seed": '{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},"a":"1","b":"0","c":"1","d":"-1"}',
}
TS = (10 ** 3, 10 ** 12, 10 ** 24)
HEIGHTS = ("--H", "10", "--H", "9.99", "--H", "100")


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def outputs(ambient):
    """Every command's exit code and output, with mp.mp.prec = ambient."""
    saved = mp.mp.prec
    mp.mp.prec = ambient
    try:
        got = {}
        for name, family in FAMILIES.items():
            base = ["--family", family, "--schedule", "list:" + ",".join(map(str, TS))]
            got[name, "scan"] = run(["scan-family", *base, "--samples", "600", *HEIGHTS])
            got[name, "scan --no-mass"] = run(["scan-family", *base, "--no-mass"])
            got[name, "mass-profile"] = run(["mass-profile", *base, "--samples", "600", *HEIGHTS])
            got[name, "verify"] = run(["verify", *base, "--spots", "3"])
            for t in TS:
                member = cli._Member.of_family(family, t, 192)
                poly = json.dumps({"p2": str(member.f.p2), "p1": str(member.f.p1), "p0": str(member.f.p0)})
                units = [a for u in member.candidates for a in ("--unit", f"{u[0]},{u[1]}")]
                got[name, "certify", t] = run(["certify", "--poly", poly, *units])
        return got
    finally:
        mp.mp.prec = saved


@pytest.fixture(scope="module")
def at_53():
    got = outputs(53)
    assert all(code == cli.EXIT_OK for code, _ in got.values())
    # the members at 10^3 decide every height at 53 bits
    for name in FAMILIES:
        rows = got[name, "mass-profile"][1].splitlines()[1:4]
        assert all(row.split(",")[5] for row in rows), rows
    return got


@pytest.mark.parametrize("ambient", [16, 300])
def test_cli_output_ignores_the_ambient_precision(ambient, at_53):
    got = outputs(ambient)
    assert [k for k in at_53 if got[k] != at_53[k]] == []
