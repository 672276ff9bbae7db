"""CLI: schedule/config parsing, exit codes, golden outputs, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_man_exp

from cubicunits.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    _fmt,
    _Member,
    main,
    parse_schedule,
    read_config,
)
from cubicunits import families, masses
from cubicunits.cubics import MonicCubic
from cubicunits.errors import OrbitCapError
from cubicunits.masses import hex_domain
from cubicunits.precision import mpf_to_fraction

ONE_UNIT = '{"kind":"one_unit","a":"1","b":"1"}'
# x^3 - 3x - 1 along x(x - 3): at t=5 theta - 3 fails the norm check, so the
# member has fewer than two verified units
SEED_RANK1 = ('{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},'
              '"a":"1","b":"0","c":"1","d":"3"}')


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


@settings(max_examples=2000, deadline=None)
@given(st.integers(-2 ** 400, 2 ** 400), st.integers(-1200, 1200),
       st.sampled_from([8, 17, 53, 64, 96, 192]))
def test_fmt_prints_what_nstr_prints(man, exp, prec):
    # a cell is the 17 digits mp.nstr prints of the value rounded to prec
    # bits, under mpmath's default rounding, to nearest
    x = mp.make_mpf(from_man_exp(man, exp))
    assert _fmt(x, prec) == mp.nstr(mp.mpf(x, prec=prec), 17)


def test_parse_schedule_arith():
    assert parse_schedule("arith:1:10:3") == [1, 4, 7, 10]
    assert parse_schedule("arith:10:1:-4") == [10, 6, 2]
    assert parse_schedule("arith:5:5:1") == [5]


def test_parse_schedule_geom():
    assert parse_schedule("geom:2:100:3") == [2, 6, 18, 54]
    assert parse_schedule("geom:-2:-16:2") == [-2, -4, -8, -16]
    assert parse_schedule("geom:1024:1073741824:2") == [2 ** k for k in range(10, 31)]


def test_parse_schedule_list():
    assert parse_schedule("list:5,3,8") == [5, 3, 8]
    assert parse_schedule("list:7") == [7]


def test_parse_schedule_errors():
    for bad in ("arith:1:10:0", "arith:1:10:-1", "geom:0:10:2", "geom:2:100:1",
                "geom:100:2:2", "list:", "arith:1:x:1", "cubic:1:2", "",
                # a geometric schedule keeps start's sign: a stop of the
                # other sign is never reached
                "geom:5:-100:2", "geom:-5:100:2", f"geom:1000:{-10 ** 24}:10"):
        with pytest.raises(ConfigError):
            parse_schedule(bad)


def test_geometric_schedule_ends_of_opposite_signs_exit_2(capsys):
    for schedule in ("geom:5:-100:2", f"geom:1000:{-10 ** 24}:10"):
        assert main(["scan-family", "--family", ONE_UNIT, "--schedule", schedule,
                     "--no-mass"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
        assert "bad geometric schedule" in captured.err


def test_parse_schedule_capacity():
    with pytest.raises(OrbitCapError):
        parse_schedule(f"list:{10 ** 25}")


def test_read_config(tmp_path):
    p = tmp_path / "scan.cfg"
    p.write_text(
        "# one-unit scan\n"
        "family = " + ONE_UNIT + "\n"
        "schedule = list:1000\n"
        "samples=60\n"
        "\n"
        "h = 10,100\n",
        encoding="ascii")
    cfg = read_config(str(p))
    assert cfg["family"] == ONE_UNIT
    assert cfg["schedule"] == "list:1000"
    assert cfg["samples"] == "60"
    assert cfg["h"] == "10,100"


def test_read_config_rejects_unknown_key(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("familly = x\n", encoding="ascii")
    with pytest.raises(ConfigError):
        read_config(str(p))
    p.write_text("no equals sign\n", encoding="ascii")
    with pytest.raises(ConfigError):
        read_config(str(p))
    with pytest.raises(ConfigError):
        read_config(str(tmp_path / "missing.cfg"))


def test_non_ascii_config_is_a_config_error(tmp_path, capsys):
    # one non-ASCII byte, even in a comment, fails the ASCII decode
    p = tmp_path / "scan.cfg"
    p.write_bytes("# m\u00e4ss\nfamily = ".encode("utf-8") + ONE_UNIT.encode("ascii")
                  + b"\nschedule = list:1000\n")
    with pytest.raises(ConfigError):
        read_config(str(p))
    assert main(["scan-family", "--config", str(p)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_exit_config_errors(capsys):
    assert main(["scan-family", "--schedule", "list:1"]) == EXIT_CONFIG
    assert main(["scan-family", "--family", ONE_UNIT]) == EXIT_CONFIG
    assert main(["scan-family", "--family", "not json", "--schedule", "list:1"]) == EXIT_CONFIG
    assert main(["scan-family", "--family", ONE_UNIT, "--schedule", "list:1",
                 "--precision-bits", "32"]) == EXIT_CONFIG
    assert main(["lambda-orbit", "--map", "Q", "--start", "3"]) == EXIT_CONFIG
    assert main(["lambda-orbit", "--map", "T", "--start", "x"]) == EXIT_CONFIG
    assert main(["emit-curves", "--a-tilde", "1/2", "--b-tilde", "1/4"]) == EXIT_CONFIG
    assert main(["emit-curves", "--a-tilde", "0", "--b-tilde", "1",
                 "--steps", "1"]) == EXIT_CONFIG
    assert main(["certify", "--poly", "{}", "--unit", "1,0"]) == EXIT_CONFIG
    assert main(["certify", "--poly", '{"p2":"0","p1":"-3","p0":"-1"}',
                 "--unit", "1,0"]) == EXIT_CONFIG
    capsys.readouterr()
    member = ["--family", ONE_UNIT, "--schedule", "list:1000", "--samples", "60"]
    for bad in (["mass-profile", "--tight-r-cap", "abc"],
                ["mass-profile", "--tight-r-cap", "0.5"],
                ["mass-profile", "--tight-r-cap", "nan"],
                ["scan-family", "--tight-r-cap", "nan"],
                ["scan-family", "--H", "nan"],
                ["mass-profile", "--H", "nan"]):
        assert main(bad[:1] + member + bad[1:]) == EXIT_CONFIG, bad
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ")
    # valid JSON that is not a family descriptor: a missing key, not an
    # object, a non-integer parameter
    seed_x = SEED_RANK1.replace('"a":"1"', '"a":"x"')
    for family in ('{"kind":"one_unit"}', "[1,2]", seed_x):
        for command in ("scan-family", "mass-profile", "verify"):
            argv = [command, "--family", family, "--schedule", "list:1000", "--samples", "60"]
            assert main(argv) == EXIT_CONFIG, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("config error: ")


@pytest.mark.parametrize("command", [["scan-family", "--no-mass"], ["mass-profile"]])
def test_each_member_is_built_once(command, monkeypatch, capsys):
    # the descriptor is read once per t, by the row that prints it, and not
    # again to check it
    calls = []
    build = families.family_from_json

    def counting(d):
        calls.append(d["t"])
        return build(d)

    monkeypatch.setattr(families, "family_from_json", counting)
    assert main(command[:1] + ["--family", ONE_UNIT, "--schedule", "list:1000,-1000",
                               "--samples", "60"] + command[1:]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert calls == ["1000", "-1000"]


@pytest.mark.parametrize("command", ["scan-family", "mass-profile", "verify"])
def test_a_malformed_descriptor_exits_2_under_jobs_2(command, capsys):
    argv = [command, "--family", '{"kind":"one_unit"}', "--schedule", "list:1000,2000",
            "--samples", "60", "--jobs", "2"]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: bad family descriptor: ")


@pytest.mark.parametrize("flag", ["--samples", "--jobs", "--precision-bits"])
def test_explicit_zero_is_range_checked(flag, capsys):
    # 0 is a value to range-check, not a missing flag to fill with the default
    assert main(["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000",
                 flag, "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error")


def test_explicit_zero_samples_overrides_the_config_file(tmp_path, capsys):
    cfgp = tmp_path / "scan.cfg"
    cfgp.write_text("family = " + ONE_UNIT + "\nschedule = list:1000\nsamples = 600\n",
                    encoding="ascii")
    assert main(["scan-family", "--config", str(cfgp), "--samples", "0"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error")


def test_verify_bad_spots_is_a_config_error(capsys):
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000",
                 "--spots", "abc"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error: ")


@pytest.mark.parametrize("value", ["0", "63", str((1 << 20) + 1)])
def test_emit_curves_range_checks_explicit_precision_bits(value, capsys):
    assert main(["emit-curves", "--a-tilde", "0", "--b-tilde", "1/2", "--steps", "4",
                 "--precision-bits", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error")


@pytest.mark.parametrize("value", ["0", "63", str((1 << 20) + 1)])
def test_certify_range_checks_explicit_precision_bits(value, capsys):
    assert main(["certify", "--poly", '{"p2":"-1000","p1":"-1003","p0":"-1"}',
                 "--unit", "1,0", "--unit", "1,-1", "--precision-bits", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error")


@pytest.mark.parametrize("spots", ["0", "-3"])
def test_verify_range_checks_spots(spots, capsys):
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000,2000",
                 "--spots", spots]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("config error")


def test_infinite_height_and_cap_are_accepted(capsys):
    assert main(["mass-profile", "--family", ONE_UNIT, "--schedule", "list:1000",
                 "--samples", "60", "--H", "inf", "--tight-r-cap", "inf"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == (
        "1000,997995005977,57.715717717505022,4.6055033534314536,inf,0.0000000000,1.00")


def test_exit_capacity(capsys):
    assert main(["scan-family", "--family", ONE_UNIT,
                 "--schedule", f"list:{10 ** 25}"]) == EXIT_CAPACITY
    capsys.readouterr()


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------


def test_scan_family_golden(capsys):
    assert main(["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000",
                 "--samples", "60", "--H", "10"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("t,status,p2,p1,p0,irreducible,disc,units_verified,"
                      "rel_reg,cusick_ratio,certified,shape_re,shape_im,"
                      "shape_reduced,ht,ceil_w,mass_h10")
    assert out[1] == ("1000,ok,999,-1000,1,true,997995005977,2/2,"
                      "47.710156953439039,0.069277652051002794,true,"
                      "-0.49985531696920216,0.86627643160861645,true,"
                      "57.715717717505022,4.6055033534314536,0.3076923077")


def test_scan_family_non_ok_rows(capsys):
    assert main(["scan-family", "--family", ONE_UNIT, "--schedule", "list:-2",
                 "--samples", "60"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == (
        "-2,reducible_or_complex,-3,2,1,false,,,,,,,,,,,")
    assert main(["scan-family", "--family", SEED_RANK1, "--schedule", "list:5",
                 "--samples", "60"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1] == (
        "5,ok,5,-18,-1,true,33521,1/2,,,,,,,,,")


def test_scan_family_no_mass(capsys):
    assert main(["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000",
                 "--no-mass"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0].endswith("ht,ceil_w")
    assert len(out[1].split(",")) == 16


def _scan_goldens():
    # tests/golden/scan_no_mass.txt: blocks headed "== <bits> <schedule>
    # <family>", each followed by the CSV that scan-family --no-mass prints
    blocks, text = [], (Path(__file__).parent / "golden" / "scan_no_mass.txt").read_text(encoding="ascii")
    for block in text.split("== ")[1:]:
        head, *rows = block.splitlines()
        bits, schedule, family = head.split(" ", 2)
        blocks.append(pytest.param(bits, schedule, family, rows, id=f"{json.loads(family)['kind']}-{bits}-{schedule}"))
    return blocks


@pytest.mark.parametrize("bits,schedule,family,rows", _scan_goldens())
def test_scan_family_no_mass_golden(capsys, bits, schedule, family, rows):
    # every byte of the rows of the three families at t = +-10^3, +-10^6,
    # ..., +-10^24, at 64 and 192 bits
    assert main(["scan-family", "--family", family, "--schedule", schedule,
                 "--precision-bits", bits, "--no-mass"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == rows


def test_mass_profile_golden(capsys):
    assert main(["mass-profile", "--family", ONE_UNIT,
                 "--schedule", "list:1000000", "--samples", "60",
                 "--H", "10", "--H", "100"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "t,disc,ht,ceilW,H,fraction,tight_r"
    assert out[1] == ("1000000,999997999995000005999977,5773.500767388945,"
                      "9.2103407053093491,10,0.8351648352,1.00")
    assert out[2] == ("1000000,999997999995000005999977,5773.500767388945,"
                      "9.2103407053093491,100,0.3076923077,1.00")


def test_mass_profile_error_rows(capsys):
    assert main(["mass-profile", "--family", ONE_UNIT, "--schedule", "list:0",
                 "--samples", "60"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["0,DomainError,,,10,,"]
    assert main(["mass-profile", "--family", SEED_RANK1, "--schedule", "list:5",
                 "--samples", "60"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1:] == ["5,InvalidParamsError,,,10,,"]


def test_mass_profile_builds_the_hexagon_once_per_row(monkeypatch, capsys):
    # the tightness loop tries up to 101 values of r on the row's hexagon;
    # it must read the one hexagon, not rebuild it for each
    built = []

    def counting(phi, prec):
        built.append(phi)
        return hex_domain(phi, prec)

    monkeypatch.setattr(masses, "hex_domain", counting)
    assert main(["mass-profile", "--family", ONE_UNIT, "--schedule", "list:1000000",
                 "--samples", "60", "--H", "10", "--H", "100"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert len(built) == 1


def test_emit_curves_golden(capsys):
    assert main(["emit-curves", "--a-tilde", "0", "--b-tilde", "1",
                 "--steps", "4"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r,re,im,reduced"
    assert out[1] == "0.0000000000,0.5,0.86602540378443865,true"
    # the arc folds: cos(angle) at r=1/4 and r=1/2 differ only in sign
    assert out[2] == "0.2500000000,0.14285714285714286,0.98974331861078702,true"
    assert out[3] == "0.5000000000,0.14285714285714286,0.98974331861078702,true"
    assert out[5] == "1.0000000000,0.5,0.86602540378443865,true"


def test_lambda_orbit_golden(capsys):
    assert main(["lambda-orbit", "--map", "T", "--start", "3",
                 "--steps", "3"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "step,num,den,decimal"
    assert out[1].startswith("0,3,1,3.0000000")
    assert out[2].startswith("1,8,3,2.6666666666666666666666666666666666666666666666667")
    assert out[3].startswith("2,21,8,2.625")
    assert out[4].startswith("3,55,21,2.6190476190476")


def test_lambda_orbit_from_infinity(capsys):
    assert main(["lambda-orbit", "--map", "R", "--start", "inf",
                 "--steps", "2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0,1,0,inf"
    assert out[2].startswith("1,5,2,2.5")


def test_certify_golden(capsys):
    assert main(["certify", "--poly", '{"p2":"-1000","p1":"-1003","p0":"-1"}',
                 "--unit", "1,0", "--unit", "1,-1", "--unit", "1,1"]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["disc"] == "1006027054081"
    assert d["units_kept"] == [[1, 0], [1, -1]]
    assert d["units_dropped"] == [{"reason": "norm=2003", "unit": [1, 1]}]
    assert d["report"] == {
        "certified": True, "margin_bits": 32,
        "rel_reg": "47.73781955968307924364580781123161320999",
        "cusick_ratio": "0.06927549204855536848270441962452536351666"}


# two_unit (1, 1, 2, 3) and the seed kind (x^3 - 3x - 1 along x(x + 1)) at
# t = 10^3, 10^12 and 10^24, with each member's candidate units: the reports
# at the default 192 bits, each value to the digits its error bound backs
CERTIFY_GOLDEN = [
    ("2013", "-5039", "3026", ["1,1", "2,3"],
     "57.40277931735648892440574700049396370364", "0.07502936397096601173282559672036972089696"),
    ("2000000000013", "-5000000000039", "3000000000026", ["1,1", "2,3"],
     "801.7780566742960412681704714622206703649", "0.06563572912149895297315090201599385490338"),
    ("2000000000000000000000013", "-5000000000000000000000039",
     "3000000000000000000000026", ["1,1", "2,3"],
     "3130.5027691655500018446870006721", "0.064067864560749902058404889863904"),
    ("1000", "997", "-1", ["1,0", "1,-1"],
     "47.69637315234856836567785331103199511999", "0.06927867030535698245606447437659141088430"),
    ("1000000000000", "999999999997", "-1", ["1,0", "1,-1"],
     "763.4733279088064204575322187594455740392", "0.06409786413279216098976554465163001867874"),
    ("1000000000000000000000000", "999999999999999999999997", "-1", ["1,0", "1,-1"],
     "3053.89331163555725408351967404403", "0.0632913690312784904722458977399884"),
]
GOLDEN_IDS = [f"{kind}-10^{k}" for kind in ("two_unit", "seed") for k in (3, 12, 24)]


@pytest.mark.parametrize("p2,p1,p0,cand,rel_reg,ratio", CERTIFY_GOLDEN, ids=GOLDEN_IDS)
def test_certify_golden_families(capsys, p2, p1, p0, cand, rel_reg, ratio):
    poly = json.dumps({"p2": p2, "p1": p1, "p0": p0})
    assert main(["certify", "--poly", poly, *(a for u in cand for a in ("--unit", u))]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["report"] == {"certified": True, "margin_bits": 32,
                           "rel_reg": rel_reg, "cusick_ratio": ratio}


README_POLY = ("-1000", "-1003", "-1", ["1,0", "1,-1"])


@pytest.mark.parametrize("p2,p1,p0,cand", [README_POLY] + [g[:4] for g in CERTIFY_GOLDEN],
                         ids=["readme"] + GOLDEN_IDS)
def test_certify_prints_only_backed_digits(capsys, p2, p1, p0, cand):
    # at 64, 96 and 192 bits, the 768-bit rel_reg and cusick_ratio lie
    # within one unit of the last digit certify prints
    poly = json.dumps({"p2": p2, "p1": p1, "p0": p0})
    truth = _Member(MonicCubic(int(p2), int(p1), int(p0)),
                    [tuple(map(int, u.split(","))) for u in cand], 768).certificate
    for bits in (64, 96, 192):
        assert main(["certify", "--poly", poly, "--precision-bits", str(bits),
                     *(a for u in cand for a in ("--unit", u))]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)["report"]
        for key, exact in (("rel_reg", truth.rel_reg), ("cusick_ratio", truth.cusick_ratio)):
            text = report[key]
            mantissa, _, exponent = text.partition("e")  # nstr's fixed or scientific form
            unit = Fraction(10) ** (int(exponent or 0) - len(mantissa.split(".")[1]))
            assert abs(Fraction(text) - mpf_to_fraction(exact)) <= unit, (bits, key, text)


def test_certify_domain_error_reported(capsys):
    assert main(["certify", "--poly", '{"p2":"0","p1":"0","p0":"-2"}',
                 "--unit", "1,0", "--unit", "1,-1"]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["report"] is None
    assert d["error"].startswith("DomainError")


def test_certify_not_enough_units(capsys):
    assert main(["certify", "--poly", '{"p2":"-1000","p1":"-1003","p0":"-1"}',
                 "--unit", "1,0", "--unit", "1,1"]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["report"] is None
    assert d["error"] == "fewer than two verified units"


def test_verify_passes(capsys):
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000,10000",
                 "--spots", "2"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "VERIFY t=1000: PASS (status=ok/ok)"
    assert out[1] == "VERIFY t=10000: PASS (status=ok/ok)"
    assert out[2] == "verified 2 rows, 0 failures"


@pytest.mark.parametrize("family, schedule, bits", [
    (ONE_UNIT, "list:1000000000000", "64"),
    ('{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}', "geom:-1000:-1000000000000000000000000:10", "64"),
    ('{"kind":"two_unit","a":"1","b":"1","c":"2","d":"3"}', "geom:-1000:-1000000000000000000000000:10", "96"),
], ids=["one_unit-t12-64", "two_unit-negative-64", "two_unit-negative-96"])
def test_verify_compares_shapes_as_points_of_the_surface(family, schedule, bits, capsys):
    # one_unit (1, 1) at t = 10^12 lies 3.6e-14 inside the left edge; at 64
    # bits its radius reaches the edge, so it prints the right edge's side,
    # and at 128 bits the left one: the same point of the surface
    spots = len(parse_schedule(schedule))
    assert main(["verify", "--family", family, "--schedule", schedule, "--spots", str(spots),
                 "--precision-bits", bits]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"verified {spots} rows, 0 failures"


def moved_verdict(monkeypatch, capsys, key, rel, reg_err=None) -> str:
    # verify's verdict on one_unit (1, 1) at t = 1000 and 192 bits, with the
    # 384-bit row's value under key moved by a relative rel (and its
    # regulator's error bound set to reg_err, if given)
    import mpmath as mp

    from cubicunits import cli

    audit = cli._audit_point

    def moved(cfg, t, bits):
        row = audit(cfg, t, bits)
        if bits > cfg.precision_bits:
            with mp.workprec(512):
                row[key] = row[key] * (1 + mp.mpf(rel))
            if reg_err is not None:
                row["reg_err"] = mp.mpf(reg_err)
        return row

    monkeypatch.setattr(cli, "_audit_point", moved)
    code = main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000", "--spots", "1"])
    line = capsys.readouterr().out.splitlines()[0]
    verdict = line.removeprefix("VERIFY t=1000: ").removesuffix(" (status=ok/ok)")
    assert code == (EXIT_OK if verdict == "PASS" else 1)
    return verdict


@pytest.mark.parametrize("key", ["reg"])
@pytest.mark.parametrize("rel, verdict", [(2e-12, "FAIL"), (-2e-12, "FAIL"), (5e-13, "PASS")])
def test_verify_compares_reg_and_ht_within_1e_12(monkeypatch, capsys, key, rel, verdict):
    # the doubled-precision row's regulator moved by a relative rel, its
    # error bound widened past the move: verify compares the two exactly,
    # within 1e-12 (1 + |hi|); the height has its own tolerance
    # (test_verify_compares_ht_within_one_rounding)
    assert moved_verdict(monkeypatch, capsys, key, rel, reg_err=1) == verdict


@pytest.mark.parametrize("rel, verdict", [(1e-50, "FAIL"), (-1e-50, "FAIL"), (1e-55, "PASS")])
def test_verify_compares_reg_within_both_error_bounds(monkeypatch, capsys, rel, verdict):
    # the doubled-precision row's regulator moved by a relative rel, far
    # inside 1e-12: the 192-bit regulator's error bound is 1.6e-54 of it
    # and the 384-bit one's 2.5e-112, and verify compares the two exactly
    # within their sum
    assert moved_verdict(monkeypatch, capsys, "reg", rel) == verdict


def test_verify_audits_the_regulator_at_each_width(monkeypatch, capsys):
    # both log vectors at 192 bits off by one relative factor 1 + 2^-60:
    # the shape, a point of the modular surface, cannot show a common
    # factor, and the regulator moves by 2^-59 of itself, far inside 1e-12
    # and below the rows' 53-bit rounding, but far outside the 192-bit
    # regulator's error bound
    import mpmath as mp

    from cubicunits import cli

    from .oracles import log_vector

    logs = cli._Member.logs.func

    def planted(self):
        if self.bits != 192:
            return logs(self)
        with mp.workprec(256):
            return tuple(log_vector(*(x * (1 + mp.ldexp(1, -60)) for x in v.coords), v.err)
                         for v in logs(self))

    monkeypatch.setattr(cli._Member, "logs", property(planted))
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000,1000000000000",
                 "--spots", "2"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "VERIFY t=1000: FAIL (status=ok/ok)", "VERIFY t=1000000000000: FAIL (status=ok/ok)",
        "verified 2 rows, 2 failures"]


def test_verify_computes_one_regulator_per_spot_and_width(monkeypatch, capsys):
    # the certificate reads the regulator each width's audit computes, so
    # each spot takes one regulator at 192 bits and one at 384
    from cubicunits import units

    widths = []
    regulator = units.relative_regulator_with_error

    def counted(*args):
        widths.append(args[-1])
        return regulator(*args)

    monkeypatch.setattr(units, "relative_regulator_with_error", counted)
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000,1000000000000",
                 "--spots", "2"]) == EXIT_OK
    assert sorted(widths) == [192, 192, 384, 384]


@pytest.mark.parametrize("lo, hi, verdict", [(True, False, "FAIL"), (False, True, "PASS")])
def test_verify_lets_a_certificate_appear_but_not_vanish(monkeypatch, capsys, lo, hi, verdict):
    # "certified" is one-sided: false is inconclusive, so the doubled width
    # may certify a spot the run's width left open, but a spot certified at
    # the run's width must stay certified
    from cubicunits import cli

    audit = cli._audit_point

    def planted(cfg, t, bits):
        row = audit(cfg, t, bits)
        row["certified"] = lo if bits == cfg.precision_bits else hi
        return row

    monkeypatch.setattr(cli, "_audit_point", planted)
    code = main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000", "--spots", "1"])
    assert capsys.readouterr().out.splitlines()[0] == f"VERIFY t=1000: {verdict} (status=ok/ok)"
    assert code == (EXIT_OK if verdict == "PASS" else 1)


@pytest.mark.parametrize("rel, verdict", [
    (2e-12, "FAIL"), (-2e-12, "FAIL"), (5e-13, "FAIL"), (1e-57, "FAIL"), (-1e-57, "FAIL"),
    (1e-60, "PASS"), (-1e-60, "PASS")])
def test_verify_compares_ht_within_one_rounding(monkeypatch, capsys, rel, verdict):
    # the doubled-precision row's height moved by a relative rel: verify
    # compares the two exactly, within one rounding at the lower width,
    # 2^(1-192) |hi| ~ 3.2e-58 |hi|; each height is correctly rounded, so
    # unmoved they differ by at most 2^-192 |hi| ~ 1.6e-58 |hi|
    assert moved_verdict(monkeypatch, capsys, "ht", rel) == verdict


def test_verify_fails_a_planted_height_bias(monkeypatch, capsys):
    # a relative bias of 1e-30 in the height at 192 bits, far inside the
    # regulator's 1e-12 but far outside one rounding, fails every spot
    import mpmath as mp

    from cubicunits import families, masses

    height = masses.lattice_height

    def biased(order, prec=None):
        ht = height(order, prec)
        if prec == 192:
            with mp.workprec(256):
                return ht * (1 + mp.mpf("1e-30"))
        return ht

    monkeypatch.setattr(masses, "lattice_height", biased)
    assert main(["verify", "--family", ONE_UNIT, "--schedule", "geom:1000:1000000000000000000000000:10",
                 "--spots", "22"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "verified 22 rows, 22 failures"


def test_verify_rank_below_two(capsys):
    assert main(["verify", "--family", SEED_RANK1, "--schedule", "list:5",
                 "--samples", "60"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "VERIFY t=5: PASS (status=rank<2/rank<2)", "verified 1 rows, 0 failures"]


# ---------------------------------------------------------------------------
# config file flow and determinism
# ---------------------------------------------------------------------------


def test_scan_with_config_file(tmp_path, capsys):
    cfgp = tmp_path / "scan.cfg"
    outp = tmp_path / "rows.csv"
    cfgp.write_text(
        "family = " + ONE_UNIT + "\n"
        "schedule = list:1000\n"
        "samples = 60\n"
        "h = 10\n"
        f"out = {outp}\n",
        encoding="ascii")
    assert main(["scan-family", "--config", str(cfgp)]) == EXIT_OK
    body = outp.read_bytes()
    assert body.endswith(b"\n") and b"\r" not in body
    assert body.decode("ascii").splitlines()[1].startswith("1000,ok,999,")
    capsys.readouterr()


def test_flags_override_config(tmp_path, capsys):
    cfgp = tmp_path / "scan.cfg"
    cfgp.write_text(
        "family = " + ONE_UNIT + "\nschedule = list:1000\nsamples = 60\n",
        encoding="ascii")
    assert main(["scan-family", "--config", str(cfgp),
                 "--schedule", "list:7", "--no-mass"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("7,")
    assert len(out) == 2


def test_jobs_do_not_change_bytes(tmp_path):
    args = ["scan-family", "--family", ONE_UNIT,
            "--schedule", "list:1000,31623,1000000",
            "--samples", "60", "--H", "10"]
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert main(args + ["--out", str(serial)]) == EXIT_OK
    assert main(args + ["--jobs", "3", "--out", str(pooled)]) == EXIT_OK
    assert serial.read_bytes() == pooled.read_bytes()
    again = tmp_path / "again.csv"
    assert main(args + ["--out", str(again)]) == EXIT_OK
    assert serial.read_bytes() == again.read_bytes()


def test_in_process_calls_match_separate_processes(capsys):
    # the parser is built once per process; --H appends, so a default list
    # shared between parses would carry heights from one call to the next
    calls = [
        ["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000",
         "--samples", "60", "--H", "10", "--H", "100"],
        ["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000",
         "--samples", "60", "--H", "9.99"],
        ["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000", "--no-mass"],
        ["scan-family", "--family", ONE_UNIT, "--schedule", "list:1000", "--samples", "60"],
        ["mass-profile", "--family", ONE_UNIT, "--schedule", "list:1000",
         "--samples", "60", "--H", "10", "--H", "100"],
    ]
    in_process = []
    for argv in calls:
        assert main(argv) == EXIT_OK
        in_process.append(capsys.readouterr().out)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    for argv, out in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "cubicunits.cli", *argv],
                              env=env, stdout=subprocess.PIPE, check=True, timeout=120)
        assert proc.stdout.decode("ascii") == out
    assert in_process[3].splitlines()[0].endswith(",ceil_w,mass_h10")


def test_cli_import_leaves_the_process_pool_unloaded():
    # only --jobs > 1 uses the pool, so importing the CLI loads neither
    # concurrent.futures nor multiprocessing
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import cubicunits.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    proc = subprocess.run([sys.executable, "-c", code, src],
                          stdout=subprocess.PIPE, check=True, timeout=120)
    assert proc.stdout.decode("ascii").strip() == "[]"


def test_mass_stage_runs_without_numpy(capsys):
    # the README scan and a mass profile, in an interpreter where importing
    # numpy fails, give the bytes of the in-process run
    calls = [
        ["scan-family", "--family", ONE_UNIT, "--schedule", "geom:1000:1000000:10",
         "--samples", "600", "--H", "10"],
        ["mass-profile", "--family", ONE_UNIT, "--schedule", "list:1000,1000000",
         "--samples", "600", "--H", "10", "--H", "100"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.modules['numpy'] = None; sys.path.insert(0, sys.argv[1]); "
            "from cubicunits.cli import main; sys.exit(main(sys.argv[2:]))")
    for argv in calls:
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-c", code, src, *argv],
                              stdout=subprocess.PIPE, timeout=300)
        assert proc.returncode == 0
        assert proc.stdout.decode("ascii") == expected
