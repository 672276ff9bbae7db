"""CLI: schedule/config parsing, exit codes, golden outputs, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cubicunits.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_OK,
    ConfigError,
    main,
    parse_schedule,
    read_config,
)
from cubicunits import masses
from cubicunits.errors import OrbitCapError
from cubicunits.masses import hex_domain

ONE_UNIT = '{"kind":"one_unit","a":"1","b":"1"}'
# x^3 - 3x - 1 along x(x - 3): at t=5 theta - 3 fails the norm check, so the
# member has fewer than two verified units
SEED_RANK1 = ('{"kind":"seed","h":{"p2":"0","p1":"-3","p0":"-1"},'
              '"a":"1","b":"0","c":"1","d":"3"}')


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


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
        "rel_reg": "47.73781955968308210458417306654155254364",
        "cusick_ratio": "0.06927549204855537263440038734389760577391"}


# two_unit (1, 1, 2, 3) and the seed kind (x^3 - 3x - 1 along x(x + 1)) at
# t = 10^3, 10^12 and 10^24, with each member's candidate units: the full
# 40-digit reports, recorded before the regulator and the certificate moved
# to raw mpmath tuples
CERTIFY_GOLDEN = [
    ("2013", "-5039", "3026", ["1,1", "2,3"],
     "57.40277931735648309086172957904636859894", "0.07502936397096600410798403802210288631043"),
    ("2000000000013", "-5000000000039", "3000000000026", ["1,1", "2,3"],
     "801.7780566742960672854678705334663391113", "0.06563572912149895510299752271569080537505"),
    ("2000000000000000000000013", "-5000000000000000000000039",
     "3000000000000000000000026", ["1,1", "2,3"],
     "3130.502769165550034813350066542625427246", "0.06406786456074990273313096289536664772808"),
    ("1000", "997", "-1", ["1,0", "1,-1"],
     "47.69637315234856345114167197607457637787", "0.06927867030535697531773278775257914051403"),
    ("1000000000000", "999999999997", "-1", ["1,0", "1,-1"],
     "763.4733279088064819006831385195255279541", "0.06409786413279216614826237168924343598260"),
    ("1000000000000000000000000", "999999999999999999999997", "-1", ["1,0", "1,-1"],
     "3053.893311635557438421528786420822143555", "0.06329136903127849429261673937039941848763"),
]


@pytest.mark.parametrize("p2,p1,p0,cand,rel_reg,ratio", CERTIFY_GOLDEN)
def test_certify_golden_families(capsys, p2, p1, p0, cand, rel_reg, ratio):
    poly = json.dumps({"p2": p2, "p1": p1, "p0": p0})
    assert main(["certify", "--poly", poly, *(a for u in cand for a in ("--unit", u))]) == EXIT_OK
    d = json.loads(capsys.readouterr().out)
    assert d["report"] == {"certified": True, "margin_bits": 32,
                           "rel_reg": rel_reg, "cusick_ratio": ratio}


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


@pytest.mark.parametrize("key", ["reg", "ht"])
@pytest.mark.parametrize("rel, verdict", [(2e-12, "FAIL"), (-2e-12, "FAIL"), (5e-13, "PASS")])
def test_verify_compares_reg_and_ht_within_1e_12(monkeypatch, capsys, key, rel, verdict):
    # the doubled-precision row's regulator or height moved by a relative
    # rel: verify compares the two exactly, within 1e-12 (1 + |hi|)
    import mpmath as mp

    from cubicunits import cli

    audit = cli._audit_point

    def moved(cfg, t, bits):
        row = audit(cfg, t, bits)
        if bits > cfg.precision_bits:
            with mp.workprec(256):
                row[key] = row[key] * (1 + mp.mpf(rel))
        return row

    monkeypatch.setattr(cli, "_audit_point", moved)
    code = main(["verify", "--family", ONE_UNIT, "--schedule", "list:1000", "--spots", "1"])
    assert capsys.readouterr().out.splitlines()[0] == f"VERIFY t=1000: {verdict} (status=ok/ok)"
    assert code == (EXIT_OK if verdict == "PASS" else 1)


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
