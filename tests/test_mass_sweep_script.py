"""scripts/mass_sweep.py: its cells and the checks it fails on."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "mass_sweep.py"


@pytest.fixture(scope="module")
def sweep_script():
    spec = importlib.util.spec_from_file_location("mass_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_known_cells_are_the_eighteen(sweep_script):
    assert len(sweep_script.KNOWN) == 18


def test_a_slice_of_the_sweep(sweep_script):
    # one_unit at 10^3 decides, at 10^12 and H = 10 it is a known cell; an
    # ambient 16 bits prints the same cells
    families = {"one_unit": sweep_script.FAMILIES["one_unit"]}
    args = (families, ("list:1000,1000000000000",), ("10",))
    cells = sweep_script.sweep(*args)
    assert cells[("192", "one_unit", 1000, "10")][0].isdigit()
    assert cells[("384", "one_unit", 10 ** 12, "10")] == "PrecisionExhaustedError"
    assert len(cells) == 4 and sweep_script.bad_cells(cells) == []
    assert sweep_script.at_ambient(16, sweep_script.sweep, *args) == cells


def test_bad_cells_names_every_fault(sweep_script):
    good = {("192", "seed", 10 ** 12, "10"): "PrecisionExhaustedError",
            ("384", "seed", 10 ** 12, "10"): "PrecisionExhaustedError",
            ("192", "seed", 1000, "10"): "0.4", ("384", "seed", 1000, "10"): "0.4",
            ("192", "seed", 10 ** 9, "10"): "0.9",
            ("384", "seed", 10 ** 9, "10"): "PrecisionExhaustedError"}
    assert sweep_script.bad_cells(good) == [(("384", "seed", 10 ** 9, "10"), "PrecisionExhaustedError")]
    del good["384", "seed", 10 ** 9, "10"], good["192", "seed", 10 ** 9, "10"]
    assert sweep_script.bad_cells(good) == []
    for key, value in [(("192", "seed", 1000, "10"), "0.5"),
                       (("384", "seed", 1000, "10"), "InternalInconsistencyError"),
                       (("192", "seed", -10 ** 12, "10"), "PrecisionExhaustedError")]:
        cells = dict(good)
        cells[key] = value
        cells.setdefault(("384", *key[1:]), value)
        assert sweep_script.bad_cells(cells), (key, value)
