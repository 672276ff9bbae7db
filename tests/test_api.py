"""The package's public names: one list per module, and the package's the union."""

import importlib

import cubicunits

MODULES = ["cubics", "errors", "families", "masses", "precision", "ratios", "roots", "shapes", "units"]


def test_every_public_name_resolves():
    for name in cubicunits.__all__:
        assert hasattr(cubicunits, name), name


def test_package_exports_the_union_of_the_module_lists():
    union = set()
    for name in MODULES:
        union |= set(importlib.import_module(f"cubicunits.{name}").__all__)
    assert set(cubicunits.__all__) - {"__version__"} == union
    assert len(cubicunits.__all__) == len(set(cubicunits.__all__))


def test_each_module_lists_only_its_own_names():
    # a name imported from another module belongs to that module's list
    for name in MODULES:
        module = importlib.import_module(f"cubicunits.{name}")
        for public in module.__all__:
            assert getattr(module, public).__module__ == module.__name__, (name, public)


# the public lists of the modules whose names have been pruned: a name
# comes back only with a use beyond its own tests
PINNED = {
    "cubics": ["MonicCubic", "eval_scaled", "norm_linear_form", "discriminant", "is_totally_real",
               "is_irreducible", "scale_root", "poly_from_json", "isolating_intervals"],
    "shapes": ["ShapePoint", "shape_from_units", "reduce_fundamental", "limit_shape_z", "curve_point",
               "cusick_angle_cos", "same_shape", "corner_distance"],
    "units": ["LogVector", "CubicOrderData", "RegulatorReport", "log_embed",
              "relative_regulator_with_error", "certify_fundamental", "build_order", "report_to_json"],
}


def test_pruned_modules_keep_their_pinned_lists():
    for name, names in PINNED.items():
        assert importlib.import_module(f"cubicunits.{name}").__all__ == names, name
    for gone in ("omega", "corner", "curve_gamma", "poly_to_json"):
        assert not hasattr(cubicunits, gone), gone
