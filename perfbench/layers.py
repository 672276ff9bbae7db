"""Which public functions the traced run wraps, and the per-layer metrics
derived from their spans. Every metric is per pass of the workload, so
counts repeat exactly from run to run."""

from __future__ import annotations

from collections import Counter, defaultdict

from .spans import Span, self_times


def targets():
    """(module, attribute, span name, info) for every traced call site.

    A function imported into several modules is patched in each module that
    calls it, under one span name.
    """
    from cubicunits import cli, families, masses, roots, shapes, units

    def bits(root):
        return root.prec

    return [
        (families, "family_from_json", "families.family_from_json", None),
        (cli, "is_irreducible", "cubics.is_irreducible", None),
        (cli, "is_totally_real", "cubics.is_totally_real", None),
        (units, "is_irreducible", "cubics.is_irreducible", None),
        (units, "is_totally_real", "cubics.is_totally_real", None),
        (units, "discriminant", "cubics.discriminant", None),
        (roots, "is_totally_real", "cubics.is_totally_real", None),
        (units, "build_order", "units.build_order", None),
        (units, "refined_roots", "roots.refined_roots", None),
        (roots, "refine_root", "roots.refine_root", bits),
        (units, "refine_root", "roots.refine_root", bits),  # log_embed's escalation
        (units, "log_embed", "units.log_embed", None),
        (masses, "log_embed", "units.log_embed", None),
        (units, "relative_regulator_with_error", "units.relative_regulator_with_error", None),
        (units, "certify_fundamental", "units.certify_fundamental", None),
        (shapes, "shape_from_units", "shapes.shape_from_units", None),
        (masses, "embed_order_lattice", "masses.embed_order_lattice", None),
        (masses, "lattice_height", "masses.lattice_height", None),
        (masses, "shortest_vector_norm", "masses.shortest_vector_norm", None),
        (masses, "make_simplex", "masses.make_simplex", None),
        (masses, "hex_domain", "masses.hex_domain", None),
        (masses, "check_tight", "masses.check_tight", None),
        (masses, "hexagon_grid", "masses.hexagon_grid", len),
        (masses, "mass_above_height", "masses.mass_above_height", None),
    ]


# name -> unit, in report order; BENCHMARK.json lists these under per_layer
UNITS = {
    "masses.enum_calls": "count",
    "masses.enum_ms": "ms",
    "masses.enum_ms_per_call": "ms",
    "masses.grid_points": "count",
    "masses.enum_frac": "ratio",
    "masses.exhibit_ms": "ms",
    "masses.mass_ms": "ms",
    "masses.mass_calls": "count",
    "masses.check_tight_calls": "count",
    "masses.check_tight_ms": "ms",
    "masses.height_ms": "ms",
    "masses.simplex_ms": "ms",
    "roots.refine_ms": "ms",
    "roots.refine_calls": "count",
    "roots.bits_max": "bits",
    "cubics.validate_ms": "ms",
    "units.build_order_self_ms": "ms",
    "units.log_embed_ms": "ms",
    "units.log_embed_calls": "count",
    "units.log_embed_escalations": "count",
    "units.certify_ms": "ms",
    "shapes.shape_ms": "ms",
    "families.build_ms": "ms",
    "cli.self_ms": "ms",
    "roots.errors": "count",
    "units.errors": "count",
    "masses.errors": "count",
}


def layer_metrics(spans: list[Span], passes: int) -> tuple[dict[str, float], Counter]:
    """Per-pass layer metrics, and error counts keyed '<module>.errors.<Class>'."""
    selft = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def under(s: Span, name: str) -> bool:
        p = s.parent
        while p is not None:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def picked(name, parent=None, not_under=None):
        return [s for s in by_name[name]
                if (parent is None or (s.parent is not None and spans[s.parent].name == parent))
                and (not_under is None or not under(s, not_under))]

    def ms(group) -> float:
        return sum(s.end - s.start for s in group) / 1e6 / passes

    def self_ms(group) -> float:
        return sum(selft[s.id] for s in group) / 1e6 / passes

    def count(group) -> float:
        return len(group) / passes

    mass = "masses.mass_above_height"
    enum = picked("masses.shortest_vector_norm", parent=mass)
    grid_points = sum(s.info for s in by_name["masses.hexagon_grid"]) / passes
    refines = by_name["roots.refine_root"]
    validate = [s for name in ("cubics.is_irreducible", "cubics.is_totally_real",
                               "cubics.discriminant") for s in by_name[name]]
    m = {
        "masses.enum_calls": count(enum),
        "masses.enum_ms": ms(enum),
        "masses.enum_ms_per_call": ms(enum) / count(enum) if enum else 0.0,
        "masses.grid_points": grid_points,
        "masses.enum_frac": count(enum) / grid_points if grid_points else 0.0,
        "masses.exhibit_ms": self_ms(by_name[mass]),
        "masses.mass_ms": ms(by_name[mass]),
        "masses.mass_calls": count(by_name[mass]),
        "masses.check_tight_calls": count(by_name["masses.check_tight"]),
        "masses.check_tight_ms": ms(by_name["masses.check_tight"]),
        "masses.height_ms": ms(by_name["masses.lattice_height"])
        + ms(picked("masses.embed_order_lattice", not_under=mass)),
        "masses.simplex_ms": ms(by_name["masses.make_simplex"])
        + ms(picked("masses.hex_domain", not_under="masses.check_tight")),
        "roots.refine_ms": ms(by_name["roots.refined_roots"])
        + ms(picked("roots.refine_root", not_under="roots.refined_roots")),
        "roots.refine_calls": count(refines),
        "roots.bits_max": max((s.info for s in refines if s.info is not None), default=0),
        "cubics.validate_ms": ms(validate),
        "units.build_order_self_ms": self_ms(by_name["units.build_order"]),
        "units.log_embed_ms": ms(by_name["units.log_embed"]),
        "units.log_embed_calls": count(by_name["units.log_embed"]),
        "units.log_embed_escalations": count(
            picked("roots.refine_root", parent="units.log_embed")),
        "units.certify_ms": ms(by_name["units.relative_regulator_with_error"])
        + ms(by_name["units.certify_fundamental"]),
        "shapes.shape_ms": ms(by_name["shapes.shape_from_units"]),
        "families.build_ms": ms(by_name["families.family_from_json"]),
        "cli.self_ms": self_ms(by_name["member"]),
    }
    errors = Counter(f"{s.name.split('.')[0]}.errors.{s.error}" for s in spans if s.error)
    for module in ("roots", "units", "masses"):
        m[f"{module}.errors"] = sum(
            n for k, n in errors.items() if k.startswith(f"{module}.errors.")) / passes
    return m, errors
