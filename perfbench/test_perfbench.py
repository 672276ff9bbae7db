"""Tests of the benchmark's own parts: the reference check, span self time,
and failure counting."""

from perfbench import refcheck
from perfbench.calibrate import CAL_REF_S, at_reference_speed
from perfbench.run import check, measure, references
from perfbench.spans import Span, Tracer, self_times
from perfbench.workloads import SPECS, T_MAX, T_MIN, members

PROFILE_HEADER = "t,disc,ht,ceilW,H,fraction,tight_r"
DECIDED = f"{PROFILE_HEADER}\n1000,997995005977,57.715717717505022,4.6055033534314536,10,0.4626439517,1.00\n"
FAILED = f"{PROFILE_HEADER}\n1000,PrecisionExhaustedError,,,10,,\n"


def test_changed_decided_cell_is_a_mismatch():
    out = DECIDED.replace("0.4626439517", "0.4626439518")
    cmp = refcheck.compare(out, DECIDED, numeric_tol=False)
    assert len(cmp.mismatches) == 1 and "fraction" in cmp.mismatches[0]
    assert refcheck.compare(DECIDED, DECIDED, numeric_tol=False).mismatches == []


def test_numeric_tolerance_covers_only_numeric_columns():
    out = DECIDED.replace("57.715717717505022", "57.715717717505029")
    assert refcheck.compare(out, DECIDED, numeric_tol=False).mismatches
    assert not refcheck.compare(out, DECIDED, numeric_tol=True).mismatches
    frac = DECIDED.replace("0.4626439517", "0.4626439518")
    assert refcheck.compare(frac, DECIDED, numeric_tol=True).mismatches


def test_blank_reference_cell_may_become_decided():
    cmp = refcheck.compare(DECIDED, FAILED, numeric_tol=False)
    assert cmp.mismatches == [] and cmp.lost == 0
    assert cmp.newly_decided == 5  # disc (was the exception class) .. tight_r
    back = refcheck.compare(FAILED, DECIDED, numeric_tol=False)
    assert back.mismatches == [] and back.lost == 5


def test_changed_row_shape_is_a_mismatch():
    assert refcheck.compare(DECIDED + DECIDED.splitlines()[1] + "\n", DECIDED, False).mismatches
    assert refcheck.compare("", DECIDED, False).mismatches


def test_split_by_t_groups_rows_under_the_header():
    both = DECIDED + "2000,1,2,3,10,0.5,1.00\n2000,1,2,3,100,0.25,1.00\n"
    parts = refcheck.split_by_t(both)
    assert parts["1000"] == DECIDED
    assert parts["2000"].splitlines()[0] == PROFILE_HEADER and len(parts["2000"].splitlines()) == 3


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        Span(0, "member", 0, 100, None, 0),
        Span(1, "a", 10, 40, 0, 0),
        Span(2, "b", 30, 60, 0, 0),   # overlaps a: union covers 10..60
        Span(3, "c", 15, 20, 1, 0),
        Span(4, "d", 90, 120, 0, 0),  # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 5, 30, 5, 30]


def test_tracer_nests_spans_and_counts_an_error_where_it_arose():
    tracer = Tracer()

    def inner():
        raise ValueError("boom")

    traced_inner = tracer.wrap("mod.inner", inner)
    traced_outer = tracer.wrap("mod.outer", lambda: traced_inner())
    with tracer.member(7):
        try:
            traced_outer()
        except ValueError:
            pass
    root, outer, inner_span = tracer.spans
    assert (outer.parent, inner_span.parent) == (root.id, outer.id)
    assert {s.member for s in tracer.spans} == {7}
    assert inner_span.error == "ValueError" and outer.error is None
    assert all(s.end >= s.start for s in tracer.spans)


def test_failing_member_counts_in_fail_frac():
    from cubicunits import cli

    todo = members("profile_high_t", 0)[:2]  # one_unit at 10^9 decides, at 10^12 raises
    refs, numeric_tol = references(cli, "profile_high_t", 0, todo)
    timed = measure(cli, todo, 0)
    chk = check(timed.runs, refs, numeric_tol)
    assert (chk.attempted, chk.failed, chk.mismatches) == (2, 1, [])

    good = todo[0].name
    refs[good] = refs[good].replace("0.9400998336", "0.9400998337", 1)
    chk = check(timed.runs, refs, numeric_tol)
    assert chk.failed == 2 and len(chk.mismatches) == 1


def test_reference_speed_undoes_a_uniform_host_slowdown():
    # a member that takes 1 s at reference speed, on a host running 1.5x slower
    assert abs(at_reference_speed(1.5, [1.5 * CAL_REF_S] * 3) - 1.0) < 1e-12
    assert at_reference_speed(1.0, [CAL_REF_S, CAL_REF_S]) == 1.0


def test_seeded_schedules():
    for workload, spec in SPECS.items():
        base = members(workload, 0)
        assert [m.t for m in base] == list(spec.ts) * len(spec.families)
        moved = members(workload, 3)
        assert moved == members(workload, 3)
        assert [m.t for m in moved] != [m.t for m in base]
        assert all(T_MIN <= m.t <= T_MAX for m in moved)
        assert all(abs(m.t - b.t) <= max(1, b.t // 100) for m, b in zip(moved, base))
