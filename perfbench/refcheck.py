"""Row checks: which member outputs failed, and which differ from a reference.

A cell is *undecided* when it is blank or carries an exception class name
(a stage raised and the CLI blanked the row). The reference is either the
stored seed-0 rows, compared byte for byte, or a recomputation at doubled
`--precision-bits`, where the numeric columns may differ within the
`verify` command's relative 1e-12 and every verdict and mass fraction must
be equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_ERROR_CELL = re.compile(r"[A-Za-z_]\w*(Error|Exception)")

# columns printed with 17 significant digits from a precision-dependent
# computation; every other column is exact (integers, verdicts, fractions)
NUMERIC_COLUMNS = frozenset(
    {"rel_reg", "cusick_ratio", "shape_re", "shape_im", "ht", "ceil_w", "ceilW"})
REL_TOL = 1e-12


def undecided(cell: str) -> bool:
    return cell == "" or _ERROR_CELL.fullmatch(cell) is not None


def has_error_status(output: str) -> bool:
    """Whether any data row names an exception class, i.e. a stage raised."""
    return any(_ERROR_CELL.fullmatch(cell)
               for line in output.splitlines()[1:] for cell in line.split(","))


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return False
    return abs(x - y) <= REL_TOL * (1 + abs(y))


@dataclass
class Comparison:
    mismatches: list[str] = field(default_factory=list)  # decided cell changed
    lost: int = 0           # decided in the reference, undecided now
    newly_decided: int = 0  # undecided in the reference, decided now


def compare(output: str, reference: str, numeric_tol: bool) -> Comparison:
    """Cell-by-cell comparison of one member's CSV output with its reference."""
    res = Comparison()
    out_lines, ref_lines = output.splitlines(), reference.splitlines()
    if len(out_lines) != len(ref_lines) or out_lines[:1] != ref_lines[:1]:
        res.mismatches.append(
            f"shape: {len(out_lines)} lines vs {len(ref_lines)}, "
            f"header {out_lines[:1]} vs {ref_lines[:1]}")
        return res
    header = ref_lines[0].split(",")
    for i, (line, ref) in enumerate(zip(out_lines[1:], ref_lines[1:]), 1):
        cells, ref_cells = line.split(","), ref.split(",")
        if len(cells) != len(ref_cells):
            res.mismatches.append(f"row {i}: {len(cells)} cells vs {len(ref_cells)}")
            continue
        for col, c, r in zip(header, cells, ref_cells):
            if c == r:
                continue
            if undecided(r):
                res.newly_decided += 0 if undecided(c) else 1
            elif undecided(c):
                res.lost += 1
            elif not (numeric_tol and col in NUMERIC_COLUMNS and _close(c, r)):
                res.mismatches.append(f"row {i} {col}: {c!r} != reference {r!r}")
    return res


def split_by_t(output: str) -> dict[str, str]:
    """Split one multi-t CLI output into per-t outputs (header + that t's rows)."""
    lines = output.splitlines()
    rows: dict[str, list[str]] = {}
    for line in lines[1:]:
        rows.setdefault(line.split(",", 1)[0], []).append(line)
    return {t: "\n".join([lines[0], *r]) + "\n" for t, r in rows.items()}
