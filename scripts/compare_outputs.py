#!/usr/bin/env python3
"""Compare two weyllab output trees, cell by cell.

    python scripts/compare_outputs.py A B

Walks both trees.  A file found in only one of them, or a file other
than CSV or JSON whose bytes differ, is reported as such.  For each CSV
or JSON file whose bytes differ, it reports how many of its cells
changed and the largest relative change among its float cells.  Every
non-float cell (text, integers, booleans, null) must be identical, and
the trees must agree on where the non-finite floats (nan, inf, -inf)
are; each cell that breaks either rule is listed.  Exits 0 when the
trees are identical and 1 otherwise.
"""

import argparse
import csv
import json
import math
import re
import sys
from pathlib import Path

INTEGER = re.compile(r"[+-]?\d+")
# Cells listed per file for non-float and non-finite changes.
SHOWN_PROBLEMS = 5


def csv_cells(path: Path) -> dict:
    """The cells of a CSV file, keyed by their line and column."""
    with path.open(newline="") as f:
        return {
            f"line {i}, column {j}": cell
            for i, row in enumerate(csv.reader(f), 1)
            for j, cell in enumerate(row, 1)
        }


def json_cells(path: Path) -> dict:
    """The leaves of a JSON document (empty containers included), keyed
    by their path."""

    def walk(node, loc):
        if isinstance(node, dict) and node:
            for key, value in node.items():
                yield from walk(value, f"{loc}.{key}")
        elif isinstance(node, list) and node:
            for k, value in enumerate(node):
                yield from walk(value, f"{loc}[{k}]")
        else:
            yield loc, node

    with path.open() as f:
        return dict(walk(json.load(f), "$"))


def as_float(cell):
    """The float a cell holds, or None for a non-float cell."""
    if isinstance(cell, str):
        if INTEGER.fullmatch(cell):
            return None
        try:
            return float(cell)
        except ValueError:
            return None
    return cell if isinstance(cell, float) else None


def compare_cells(a: dict, b: dict) -> tuple[int, float, list[str]]:
    """(changed cells, largest relative float change, problems) of two
    files' cells; a problem is a cell in one file only, a changed
    non-float cell or a change to or from a non-finite float."""
    changed, worst, problems = 0, 0.0, []
    for loc in [*a, *(loc for loc in b if loc not in a)]:
        if loc not in a or loc not in b:
            changed += 1
            problems.append(f"{loc}: only in {'A' if loc in a else 'B'}")
            continue
        x, y = a[loc], b[loc]
        if repr(x) == repr(y):  # so that nan matches nan, and 1 does not match 1.0
            continue
        changed += 1
        fx, fy = as_float(x), as_float(y)
        if fx is None or fy is None:
            problems.append(f"{loc}: non-float cell {x!r} -> {y!r}")
        elif not (math.isfinite(fx) and math.isfinite(fy)):
            problems.append(f"{loc}: non-finite float {x!r} -> {y!r}")
        elif fx != fy:
            worst = max(worst, abs(fx - fy) / max(abs(fx), abs(fy)))
    return changed, worst, problems


def compare_trees(a: Path, b: Path) -> list[str]:
    """Report lines for every file that differs; empty when the trees
    are identical."""
    names_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    report = []
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            report.append(f"{name}: only in {'A' if name in names_a else 'B'}")
            continue
        if (a / name).read_bytes() == (b / name).read_bytes():
            continue
        cells = {".csv": csv_cells, ".json": json_cells}.get(name.suffix)
        if cells is None:
            report.append(f"{name}: bytes differ")
            continue
        changed, worst, problems = compare_cells(cells(a / name), cells(b / name))
        report.append(
            f"{name}: {changed} changed cells, "
            f"largest relative float change {worst:.3g}"
        )
        report += [f"  {problem}" for problem in problems[:SHOWN_PROBLEMS]]
        if len(problems) > SHOWN_PROBLEMS:
            report.append(f"  ... and {len(problems) - SHOWN_PROBLEMS} more")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("a", type=Path, help="the first output tree")
    parser.add_argument("b", type=Path, help="the second output tree")
    args = parser.parse_args(argv)
    for tree in (args.a, args.b):
        if not tree.is_dir():
            parser.error(f"{tree} is not a directory")
    report = compare_trees(args.a, args.b)
    print("\n".join(report) if report else "identical")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
