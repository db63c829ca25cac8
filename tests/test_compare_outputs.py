import json
import subprocess
import sys
from pathlib import Path

import pytest

from weyllab.cli import main

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def compare(a, b):
    out = subprocess.run(
        [sys.executable, str(SCRIPT), str(a), str(b)], capture_output=True, text=True
    )
    return out.returncode, out.stdout


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    """Two output trees of the same small fermi-arc run."""
    root = tmp_path_factory.mktemp("runs")
    for name in ("a", "b"):
        assert main(["fermi-arc", "--out", str(root / name)]) == 0
    return root / "a", root / "b"


def test_identical_runs_compare_equal(two_runs):
    assert compare(*two_runs) == (0, "identical\n")


def test_one_perturbed_float_is_one_changed_cell(two_runs, tmp_path):
    a, b = two_runs
    lines = (b / "fermi_arc_spectra.csv").read_text().splitlines(keepends=True)
    theta1, delta0, r = lines[2].rstrip("\n").split(",")
    lines[2] = f"{theta1},{delta0},{float(r) * (1 + 1e-6)!r}\n"
    changed = tmp_path / "b"
    changed.mkdir()
    (changed / "fermi_arc_spectra.csv").write_text("".join(lines))
    for name in ("fermi_arc.json", "fermi-arc_manifest.json"):
        (changed / name).write_bytes((b / name).read_bytes())
    code, report = compare(a, changed)
    assert code == 1
    assert report.splitlines() == [
        "fermi_arc_spectra.csv: 1 changed cells, largest relative float change 1e-06"
    ]


def test_non_float_and_non_finite_changes_are_listed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for tree, payload in ((a, [4, 0.5, "x"]), (b, [6, float("nan"), "x"])):
        tree.mkdir()
        (tree / "t.json").write_text(json.dumps({"cells": payload}))
    (a / "only.txt").write_text("")
    code, report = compare(a, b)
    assert code == 1
    assert report.splitlines() == [
        "only.txt: only in A",
        "t.json: 2 changed cells, largest relative float change 0",
        "  $.cells[0]: non-float cell 4 -> 6",
        "  $.cells[1]: non-finite float 0.5 -> nan",
    ]
