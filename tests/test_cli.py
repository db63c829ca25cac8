import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cli_cases import CASES, check, stderr_message
from weyllab import cli, numerics, openchain, spectroscopy, topology
from weyllab.cli import main
from weyllab.config import DEFAULTS, KEYS, ConfigError, format_config, load_config
from weyllab.model import (
    ModelParams,
    SyntheticMomentum,
    bulk_band_sheet,
    chain_bands,
    weyl_points,
)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestConfig:
    def test_defaults_round_trip(self):
        cfg = load_config()
        assert cfg == DEFAULTS

    def test_file_then_set_priority(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("kappa = 0.5  # damping\nsites=12\n")
        cfg = load_config(f, ["kappa=0.7", "kappa=0.9"])
        assert cfg["kappa"] == 0.9
        assert cfg["sites"] == 12

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("bogus=1\n")
        with pytest.raises(ConfigError):
            load_config(f)

    def test_unreadable_file_is_named(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_bytes(b"kappa=0.2\n\xff\n")
        for path in (f, tmp_path, tmp_path / "missing.cfg"):
            with pytest.raises(ConfigError, match=re.escape(f"config file {path}:")):
                load_config(path)

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            load_config(None, ["sites=batman"])

    def test_odd_sites_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["sites=7"])

    def test_list_key(self):
        cfg = load_config(None, ["table1.sizes=4,12"])
        assert cfg["table1.sizes"] == [4, 12]

    def test_format_reads_back(self, tmp_path):
        # show-config's output is a config file giving the same values.
        f = tmp_path / "run.cfg"
        cfg = load_config(None, ["kappa=1", "sites=12", "table1.sizes=4,6"])
        f.write_text(format_config(cfg))
        assert load_config(f) == cfg

    def test_rules_hold_in_file_and_set(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("kappa=0.2\n\nsites=5  # odd\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: sites must be even"):
            load_config(f)
        for bad in ("winding.weyl=0", "winding.weyl=5", "table1.sizes=", "je=inf"):
            with pytest.raises(ConfigError, match="must be"):
                load_config(None, [bad])


class TestCommands:
    def test_show_config(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv("WEYLLAB_OUT", raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "kappa=0.1" in out
        assert "table1.sizes=4,6,8,12,20,36" in out
        assert not list(tmp_path.iterdir())  # no output directory

    def test_bulk_bands_gap_structure(self, tmp_path):
        out = tmp_path / "run"
        assert main(["bulk-bands", "--out", str(out), "--set", "bulk_bands.grid=41"]) == 0
        header, rows = read_csv(out / "bulk_bands.csv")
        assert header == ["theta1", "theta2", "E_minus", "E_plus"]
        assert len(rows) == 41 * 41
        gaps = {}
        for t1, t2, em, ep in rows:
            gaps[(float(t1), float(t2))] = float(ep) - float(em)
        closed = [k for k, g in gaps.items() if g < 1e-10]
        h = math.pi / 2
        assert sorted(closed) == sorted(
            [(s1 * h, s2 * h) for s1 in (-1, 1) for s2 in (-1, 1)]
        )

    def test_bulk_bands_kx_zero_fully_gapped(self, tmp_path):
        out = tmp_path / "run"
        assert (
            main(
                [
                    "bulk-bands",
                    "--out",
                    str(out),
                    "--set",
                    "bulk_bands.grid=21",
                    "--set",
                    "bulk_bands.kx=0.0",
                ]
            )
            == 0
        )
        _, rows = read_csv(out / "bulk_bands.csv")
        assert min(float(ep) - float(em) for _, _, em, ep in rows) >= 4.0 - 1e-9

    def test_weyl_points_json(self, tmp_path):
        out = tmp_path / "run"
        assert main(["weyl-points", "--out", str(out)]) == 0
        data = json.loads((out / "weyl_points.json").read_text())
        assert [w["label"] for w in data] == ["W1", "W2", "W3", "W4"]
        assert sum(w["chirality"] for w in data) == 0

    def test_chern_defaults(self, tmp_path):
        out = tmp_path / "run"
        assert main(["chern", "--out", str(out), "--set", "chern.mesh=16"]) == 0
        data = json.loads((out / "chern.json").read_text())
        assert data["sum"] == 0
        assert data["methods_agree"] is True
        values = [data["charges"][f"W{i}"]["sphere"] for i in range(1, 5)]
        assert all(abs(v) == 1 for v in values)

    def test_chern_radius_override_invariant(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["chern", "--out", str(a), "--set", "chern.mesh=16"])
        main(
            [
                "chern",
                "--out",
                str(b),
                "--set",
                "chern.mesh=16",
                "--set",
                "chern.radius=0.4",
            ]
        )
        ca = json.loads((a / "chern.json").read_text())["charges"]
        cb = json.loads((b / "chern.json").read_text())["charges"]
        assert all(ca[k]["sphere"] == cb[k]["sphere"] for k in ca)

    def test_edge_spectrum_and_density(self, tmp_path):
        out = tmp_path / "run"
        code = main(
            [
                "edge-spectrum",
                "--out",
                str(out),
                "--set",
                "edge_spectrum.grid=11",
                "--set",
                "edge_spectrum.sites=8",
                "--set",
                "edge_spectrum.densities=1",
            ]
        )
        assert code == 0
        header, rows = read_csv(out / "edge_spectrum.csv")
        assert header == ["theta1", "theta2", "index", "energy", "label"]
        assert len(rows) == 11 * 11 * 8
        assert (out / "edge_densities.csv").exists()

    def test_density_rows(self, tmp_path):
        out = tmp_path / "run"
        assert main(["density", "--out", str(out), "--set", "sites=6"]) == 0
        header, rows = read_csv(out / "density.csv")
        assert header == ["index", "energy", "label", "site", "density"]
        assert len(rows) == 6 * 6
        by_state = {}
        for idx, _, _, _, dens in rows:
            by_state.setdefault(idx, 0.0)
            by_state[idx] += float(dens)
        assert all(abs(total - 1.0) < 1e-9 for total in by_state.values())

    def test_reflection_trace(self, tmp_path):
        out = tmp_path / "run"
        assert (
            main(
                [
                    "reflection",
                    "--out",
                    str(out),
                    "--set",
                    "reflection.theta1=0.314159265358979",
                ]
            )
            == 0
        )
        header, rows = read_csv(out / "reflection.csv")
        assert header == ["delta0", "r_re", "r_im", "R"]
        assert len(rows) == 201
        for d0, rre, rim, rr in rows:
            assert float(rr) == pytest.approx(
                float(rre) ** 2 + float(rim) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("sites", [4, 36])
    def test_reflection_R_rounds_as_scalar_abs(self, tmp_path, sites):
        # R is the scalar abs(r) ** 2 of each sample, bit for bit; the
        # array np.abs(r) ** 2 differs in the last place on about half.
        out = tmp_path / "run"
        assert main(["reflection", "--out", str(out), "--set", f"sites={sites}"]) == 0
        _, rows = read_csv(out / "reflection.csv")
        for _, rre, rim, rr in rows:
            assert rr == repr(float(abs(complex(float(rre), float(rim))) ** 2))

    def test_winding_json_and_trace(self, tmp_path):
        out = tmp_path / "run"
        assert main(["winding", "--out", str(out)]) == 0
        data = json.loads((out / "winding.json").read_text())
        assert data["weyl"] == "W1"
        assert abs(data["winding"]) == 1
        header, rows = read_csv(out / "winding_phases.csv")
        assert header == ["theta", "phase", "r_re", "r_im"]
        assert len(rows) == data["samples"]

    def test_winding_weyl4_opposite(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["winding", "--out", str(a)])
        main(["winding", "--out", str(b), "--set", "winding.weyl=4"])
        w1 = json.loads((a / "winding.json").read_text())["winding"]
        w4 = json.loads((b / "winding.json").read_text())["winding"]
        assert w1 == -w4

    def test_winding_against_chirality_is_inconsistent(self, tmp_path):
        # A loop of radius 0.5 misses the reflection zero of a 4-resonator
        # chain at kappa = 0.05, Delta0 = 0: winding 0 where W1 has -1 (a
        # row of cli_cases).  winding.json and its manifest are written as
        # for any winding.
        sets = ["kappa=0.05", "delta0=0", "winding.theta_r=0.5"]
        args = ["winding", "--out", str(tmp_path)]
        for item in sets:
            args += ["--set", item]
        assert main(args) == 4
        data = json.loads((tmp_path / "winding.json").read_text())
        assert data["winding"] == 0 and data["theta_r"] == 0.5
        manifest = json.loads((tmp_path / "winding_manifest.json").read_text())
        assert [o["path"] for o in manifest["outputs"]] == [
            "winding_phases.csv", "winding.json"
        ]

    def test_reflection_at_the_bottom_of_the_range_is_the_unit_trace(self, tmp_path):
        # Energies in units of J = 1e-307: the same trace as at J = 1, with
        # solutions near the top of the float range, which the guard must
        # not refuse.
        tiny, unit = tmp_path / "tiny", tmp_path / "unit"
        sets = ["--set", "j=1e-307", "--set", "je=1e-307", "--set", "kappa=2e-308"]
        assert main(["reflection", "--out", str(tiny), *sets]) == 0
        assert main(["reflection", "--out", str(unit), "--set", "kappa=0.2"]) == 0
        r_tiny, r_unit = (
            np.array([[float(v) for v in row[1:3]] for row in read_csv(out / "reflection.csv")[1]])
            for out in (tiny, unit)
        )
        assert np.abs(r_tiny - r_unit).max() <= 1e-14

    def test_fermi_arc_sites4(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fermi-arc", "--out", str(out)]) == 0
        data = json.loads((out / "fermi_arc.json").read_text())
        assert data["flagged"] is False and data["empty"] is False
        assert data["theta1c_plus"] / math.pi == pytest.approx(0.20, abs=1e-9)
        # One endpoint float, written with both signs.
        minus, plus = data["theta1c_minus"], data["theta1c_plus"]
        assert np.float64(minus).tobytes() == (-np.float64(plus)).tobytes()
        assert (out / "fermi_arc_spectra.csv").exists()

    def test_fermi_arc_single_cell_is_empty(self, tmp_path):
        # Two sites are one cell, with no distinct ends: no arc on either
        # side, so the two agree and nothing is flagged.
        out = tmp_path / "run"
        assert main(["fermi-arc", "--out", str(out), "--set", "sites=2"]) == 0
        data = json.loads((out / "fermi_arc.json").read_text())
        assert data["empty"] is True and data["flagged"] is False
        assert data["theta1c_minus"] is None and data["theta1c_plus"] is None
        assert data["oracle_theta1c_plus"] is None

    @pytest.mark.parametrize("sites", [4, 12, 36])
    @pytest.mark.parametrize(
        "command,name",
        [("reflection", "reflection.csv"), ("fermi-arc", "fermi_arc_spectra.csv")],
    )
    def test_reflectance_is_passive(self, tmp_path, command, name, sites):
        # The lossy chain cannot reflect more than it is driven with.
        assert main([command, "--out", str(tmp_path), "--set", f"sites={sites}"]) == 0
        header, rows = read_csv(tmp_path / name)
        R = np.array([float(row[header.index("R")]) for row in rows])
        assert R.size > 0 and (R <= 1.0 + 1e-12).all()

    def test_fermi_arc_sites12(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fermi-arc", "--out", str(out), "--set", "sites=12"]) == 0
        data = json.loads((out / "fermi_arc.json").read_text())
        assert abs(data["theta1c_plus"] / math.pi - 0.40) <= 0.02 + 1e-9

    def test_table1_single_override(self, tmp_path):
        out = tmp_path / "run"
        assert main(["table1", "--out", str(out), "--set", "table1.sizes=4"]) == 0
        _, rows = read_csv(out / "table1.csv")
        assert len(rows) == 1
        assert rows[0][0] == "4"
        assert float(rows[0][1]) / math.pi == pytest.approx(0.20, abs=1e-9)

    def test_table1_trivial_chain_empty_row(self, tmp_path):
        out = tmp_path / "run"
        assert main(["table1", "--out", str(out), "--set", "table1.sizes=2"]) == 0
        _, rows = read_csv(out / "table1.csv")
        assert rows[0][0] == "2"
        assert math.isnan(float(rows[0][1]))


class TestManifestAndDeterminism:
    def test_manifest_digests(self, tmp_path, monkeypatch):
        # 7-row blocks write the 128-row phase trace in 19 blocks; the
        # digest of the bytes written must be that of the file read back.
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 7)
        out = tmp_path / "run"
        main(["winding", "--out", str(out), "--set", "winding.samples=128"])
        manifest = json.loads((out / "winding_manifest.json").read_text())
        assert manifest["command"] == "winding"
        assert manifest["artifact_version"]
        assert manifest["parameters"]["kappa"] == 0.1
        names = {o["path"] for o in manifest["outputs"]}
        assert names == {"winding.json", "winding_phases.csv"}
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--set", "edge_spectrum.grid=7", "--set", "edge_spectrum.sites=6"]
        main(["edge-spectrum", "--out", str(a), *args])
        main(["edge-spectrum", "--out", str(b), *args])
        assert (a / "edge_spectrum.csv").read_bytes() == (
            b / "edge_spectrum.csv"
        ).read_bytes()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEYLLAB_OUT", str(tmp_path / "env_out"))
        monkeypatch.chdir(tmp_path)
        assert main(["weyl-points"]) == 0
        assert (tmp_path / "env_out" / "weyl_points.json").exists()


def _run(argv, out):
    """Exit code and stderr of `weyllab --out out *argv`, run in process
    with warnings as errors."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["--out", str(out), *argv])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "case", CASES, ids=[argv.replace(" --set ", ":").replace(" ", ":") for argv, *_ in CASES]
)
def test_cli_case(tmp_path, case):
    out = tmp_path / "run"
    check(case, *_run(case[0].split(), out), out)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as raised:
        main(["-h"])
    assert raised.value.code == 0
    assert capsys.readouterr().out.startswith("usage: weyllab ")


@pytest.mark.parametrize("command", ["fermi-arc", "table1"])
def test_flagged_arc_is_inconsistent(tmp_path, capsys, monkeypatch, command):
    # A detection that disagrees with its oracle still writes its files,
    # then exits 4 with one line on stderr.
    detect = cli.detect_arc_endpoint

    def flagged(*args):
        return dataclasses.replace(detect(*args), flagged=True, disagreements=3)

    monkeypatch.setattr(cli, "detect_arc_endpoint", flagged)
    assert main([command, "--out", str(tmp_path), "--set", "table1.sizes=4"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("weyllab: inconsistent: ") and err.count("\n") == 1
    assert "disagrees with the arc oracle at " in err
    assert {"fermi-arc": "3 theta1 points", "table1": "sites [4]"}[command] in err
    name = {"fermi-arc": "fermi_arc.json", "table1": "table1.csv"}[command]
    assert (tmp_path / name).exists()


# Output paths that cannot be written: (arguments, WEYLLAB_OUT), relative
# to a directory holding the file "afile" and the directory
# "taken/bulk_bands.csv".
OUTPUT_MISUSES = {
    "out-is-a-file": (["--out", "afile"], None),
    "out-below-a-file": (["--out", "afile/sub"], None),
    "env-out-is-a-file": ([], "afile"),
    "output-name-is-a-directory": (["--out", "taken"], None),
}


@pytest.mark.parametrize("case", OUTPUT_MISUSES)
def test_unwritable_output_is_usage_error(tmp_path, capsys, monkeypatch, case):
    args, env_out = OUTPUT_MISUSES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep\n")
    (tmp_path / "taken" / "bulk_bands.csv").mkdir(parents=True)
    if env_out is not None:
        monkeypatch.setenv("WEYLLAB_OUT", env_out)
    before = sorted(tmp_path.rglob("*"))
    assert main(["bulk-bands", "--set", "bulk_bands.grid=3", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("weyllab: usage error: ") and err.count("\n") == 1
    # The message names the directory and where it came from.
    where = f"output directory {args[1]} (from --out): " if args else (
        f"output directory {env_out} (from WEYLLAB_OUT): "
    )
    assert err.startswith(f"weyllab: usage error: {where}")
    assert sorted(tmp_path.rglob("*")) == before  # no partial file
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("command", ["fermi-arc", "table1"])
def test_arc_at_the_bottom_of_the_range_is_the_unit_arc(tmp_path, command):
    # Energies in units of J = 1e-307: both resolvent paths divide T + z
    # by its power of two, so the arc is the one at J = 1.
    tiny, unit = tmp_path / "tiny", tmp_path / "unit"
    sets = ["--set", "j=1e-307", "--set", "je=1e-307", "--set", "kappa=2e-308"]
    assert main([command, "--out", str(tiny), *sets]) == 0
    assert main([command, "--out", str(unit), "--set", "kappa=0.2"]) == 0
    name = {"fermi-arc": "fermi_arc.json", "table1": "table1.csv"}[command]
    assert (tiny / name).read_text() == (unit / name).read_text()


def test_eigensolver_failure_is_numeric_failure(tmp_path, capsys, monkeypatch):
    def not_converged(d, e, z):
        return 1

    monkeypatch.setattr(numerics, "dstev", not_converged)
    args = ["edge-spectrum", "--out", str(tmp_path), "--set", "edge_spectrum.grid=3"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("weyllab: numerical failure: ") and err.count("\n") == 1


def _no_memory(*args):
    raise MemoryError("Unable to allocate 1.16 TiB for an array")


@pytest.mark.parametrize("command", ["density", "edge-spectrum"])
def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # density fails before it writes; edge-spectrum fails while streaming
    # its sheet, after the first chunk was written to the file.
    if command == "density":
        monkeypatch.setattr(numerics, "dstev", _no_memory)
    else:
        sheet = cli._edge_sheet_chunks

        def sheet_without_memory(*args):
            chunks = sheet(*args)
            yield next(chunks)
            assert (tmp_path / "run" / "edge_spectrum.csv").exists()
            _no_memory()

        monkeypatch.setattr(cli, "_edge_sheet_chunks", sheet_without_memory)
    out = tmp_path / "run"
    args = [command, "--out", str(out), "--set", "edge_spectrum.grid=3"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("weyllab: usage error: out of memory") and err.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


def test_edge_sheet_that_fails_its_first_row_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # The header goes out with the first theta1's rows, which are
    # formatted before the output directory is made.
    monkeypatch.setattr(cli, "_reprs", _no_memory)
    out = tmp_path / "run"
    assert main(["edge-spectrum", "--out", str(out), "--set", "edge_spectrum.grid=3"]) == 2
    assert capsys.readouterr().err.startswith("weyllab: usage error: out of memory")
    assert not out.exists()


def test_write_csv_frees_each_block_before_the_next(tmp_path, monkeypatch):
    # Blocks of 3, 0, 5 and 2 rows, written 2 rows at a time: when block
    # k + 1 is computed, nothing is left of block k.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 2)
    sizes, refs, rows = [3, 0, 5, 2], [], []

    def blocks():
        for k, size in enumerate(sizes):
            assert all(ref() is None for ref in refs), f"block {k - 1} is still alive"
            block = [np.arange(size) + 10 * k, np.linspace(0, 1, size), np.full(size, "L", object)]
            refs.extend(map(weakref.ref, block))
            rows.extend(zip(*block))
            yield block
            del block

    path = cli._OutputSet(tmp_path).write_csv("t.csv", ["i", "x", "s"], blocks())
    assert all(ref() is None for ref in refs)
    assert path.read_bytes() == _reference_csv(["i", "x", "s"], rows)


def _reference_csv(header, rows) -> bytes:
    """The per-cell CSV writer write_csv must match byte for byte."""

    def fmt(x):
        if isinstance(x, (float, np.floating)):
            return repr(float(x))
        return str(x)

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(x) for x in row))
    return ("\n".join(lines) + "\n").encode()


_SPECIAL_FLOATS = [
    0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e16, 0.1
]
# One kind of cell per column: the cells' strategy and the array they make.
_COLUMN_KINDS = [
    (st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
     lambda cells: np.array(cells, dtype=np.float64)),
    (st.floats(width=32), lambda cells: np.array(cells, dtype=np.float32)),
    (st.integers(-(2**63), 2**63 - 1), lambda cells: np.array(cells, dtype=np.int64)),
    (st.integers(-(10**20), 10**20), lambda cells: np.array(cells, dtype=object)),
    (st.booleans(), lambda cells: np.array(cells, dtype=bool)),
    (st.text(alphabet="abcLeftRightBulk-._ 0123456789e", max_size=6),
     lambda cells: np.array(cells, dtype=object)),
]


@st.composite
def _columns(draw):
    rows = draw(st.integers(0, 12))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=1, max_size=5))
    return [
        make(draw(st.lists(cells, min_size=rows, max_size=rows)))
        for cells, make in kinds
    ]


@given(_columns(), st.integers(1, 4))
@settings(max_examples=150)
def test_write_csv_matches_per_cell_writer(columns, block_rows):
    # Blocks of 1-4 rows put block edges everywhere.
    header = [f"c{k}" for k in range(len(columns))]
    with tempfile.TemporaryDirectory() as d:
        out = cli._OutputSet(Path(d))
        saved = cli.CSV_BLOCK_ROWS
        cli.CSV_BLOCK_ROWS = block_rows
        try:
            path = out.write_csv("t.csv", header, [columns])
        finally:
            cli.CSV_BLOCK_ROWS = saved
        assert path.read_bytes() == _reference_csv(header, zip(*columns))
        assert out.paths == [path]


def test_write_csv_numpy_columns(tmp_path):
    # Columns as the commands pass them: float64 arrays, int indices, str
    # labels as object and unicode arrays; a list is taken as its array.
    a = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3, 1e22])
    labels = np.array(["Bulk", "Left", "Right", "Bulk"] * 2, dtype=object)
    columns = [a, a.astype(np.float32), np.arange(a.size), a.tolist(), labels,
               labels.astype(str)]
    path = cli._OutputSet(tmp_path).write_csv("t.csv", list("abcdef"), [columns])
    assert path.read_bytes() == _reference_csv(list("abcdef"), zip(*columns))
    empty = cli._OutputSet(tmp_path).write_csv("e.csv", ["x"], [[np.array([])]])
    assert empty.read_bytes() == b"x\n"
    for bad in ([np.arange(2), np.arange(1)], [np.arange(2)],
                [np.arange(2), np.zeros((2, 1))]):
        with pytest.raises(ValueError):
            cli._OutputSet(tmp_path).write_csv("r.csv", ["x", "y"], [bad])
        assert not (tmp_path / "r.csv").exists()


def _repeating_columns():
    """Columns whose blocks repeat cells: signed zeros in float64 and
    float32, NaN and infinities, ints, bools, str and object labels."""
    f64 = np.array([0.0, -0.0, 0.1, np.nan, 0.1, -0.0, np.inf, -np.inf, 0.0, np.inf,
                    -np.nan, 1 / 3, 1 / 3])
    labels = ["Bulk", "Left", "Bulk", "Right"] * 3 + ["Bulk"]
    return [
        f64,
        f64.astype(np.float32),
        np.array([5, 5, -1, 5, 7, -1, 5, 0, 0, 5, 7, 7, 5]),
        np.arange(13) % 3 == 0,
        np.array(labels),
        np.array(labels, dtype=object),
    ]


@pytest.mark.parametrize("block_rows", [1, 3, 4096])
def test_write_csv_repeated_cells(tmp_path, monkeypatch, block_rows):
    # Cells repeat inside one block (4096 rows) and across block edges
    # (1 and 3 rows): each must still be written as the per-cell writer
    # writes it, -0.0 and float32 values included.
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
    columns = _repeating_columns()
    header = list("abcdef")
    path = cli._OutputSet(tmp_path).write_csv("t.csv", header, [columns])
    assert path.read_bytes() == _reference_csv(header, zip(*columns))


_REPR_VALUES = [
    0.0, 5e-324, 2.2e-308, 1e16, 1e-5, math.inf,
    *np.random.default_rng(0).normal(size=40).tolist(),
]


def test_reprs_is_float_repr():
    # Each value and its negation, NaN with either sign bit, and exact
    # +/- pairs in either order and in repeats: the sign fold writes each
    # as float.__repr__ does, "-nan" never.
    values = np.array(_REPR_VALUES)
    nan = np.array([np.nan])
    minus_nan = (nan.view(np.uint64) | np.uint64(2**63)).view(np.float64)
    assert np.signbit(minus_nan[0])
    a = np.concatenate([values, -values, nan, minus_nan, -values[::-1], values[:7]])
    assert cli._reprs(a) == list(map(float.__repr__, a.tolist()))
    grid = a[: 2 * 46].reshape(4, 23)  # as the sheet passes a (C, n) row
    assert cli._reprs(grid) == list(map(float.__repr__, grid.ravel().tolist()))
    assert cli._reprs(np.array([])) == []


def test_reprs_of_one_signed_column_build_no_minus_texts():
    # A column with no negative value needs no "-" text: formatting 4,096
    # distinct positive values peaks near the strings the result holds,
    # where a "-" text per magnitude adds about two thirds of them again.
    a = np.random.default_rng(1).uniform(0.5, 1.5, 4096)
    peaks = []
    for fmt in (cli._reprs, lambda x: list(map(float.__repr__, x.tolist()))):
        tracemalloc.start()
        texts = fmt(a)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        del texts
    assert peaks[0] < 1.4 * peaks[1]


@given(
    st.integers(2, 12).map(lambda cells: 2 * cells),
    st.integers(1, 41),
    st.floats(0.05, 3.0), st.floats(0.0, 3.0), st.floats(-3.0, 3.0),
)
# theta = 0 gives dimer chains (J1 = 0) with exact +/-E pairs; theta =
# +/-pi/2 an on-site term of about 6e-17.
@example(sites=8, grid=9, j=1.0, je=1.0, delta0=-0.1)
@settings(max_examples=30, deadline=None)
def test_edge_sheet_matches_per_cell_writer(sites, grid, j, je, delta0):
    # The sheet written from its distinct chains is, byte for byte, the
    # per-cell CSV of the scattered sheet, theta1 mirrors and all.
    sets = {"edge_spectrum.sites": sites, "edge_spectrum.grid": grid,
            "j": j, "je": je, "delta0": delta0}
    with tempfile.TemporaryDirectory() as out:
        args = ["edge-spectrum", "--out", out]
        for key, value in sets.items():
            args += ["--set", f"{key}={value!r}"]
        assert main(args) == 0
        written = (Path(out) / "edge_spectrum.csv").read_bytes()
    thetas = np.linspace(-math.pi, math.pi, grid)
    p = ModelParams(J=j, Je=je, Delta0=delta0, N=sites // 2)
    energies, labels, row, col = openchain.edge_spectrum(thetas, thetas, p)
    energies, labels = energies[np.ix_(row, col)], labels[np.ix_(row, col)]
    rows = (
        (thetas[a], thetas[b], k, energies[a, b, k], labels[a, b, k])
        for a in range(grid) for b in range(grid) for k in range(sites)
    )
    header = ["theta1", "theta2", "index", "energy", "label"]
    assert written == _reference_csv(header, rows)


# Every run starts from small sizes and grids, and each key's draws stay
# within a few times its starting value (of either sign for floats, from
# -2 up for ints) or are special values, so that no draw allocates much.
SMALL = {
    "bulk_bands.grid": 5,
    "berry_field.grid": 5,
    "edge_spectrum.sites": 4,
    "edge_spectrum.grid": 3,
    "winding.samples": 64,
    "fermi_arc.grid_step": 0.1,
    "table1.sizes": [4],
}
SMALL_ARGS = [a for line in format_config(SMALL).splitlines() for a in ("--set", line)]


def _draws(start):
    """Text values for a key that starts at `start`."""
    if isinstance(start, list):
        return st.lists(st.integers(-2, 12), max_size=3).map(
            lambda sizes: ",".join(map(str, sizes))
        )
    if isinstance(start, int):
        return st.integers(-2, 2 * start + 4).map(str)
    scale = abs(start) or 1.0
    near = st.floats(scale / 4, 4 * scale)
    special = st.sampled_from([0.0, 5e-324, math.nan, math.inf, -math.inf])
    return st.one_of(near, near.map(lambda x: -x), special).map(repr)


SETS = st.lists(
    st.one_of(
        [st.tuples(st.just(k), _draws({**DEFAULTS, **SMALL}[k])) for k in KEYS]
        + [st.tuples(st.sampled_from(sorted(KEYS)), st.just("junk"))]
    ),
    max_size=4,
)


@given(st.sampled_from(sorted(cli.COMMANDS)), SETS)
@settings(max_examples=400)
def test_random_overrides_keep_exit_contract(command, sets):
    args = [command, *SMALL_ARGS]
    for key, value in sets:
        args += ["--set", f"{key}={value}"]
    with tempfile.TemporaryDirectory() as out:
        stderr_message(*_run(args, Path(out) / "run"))


# Each model scale at zero, the subnormal floor, near the ends of the
# float range and negative: where the kernels' power-of-two scaling and
# their guards act, and which the draws above, near each default, miss.
CONTRACT_VALUES = ["0", "5e-324", "1e-307", "1e-200", "1e-15", "1e200", "1e308", "-1e308", "-1"]


@pytest.mark.parametrize("command", sorted(set(cli.COMMANDS) - {"show-config"}))
def test_exit_contract_matrix(command, tmp_path):
    # Every run ends in 0, 2, 3 or 4 with warnings as errors: one stderr
    # line on a non-zero exit, none on exit 0.  Exit 2 or 3 leaves no
    # output directory; exit 0 or 4 leaves the manifest's outputs and the
    # manifest, nothing else.
    manifest = f"{command}_manifest.json"
    for key in ("j", "je", "kappa", "delta0"):
        for value in CONTRACT_VALUES:
            out = tmp_path / f"{key}={value}"
            code, err = _run([command, *SMALL_ARGS, "--set", f"{key}={value}"], out)
            case = f"{key}={value}: exit {code}, stderr {err!r}"
            stderr_message(code, err)
            if code in (2, 3):
                assert not out.exists(), case
            else:
                listed = json.loads((out / manifest).read_text())["outputs"]
                files = sorted([o["path"] for o in listed] + [manifest])
                assert sorted(os.listdir(out)) == files, case


def test_cli_import_skips_scipy():
    # The package needs only NumPy at import; scipy, the eigensolver's
    # fallback, would add its import time and memory to every CLI run.
    src = Path(spectroscopy.__file__).resolve().parents[1]
    code = "import sys, weyllab.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout == "False\n"


def _counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSinglePass:
    def test_winding_reflects_once_per_sample(self, tmp_path, monkeypatch):
        # The systems handed to the resolvent are the loop's chains at
        # Delta0, each sample exactly once, in loop order.
        calls = _counting(monkeypatch, spectroscopy, "solve_shifted")
        assert main(
            ["winding", "--out", str(tmp_path), "--set", "winding.samples=96"]
        ) == 0
        p = ModelParams()
        n, eye = p.sites, np.eye(p.sites)

        def dense(d, e, z):
            return np.diag(d) + np.diag(e, 1) + np.diag(e, -1) + z * eye

        systems = []
        for d, e, z, _ in calls:
            shape = np.broadcast_shapes(d.shape[:-1], e.shape[:-1], np.shape(z))
            d, e = np.broadcast_to(d, shape + d.shape[-1:]), np.broadcast_to(e, shape + e.shape[-1:])
            z = np.broadcast_to(z, shape)
            systems += [dense(*row) for row in zip(d.reshape(-1, n), e.reshape(-1, n - 1), z.ravel())]
        w = weyl_points(p)[DEFAULTS["winding.weyl"] - 1]
        theta_r = DEFAULTS["winding.theta_r"]
        expected = []
        for th in 2.0 * np.pi * np.arange(96) / 96:
            (d,), (e,) = chain_bands(
                w.location.theta1 + theta_r * math.cos(th),
                w.location.theta2 + theta_r * math.sin(th),
                p,
            )
            expected.append(dense(d, e, p.Delta0 - 0.5j * p.kappa))
        assert np.array_equal(systems, expected)

    def test_table1_counts_once_per_distinct_chain(self, tmp_path, monkeypatch):
        calls = _counting(monkeypatch, openchain, "sturm_count")
        solves = _counting(monkeypatch, numerics, "dstev")
        args = ["--set", "table1.sizes=4,6", "--set", "fermi_arc.grid_step=0.05"]
        assert main(["table1", "--out", str(tmp_path), *args]) == 0
        # theta1 in [-pi/2, pi/2] at step pi/20 is an exactly symmetric
        # grid, so its 21 points are 11 distinct chains per size, all
        # counted at both window edges in one call; nothing is
        # diagonalized.
        chains = [np.broadcast_shapes(d.shape[:-1], e.shape[:-1], np.shape(x)) for d, e, x in calls]
        assert chains == [(2, 11), (2, 11)]
        assert solves == []

    def test_fermi_arc_spectra_on_detector_grid(self, tmp_path, monkeypatch):
        # The spectra span the detector's detuning grid; the detector
        # reads the resolvent only on its fit window, |Delta0| <= FIT_WINDOW J.
        detector = _counting(monkeypatch, spectroscopy, "corner_resolvent")
        spectra = _counting(monkeypatch, cli, "reflections")
        args = ["--set", "j=2", "--set", "fermi_arc.grid_step=0.05"]
        assert main(["fermi-arc", "--out", str(tmp_path), *args]) == 0
        p = ModelParams(J=2.0)
        window = spectroscopy.detuning_grid(
            DEFAULTS["fermi_arc.window"], spectroscopy.DELTA0_STEP, p
        )
        _, rows = read_csv(tmp_path / "fermi_arc_spectra.csv")
        written = [float(d) for t1, d, _ in rows if float(t1) == 0.0]
        assert np.array_equal(written, window)
        assert written[-1] == pytest.approx(2.0)
        fit = window[np.abs(window) <= spectroscopy.FIT_WINDOW * p.J]
        assert fit.size == 25
        assert len(detector) == len(spectra) == 1
        assert np.array_equal(detector[0][2], fit - 0.5j * p.kappa)
        assert np.array_equal(spectra[0][2], window)

    def test_table1_makes_no_dense_solve(self, tmp_path, monkeypatch):
        # Detection reads the port resolvent by its continued fraction.
        calls = _counting(monkeypatch, np.linalg, "solve")
        assert main(["table1", "--out", str(tmp_path)]) == 0
        assert calls == []

    @pytest.mark.parametrize("kx", [math.pi / 2, 0.7, 2.9, -1.3])
    def test_bulk_sheet_matches_scalar_bands(self, tmp_path, kx):
        args = ["--set", "bulk_bands.grid=51", "--set", f"bulk_bands.kx={kx!r}"]
        assert main(["bulk-bands", "--out", str(tmp_path), *args]) == 0
        _, rows = read_csv(tmp_path / "bulk_bands.csv")
        assert float(rows[0][0]) == -math.pi  # grid values stay unreduced
        p = ModelParams()
        for t1, t2, em, ep in rows:
            k = SyntheticMomentum(kx, float(t1), float(t2))
            one = bulk_band_sheet(k.kx, k.theta1, k.theta2, p)
            assert (float(em), float(ep)) == tuple(map(float, one))


def _grid_rows(n):
    """theta1 and theta2 of every point of an n x n command grid, theta2
    fastest, as one meshgrid."""
    axis = np.linspace(-math.pi, math.pi, n)
    return [t.ravel() for t in np.meshgrid(axis, axis, indexing="ij")]


def _whole_berry_field(n, p, step, exclude):
    ws = weyl_points(p)
    charges = [topology.chern_sphere(w, DEFAULTS["chern.radius"], DEFAULTS["chern.mesh"], p).value
               for w in ws]
    t1, t2 = _grid_rows(n)
    q = np.stack([numerics.reduce_angle(a) for a in (np.full(t1.size, math.pi / 2), t1, t2)], -1)
    analytic, dmin = topology.monopole_sum(q, ws, charges)
    numeric = np.full(t1.size, math.nan)
    far = dmin > exclude
    numeric[far] = topology.berry_curvature_numeric(q[far], (1, 2), step, p)
    return [t1, t2, *analytic.T, numeric]


@pytest.mark.parametrize("grid", [1, 2, 67, 202])
def test_bulk_bands_stream_is_the_whole_grid(tmp_path, grid):
    # Blocks of CSV_BLOCK_ROWS points, the last one partial at 67 and 202,
    # write the bands of the whole grid computed at once, cell for cell.
    args = ["--set", f"bulk_bands.grid={grid}", "--set", "bulk_bands.kx=0.7"]
    assert main(["bulk-bands", "--out", str(tmp_path), *args]) == 0
    t1, t2 = _grid_rows(grid)
    columns = [t1, t2, *bulk_band_sheet(0.7, t1, t2, ModelParams())]
    header = ["theta1", "theta2", "E_minus", "E_plus"]
    assert (tmp_path / "bulk_bands.csv").read_bytes() == _reference_csv(header, zip(*columns))


@pytest.mark.parametrize("grid,exclude", [(1, 0.05), (2, 0.05), (67, 0.05), (202, 0.05), (202, 1.7)])
def test_berry_field_stream_is_the_whole_grid(tmp_path, monkeypatch, grid, exclude):
    # Blocks of BLOCK_POINTS points, the last one partial at 67 and 202,
    # write the field of the whole grid computed in one block, cell for
    # cell.  At exclude 1.7 the blocks of rows near theta1 = +/-pi/2 have
    # no far point, and the others have some.
    sets = {"berry_field.grid": grid, "berry_field.exclude": exclude}
    args = [a for key, v in sets.items() for a in ("--set", f"{key}={v!r}")]
    assert main(["berry-field", "--out", str(tmp_path), *args]) == 0
    monkeypatch.setattr(topology, "BLOCK_POINTS", grid * grid)
    columns = _whole_berry_field(grid, ModelParams(), DEFAULTS["berry_field.step"], exclude)
    header = ["theta1", "theta2", "F_kx", "F_theta1", "F_theta2", "F_kx_numeric"]
    assert (tmp_path / "berry_field.csv").read_bytes() == _reference_csv(header, zip(*columns))
    if exclude == 1.7:
        far = ~np.isnan(columns[-1])
        per_block = np.add.reduceat(far, np.arange(0, far.size, cli.BLOCK_POINTS))
        assert 0 in per_block and per_block.any()


@pytest.mark.parametrize(
    "command,key,grid",
    [("bulk-bands", "bulk_bands.grid", 128), ("berry-field", "berry_field.grid", 64)],
)
def test_grid_commands_stream_in_flat_memory(command, key, grid):
    # A grid of four times the points peaks within a quarter more traced
    # memory: both grids fill at least one whole block, and only the axis
    # texts grow with the grid.  Whole-grid arrays peaked 1.8 (bulk-bands)
    # and 2.2 (berry-field) times as high at 4x the points.
    peaks = []
    with tempfile.TemporaryDirectory() as out:
        for n in (grid, 2 * grid):
            tracemalloc.start()
            assert main([command, "--out", out, "--set", f"{key}={n}"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def _fail_on_call(kernel, number, error):
    """A stand-in for kernel that raises error on its call number `number`
    (1 the first) and runs the kernel on every other call."""
    calls = []

    def fails(*args):
        calls.append(args)
        if len(calls) == number:
            raise error
        return kernel(*args)

    return fails


@pytest.mark.parametrize("block", [1, 2])
@pytest.mark.parametrize(
    "command,kernel,error,code,category",
    [
        ("bulk-bands", "bulk_band_sheet",
         ValueError("non-finite entries in bulk band sheet"), 2, "usage error"),
        ("bulk-bands", "bulk_band_sheet",
         MemoryError("Unable to allocate 1.16 TiB for an array"), 2, "usage error"),
        ("berry-field", "berry_curvature_numeric",
         topology.DegenerateGroundStateError("band splitting 1e-07 below 1e-6"), 3,
         "numerical failure"),
        ("berry-field", "monopole_sum", ValueError("bad point"), 2, "usage error"),
    ],
)
def test_failed_grid_block_leaves_no_file(tmp_path, capsys, monkeypatch, block, command, kernel,
                                          error, code, category):
    # A failure in the first block comes before the output directory is
    # made; one in the second removes the file that the first began.
    monkeypatch.setattr(cli, kernel, _fail_on_call(getattr(cli, kernel), block, error))
    out = tmp_path / "run"
    key = command.replace("-", "_") + ".grid"
    assert main([command, "--out", str(out), "--set", f"{key}=67"]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"weyllab: {category}: ") and err.count("\n") == 1
    assert not out.exists() if block == 1 else list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["bulk_bands.grid", "berry_field.grid", "edge_spectrum.grid"])
def test_angle_grid_axes_end_at_max_grid_points(key):
    # The longest axis is allowed; one point more is refused, naming the key.
    assert cli._angle_grid({key: spectroscopy.MAX_GRID_POINTS}, key).size == 10001
    with pytest.raises(spectroscopy.GridError, match=f"^{key}=10002: grid axis of 10002 points"):
        cli._angle_grid({key: 10002}, key)


# The oracle's endpoint on the default Table-1 grid by sites, the same
# at every kappa of the map below.
ORACLE_ENDPOINTS = {4: 0.6283185307179586, 12: 1.2252211349000195, 20: 1.3823007675795091}
# The cells of the map where detection differs from the oracle:
# (kappa, sites) -> (theta1c, disagreements, flagged).
DETECTION_DIFFERS = {
    **{(0.3, n): (1.4451326206513049, 2, False) for n in (36, 60)},
    **{(0.4, n): (1.4137166941154071, 4, True) for n in (36, 60, 100, 400, 1000)},
    (0.5, 20): (1.3508848410436112, 4, True),
    **{(0.5, n): (1.3823007675795091, 6, True) for n in (36, 60, 100, 400, 1000)},
}


@pytest.mark.parametrize("sites", [4, 12, 20, 36, 60, 100, 400, 1000])
@pytest.mark.parametrize("kappa", [0.02, 0.1, 0.25, 0.3, 0.4, 0.5])
def test_arc_endpoint_map(kappa, sites):
    # The measured (kappa, N) map of arc detection against the oracle on
    # the default Table-1 grid: the oracle reads kappa-free endpoints,
    # and detection equals them in every cell but DETECTION_DIFFERS's.
    cfg = load_config(None, [f"kappa={kappa!r}"])
    det = spectroscopy.detect_arc_endpoint(
        math.pi / 2, cli._theta1_grid(cfg), cli._params(cfg, sites)
    )
    oracle = ORACLE_ENDPOINTS.get(sites, 1.4765485471872029)
    want = DETECTION_DIFFERS.get((kappa, sites), (oracle, 0, False))
    assert (det.theta1c, det.disagreements, det.flagged) == want
    assert det.oracle_theta1c == oracle


@pytest.mark.parametrize(
    "kappa,theta1c,flagged,code",
    [(0.1, 1.4765485471872029, False, 0),
     (0.3, 1.4451326206513049, False, 0),
     (0.4, 1.4137166941154071, True, 4)],
)
def test_arc_endpoint_domain_at_36_sites(tmp_path, kappa, theta1c, flagged, code):
    # Three cells of the measured (kappa, N) map of arc detection on the
    # default Table-1 grid.  At kappa 0.3 detection ends one grid step
    # (pi/100) inside the oracle's endpoint, which the flag tolerates, so
    # the run exits 0; at 0.4 it ends two steps inside and exits 4.
    cfg = load_config(None, [f"kappa={kappa!r}"])
    det = spectroscopy.detect_arc_endpoint(math.pi / 2, cli._theta1_grid(cfg), cli._params(cfg, 36))
    assert (det.theta1c, det.flagged) == (theta1c, flagged)
    assert det.oracle_theta1c == 1.4765485471872029
    args = ["table1", "--set", "table1.sizes=36", "--set", f"kappa={kappa!r}"]
    assert _run(args, tmp_path)[0] == code
    assert (tmp_path / "table1.csv").read_text() == f"N,theta1c\n36,{theta1c!r}\n"
