import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyllab import cli, numerics, openchain, spectroscopy
from weyllab.cli import main
from weyllab.config import DEFAULTS, KEYS, ConfigError, format_config, load_config
from weyllab.model import (
    ModelParams,
    SyntheticMomentum,
    bulk_bands,
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

    def test_bulk_bands_empty_grid_is_usage_error(self, tmp_path):
        code = main(
            ["bulk-bands", "--out", str(tmp_path), "--set", "bulk_bands.grid=0"]
        )
        assert code == 2

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

    def test_chern_je_zero_is_numeric_error(self, tmp_path):
        assert main(["chern", "--out", str(tmp_path), "--set", "je=0"]) == 3

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

    def test_fermi_arc_sites4(self, tmp_path):
        out = tmp_path / "run"
        assert main(["fermi-arc", "--out", str(out)]) == 0
        data = json.loads((out / "fermi_arc.json").read_text())
        assert data["flagged"] is False
        assert data["theta1c_plus"] / math.pi == pytest.approx(0.20, abs=1e-9)
        assert (out / "fermi_arc_spectra.csv").exists()

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

    def test_usage_error_on_bad_set(self, tmp_path):
        assert main(["chern", "--out", str(tmp_path), "--set", "nope=1"]) == 2
        assert main(["chern", "--out", str(tmp_path), "--set", "sites"]) == 2


MISUSES = [
    ("winding", ["winding.samples=10"]),
    ("winding", ["winding.weyl=5"]),
    ("winding", ["kappa=0"]),
    ("chern", ["chern.mesh=4"]),
    ("winding", ["delta0=nan"]),
    ("fermi-arc", ["fermi_arc.grid_step=0"]),
    ("reflection", ["reflection.step=0"]),
    ("edge-spectrum", ["edge_spectrum.sites=2"]),
    ("fermi-arc", ["fermi_arc.window=0.02"]),
    ("table1", ["fermi_arc.window=0.02"]),
    ("reflection", ["reflection.window=-1"]),
    ("fermi-arc", ["fermi_arc.span=-0.5"]),
    ("reflection", ["reflection.step=5e-324"]),
    ("reflection", ["reflection.step=1e-9"]),
    ("fermi-arc", ["fermi_arc.grid_step=1e-12"]),
    ("berry-field", ["berry_field.step=1e-170"]),
    ("berry-field", ["berry_field.step=1e-160"]),
    ("berry-field", ["berry_field.step=-1", "berry_field.exclude=100"]),
    ("berry-field", ["berry_field.step=1e-170", "berry_field.exclude=100"]),
    ("edge-spectrum", ["edge_spectrum.densities=7"]),
]


@pytest.mark.parametrize(
    "command,sets", MISUSES, ids=[f"{c}:{','.join(s)}" for c, s in MISUSES]
)
def test_misuse_is_usage_error(tmp_path, capsys, command, sets):
    args = [command, "--out", str(tmp_path / "run")]
    for item in sets:
        args += ["--set", item]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("weyllab: ") and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


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
    assert sorted(tmp_path.rglob("*")) == before  # no partial file
    assert (tmp_path / "afile").read_text() == "keep\n"


def test_singular_reflection_sweep_is_numeric_failure(tmp_path, capsys):
    # kappa = 0 at zero detuning sits on the decoupled end mode of the
    # theta1 = 0 chain: no steady state exists.
    args = ["reflection", "--out", str(tmp_path), "--set", "kappa=0"]
    assert main([*args, "--set", "reflection.window=0"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("weyllab: numerical failure: ") and err.count("\n") == 1


def test_eigensolver_failure_is_numeric_failure(tmp_path, capsys, monkeypatch):
    def not_converged(d, e):
        return d.copy(), np.eye(d.size), 1

    monkeypatch.setattr(numerics, "dstev", not_converged)
    args = ["edge-spectrum", "--out", str(tmp_path), "--set", "edge_spectrum.grid=3"]
    assert main(args) == 3
    err = capsys.readouterr().err
    assert err.startswith("weyllab: numerical failure: ") and err.count("\n") == 1


def _no_memory(*args):
    raise MemoryError("Unable to allocate 1.16 TiB for an array")


class _NoMemoryLabel:
    """A label whose text cannot be allocated."""

    def __str__(self):
        _no_memory()


@pytest.mark.parametrize("command", ["density", "edge-spectrum"])
def test_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch, command):
    # density fails before it writes; edge-spectrum fails in its second
    # CSV block, after the first was written to the file.
    if command == "density":
        monkeypatch.setattr(numerics, "dstev", _no_memory)
    else:
        sheet = cli.edge_spectrum

        def sheet_without_memory(*args):
            energies, labels = sheet(*args)
            labels = labels.copy()
            labels.flat[1] = _NoMemoryLabel()  # the second row's label
            return energies, labels

        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 1)
        monkeypatch.setattr(cli, "edge_spectrum", sheet_without_memory)
    out = tmp_path / "run"
    args = [command, "--out", str(out), "--set", "edge_spectrum.grid=3"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("weyllab: usage error: out of memory") and err.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


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
            path = out.write_csv("t.csv", header, columns)
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
    path = cli._OutputSet(tmp_path).write_csv("t.csv", list("abcdef"), columns)
    assert path.read_bytes() == _reference_csv(list("abcdef"), zip(*columns))
    empty = cli._OutputSet(tmp_path).write_csv("e.csv", ["x"], [np.array([])])
    assert empty.read_bytes() == b"x\n"
    for bad in ([np.arange(2), np.arange(1)], [np.arange(2)],
                [np.arange(2), np.zeros((2, 1))]):
        with pytest.raises(ValueError):
            cli._OutputSet(tmp_path).write_csv("r.csv", ["x", "y"], bad)
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
    path = cli._OutputSet(tmp_path).write_csv("t.csv", header, columns)
    assert path.read_bytes() == _reference_csv(header, zip(*columns))


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
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main([*args, "--out", out])
    assert code in (0, 2, 3, 4)
    if code:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


def test_cli_import_skips_scipy_optimize():
    # The arc fit needs only NumPy; importing scipy.optimize would add
    # its own import time to the start of every CLI run.
    src = Path(spectroscopy.__file__).resolve().parents[1]
    code = "import sys, weyllab.cli; print('scipy.optimize' in sys.modules)"
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
        systems = np.concatenate(
            [(t + np.asarray(z)[..., None, None] * eye).reshape(-1, n, n)
             for t, z, _ in calls]
        )
        w = weyl_points(p)[DEFAULTS["winding.weyl"] - 1]
        theta_r = DEFAULTS["winding.theta_r"]
        expected = []
        for th in 2.0 * np.pi * np.arange(96) / 96:
            (d,), (e,) = chain_bands(
                w.location.theta1 + theta_r * math.cos(th),
                w.location.theta2 + theta_r * math.sin(th),
                p,
            )
            t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            expected.append(t + (p.Delta0 - 0.5j * p.kappa) * eye)
        assert np.array_equal(systems, expected)

    def test_table1_diagonalizes_once_per_point(self, tmp_path, monkeypatch):
        calls = _counting(monkeypatch, openchain, "eigh_bands")
        args = ["--set", "table1.sizes=4,6", "--set", "fermi_arc.grid_step=0.05"]
        assert main(["table1", "--out", str(tmp_path), *args]) == 0
        # theta1 in [-pi/2, pi/2] at step pi/20 is an exactly symmetric
        # grid, so its 21 points are 11 distinct chains per size.
        assert len(calls) == 2 * 11

    def test_fermi_arc_spectra_on_detector_grid(self, tmp_path, monkeypatch):
        # The spectra span the detector's detuning grid; the detector
        # solves only its fit window, |Delta0| <= FIT_WINDOW J, of it.
        calls = _counting(monkeypatch, spectroscopy, "reflections")
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
        assert len(calls) == 1  # the detector's; cli calls its own import
        assert np.array_equal(calls[0][2], fit)

    @pytest.mark.parametrize("kx", [math.pi / 2, 0.7, 2.9, -1.3])
    def test_bulk_sheet_matches_scalar_bands(self, tmp_path, kx):
        args = ["--set", "bulk_bands.grid=51", "--set", f"bulk_bands.kx={kx!r}"]
        assert main(["bulk-bands", "--out", str(tmp_path), *args]) == 0
        _, rows = read_csv(tmp_path / "bulk_bands.csv")
        assert float(rows[0][0]) == -math.pi  # grid values stay unreduced
        p = ModelParams()
        for t1, t2, em, ep in rows:
            k = SyntheticMomentum(kx, float(t1), float(t2))
            assert (float(em), float(ep)) == bulk_bands(k, p)
