"""Command-line front end.

Each subcommand reproduces one figure- or table-grade dataset as
machine-readable CSV/JSON, plus a run manifest recording the command,
the effective configuration, and content digests of every output.
No plotting: the files are plot-ready arrays.

Exit codes: 0 success, 2 usage/config error, unwritable output path or
out of memory, 3 numerical failure, 4 a readout that contradicts its
cross-check (arc detection against the oracle, a winding against its
node's chirality), with its files written.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config, format_config
from .model import ModelParams, bulk_band_sheet, weyl_points
from .numerics import NumericsError, reduce_angle, unwrap_winding
from .openchain import density_profile, diagonalize_chain, edge_spectrum
from .spectroscopy import (
    DELTA0_STEP,
    FIT_WINDOW,
    MAX_GRID_POINTS,
    GridError,
    detect_arc_endpoint,
    detuning_grid,
    loop_reflection,
    reflections,
    symmetric_grid,
)
from .topology import (
    BLOCK_POINTS,
    berry_curvature_numeric,
    chern_mapped_torus,
    chern_sphere,
    monopole_sum,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCONSISTENT = 4

class _OutputSet:
    """Collects written files, each with the SHA-256 of the bytes written,
    for the manifest.  Every file goes through write."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths: list[Path] = []
        self.digests: list[str] = []

    def write(self, name: str, chunks) -> Path:
        """Write the text chunks to the file, digesting their bytes as they
        go.  The first chunk is taken before the output directory or the
        file exists, so a failure computing it leaves neither; a failure
        after it removes the file, and only its own.  Each chunk is freed
        before the next is taken."""
        chunks = iter(chunks)
        chunk = next(chunks, "")
        self.outdir.mkdir(parents=True, exist_ok=True)
        path, digest = self.outdir / name, hashlib.sha256()
        f = path.open("wb")  # if this fails, there is no file of ours to remove
        try:
            with f:
                while chunk is not None:
                    data = chunk.encode()
                    f.write(data)
                    digest.update(data)
                    del chunk, data
                    chunk = next(chunks, None)
        except BaseException:
            path.unlink(missing_ok=True)  # no partial file from a failed run
            raise
        self.paths.append(path)
        self.digests.append(digest.hexdigest())
        return path

    def write_csv(self, name: str, header: list[str], blocks) -> Path:
        """Stream a header line and one line per row to the file, by write.

        `blocks` yields blocks of rows, each one equal-length 1-D array
        per header name; a caller that holds whole columns passes them as
        one block.  The header goes out with the first block's first
        rows, so, as write says, a failure computing or formatting them
        leaves no directory or file.  Each block is freed before the next
        is computed and written CSV_BLOCK_ROWS rows at a time: a float64
        cell as its shortest round-trip repr, by _reprs, any other cell
        with str.  Within those rows each distinct cell of a column is
        formatted once, floats told apart by their bits (so 0.0 and -0.0
        keep their signs); object cells are formatted one by one.
        """

        def cells(c: np.ndarray) -> list[str]:
            if c.dtype == np.float64:
                return _reprs(c)
            if c.dtype == object:
                return list(map(str, c.tolist()))
            key = c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            distinct = np.array(list(map(str, c[first].tolist())), dtype=object)
            return distinct[inverse].tolist()

        def chunks(blocks):
            # Lines are joined by "\n": the header starts the first chunk,
            # each later one starts with "\n", and the last ends the file.
            head = ",".join(header)
            block = next(blocks, None)
            while block is not None:
                block = [np.asarray(col) for col in block]
                size = block[0].size if block else 0
                if len(block) != len(header) or any(c.shape != (size,) for c in block):
                    raise ValueError(f"{name}: needs one 1-D column of {size} cells per name")
                for start in range(0, size, CSV_BLOCK_ROWS):
                    rows = slice(start, start + CSV_BLOCK_ROWS)
                    yield "\n".join([head, *map(",".join, zip(*(cells(c[rows]) for c in block)))])
                    head = ""
                del block  # free this block before the next is computed
                block = next(blocks, None)
            yield head + "\n"

        return self.write(name, chunks(iter(blocks)))

    def write_json(self, name: str, payload) -> Path:
        return self.write(name, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])

    def manifest(self, command: str, cfg: dict):
        outputs = [
            {"path": path.name, "sha256": digest}
            for path, digest in zip(self.paths, self.digests)
        ]
        payload = {
            "command": command,
            "parameters": cfg,
            "artifact_version": __version__,
            "outputs": outputs,
        }
        self.write_json(f"{command}_manifest.json", payload)


# Rows per block of write_csv.
CSV_BLOCK_ROWS = 4096
# Largest chern.mesh and chern.torus_grid, whose memory grows as their
# square: the banded sphere holds 32 bytes a quad, the mapped torus about
# 210 bytes a point.  A fresh `chern` peaks at about 43 MB at mesh 512
# and 48 MB at torus grid 256, against 34 MB at the defaults.
MAX_MESH = 512
MAX_TORUS_GRID = 256


def _params(cfg: dict, sites: int | None = None) -> ModelParams:
    n_sites = cfg["sites"] if sites is None else sites
    return ModelParams(
        J=cfg["j"],
        Je=cfg["je"],
        Delta0=cfg["delta0"],
        kappa=cfg["kappa"],
        N=n_sites // 2,
    )


def _angle_grid(cfg, key: str) -> np.ndarray:
    """cfg[key] angles over [-pi, pi]; GridError, naming the key, above MAX_GRID_POINTS."""
    with _grid_keys(cfg, key):
        if cfg[key] > MAX_GRID_POINTS:
            raise GridError(f"grid axis of {cfg[key]} points exceeds {MAX_GRID_POINTS}")
    return np.linspace(-math.pi, math.pi, cfg[key])


def _mesh(cfg, key: str, bound: int) -> int:
    """cfg[key]; GridError, naming the key, above bound."""
    with _grid_keys(cfg, key):
        if cfg[key] > bound:
            raise GridError(f"mesh of {cfg[key]} exceeds {bound}")
    return cfg[key]


def _grid_blocks(cfg, key: str, size: int):
    """The n x n (theta1, theta2) points of _angle_grid(cfg, key), theta2
    fastest, in blocks of at most `size`: each block's theta1 and theta2
    values and their texts.  The axis is formatted once, by _reprs, and
    its texts serve every block."""
    grid = _angle_grid(cfg, key)
    n = grid.size
    texts = np.array(_reprs(grid), dtype=object)
    for start in range(0, n * n, size):
        i1, i2 = np.divmod(np.arange(start, min(start + size, n * n)), n)
        yield grid[i1], grid[i2], texts[i1], texts[i2]


def cmd_bulk_bands(cfg, out: _OutputSet) -> int:
    p, kx = _params(cfg), cfg["bulk_bands.kx"]

    def blocks():
        for t1, t2, *texts in _grid_blocks(cfg, "bulk_bands.grid", CSV_BLOCK_ROWS):
            yield [*texts, *bulk_band_sheet(kx, t1, t2, p)]

    out.write_csv("bulk_bands.csv", ["theta1", "theta2", "E_minus", "E_plus"], blocks())
    return EXIT_OK


def cmd_weyl_points(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    payload = []
    for i, w in enumerate(weyl_points(p), 1):
        payload.append(
            {
                "label": f"W{i}",
                "location": {
                    "kx": w.location.kx,
                    "theta1": w.location.theta1,
                    "theta2": w.location.theta2,
                },
                "velocity": [[float(v) for v in row] for row in w.velocity],
                "chirality": w.chirality,
            }
        )
    out.write_json("weyl_points.json", payload)
    return EXIT_OK


def cmd_chern(cfg, out: _OutputSet) -> int:
    mesh = _mesh(cfg, "chern.mesh", MAX_MESH)
    grid = _mesh(cfg, "chern.torus_grid", MAX_TORUS_GRID)
    p = _params(cfg)
    ws = weyl_points(p)
    charges = {}
    agree = True
    total = 0
    for i, w in enumerate(ws, 1):
        sphere = chern_sphere(w, cfg["chern.radius"], mesh, p)
        torus = chern_mapped_torus(w, cfg["chern.theta_r"], grid, p)
        agree &= torus.value == sphere.value and round(torus.raw) == 2 * sphere.value
        total += sphere.value
        charges[f"W{i}"] = {
            "sphere": sphere.value,
            "sphere_raw": sphere.raw,
            "torus": torus.value,
            "torus_raw": torus.raw,
            "chirality": w.chirality,
        }
    out.write_json(
        "chern.json", {"charges": charges, "sum": total, "methods_agree": agree}
    )
    return EXIT_OK


def cmd_berry_field(cfg, out: _OutputSet) -> int:
    mesh = _mesh(cfg, "chern.mesh", MAX_MESH)
    p = _params(cfg)
    ws = weyl_points(p)
    sphere_charges = [chern_sphere(w, cfg["chern.radius"], mesh, p).value for w in ws]
    step, exclude = cfg["berry_field.step"], cfg["berry_field.exclude"]

    def blocks():
        for t1, t2, *texts in _grid_blocks(cfg, "berry_field.grid", BLOCK_POINTS):
            q = np.stack([reduce_angle(a) for a in np.broadcast_arrays(math.pi / 2, t1, t2)], -1)
            analytic, dmin = monopole_sum(q, ws, sphere_charges)
            numeric = np.full(t1.shape, math.nan)
            far = dmin > exclude
            numeric[far] = berry_curvature_numeric(q[far], (1, 2), step, p)
            yield [*texts, *analytic.T, numeric]

    out.write_csv(
        "berry_field.csv",
        ["theta1", "theta2", "F_kx", "F_theta1", "F_theta2", "F_kx_numeric"],
        blocks(),
    )
    return EXIT_OK


def cmd_edge_spectrum(cfg, out: _OutputSet) -> int:
    p = _params(cfg, sites=cfg["edge_spectrum.sites"])
    grid = _angle_grid(cfg, "edge_spectrum.grid")
    sheet = edge_spectrum(grid, grid, p)
    out.write("edge_spectrum.csv", _edge_sheet_chunks(grid, grid, *sheet))
    if cfg["edge_spectrum.densities"]:
        chains = diagonalize_chain(grid, math.pi / 2, p)
        vals, _, labels = chains
        keep = (labels != "Bulk") & (np.abs(vals) <= 0.1 * p.J)
        rows, *columns = _density_columns(chains, keep)
        out.write_csv(
            "edge_densities.csv",
            ["theta1", "index", "energy", "label", "site", "density"],
            [[grid[rows], *columns]],
        )
    return EXIT_OK


def _edge_sheet_chunks(theta1, theta2, energies, labels, row, col):
    """Text of edge_spectrum.csv from edge_spectrum's distinct chains on
    the float grids theta1 and theta2: one chunk per theta1, the first
    with the header, rows running theta1, then theta2, then the index
    fastest, as write_csv would write the scattered sheet's five columns,
    byte for byte.

    Each distinct chain's n "index,energy,label" lines are formatted
    once, as one text per chain; a distinct off-diagonal row's texts are
    built, from _reprs of its energies, when a theta1 first needs them
    and dropped after its last.  A grid point is its "theta1,theta2,"
    prefix put before every line of its chain.
    """
    n = energies.shape[-1]
    index = [str(k) for k in range(n)] * energies.shape[1]
    left = np.bincount(row, minlength=len(energies))  # theta1s still to come
    texts = [None] * len(energies)
    theta2 = [f"{t!r}," for t in theta2.tolist()]
    col = col.tolist()
    head = "theta1,theta2,index,energy,label\n"  # goes out with the first rows
    for t1, r in zip(theta1.tolist(), row.tolist()):
        if texts[r] is None:
            lines = list(map(",".join, zip(
                index, _reprs(energies[r]), labels[r].ravel().tolist()
            )))
            texts[r] = ["\n".join(lines[k : k + n]) for k in range(0, len(lines), n)]
        chains = texts[r]
        t1 = f"{t1!r},"
        yield head + "".join([
            t1 + t2 + chains[c].replace("\n", "\n" + t1 + t2) + "\n"
            for t2, c in zip(theta2, col)
        ])
        head = ""
        left[r] -= 1
        if not left[r]:
            texts[r] = None


def _reprs(a: np.ndarray) -> list[str]:
    """float.__repr__ of every value of the float64 array a, in C order.

    Each distinct magnitude, told apart by its bits, is formatted once,
    and a negative value is "-" plus its magnitude's repr, built once
    for each magnitude that occurs negative: the shortest round-trip
    digits do not depend on the sign.  -0.0 and -inf follow that rule;
    a NaN with its sign bit set does not, as repr drops that sign.
    """
    a = np.ravel(a)
    neg = np.signbit(a) & (a == a)
    mags, inverse = np.unique(
        a.view(np.uint64) & np.uint64(2**63 - 1), return_inverse=True
    )
    minus, inverse[neg] = np.unique(inverse[neg], return_inverse=True)
    texts = list(map(float.__repr__, mags.view(np.float64).tolist()))
    table = np.array(texts + ["-" + texts[i] for i in minus.tolist()], dtype=object)
    return table[inverse + len(texts) * neg].tolist()


def _density_columns(chains, keep) -> list[np.ndarray]:
    """Columns with one row per site of each state of a stacked
    diagonalize_chain result that the mask `keep` selects, in C order: the
    selected states' positions, one column per axis of keep (the last is
    the state index), then energy, label, site and density."""
    vals, vecs, labels = chains
    states = np.nonzero(keep)
    sites = vecs.shape[-1]
    dens = density_profile(np.swapaxes(vecs, -1, -2)[states])
    return [
        *(np.repeat(col, sites) for col in (*states, vals[states], labels[states])),
        np.tile(np.arange(1, sites + 1), states[0].size),
        dens.ravel(),
    ]


def cmd_density(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    chain = diagonalize_chain(cfg["density.theta1"], cfg["density.theta2"], p)
    header = ["index", "energy", "label", "site", "density"]
    every = np.ones(p.sites, dtype=bool)
    out.write_csv("density.csv", header, [_density_columns(chain, every)])
    return EXIT_OK


def cmd_reflection(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    with _grid_keys(cfg, "reflection.window", "reflection.step"):
        dgrid = detuning_grid(cfg["reflection.window"], cfg["reflection.step"], p)
    r = reflections(cfg["reflection.theta1"], cfg["reflection.theta2"], dgrid, p)[0]
    # hypot and float_power round as the scalar abs(r) ** 2 does, sample
    # for sample; np.abs(r) ** 2 does not.
    R = np.float_power(np.hypot(r.real, r.imag), 2)
    out.write_csv(
        "reflection.csv", ["delta0", "r_re", "r_im", "R"],
        [[dgrid, r.real, r.imag, R]],
    )
    return EXIT_OK


def cmd_winding(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    idx = cfg["winding.weyl"]
    theta_r = cfg["winding.theta_r"]
    samples = cfg["winding.samples"]
    node = weyl_points(p)[idx - 1]
    theta, r = loop_reflection(node, theta_r, samples, p)
    phases = np.angle(r)
    winding = unwrap_winding(phases).winding
    trace_path = out.write_csv(
        "winding_phases.csv", ["theta", "phase", "r_re", "r_im"],
        [[theta, phases, r.real, r.imag]],
    )
    out.write_json(
        "winding.json",
        {
            "weyl": f"W{idx}",
            "winding": winding,
            "kappa": p.kappa,
            "delta0": p.Delta0,
            "theta_r": theta_r,
            "samples": samples,
            "phase_trace": trace_path.name,
        },
    )
    if winding != node.chirality:
        return _inconsistent(
            f"W{idx} winding {winding} contradicts its chirality {node.chirality}"
        )
    return EXIT_OK


@contextlib.contextmanager
def _grid_keys(cfg, *keys):
    """Name the config keys, with their values, in front of a GridError
    raised inside.  A value reads as show-config prints it, the float's
    repr (1e-09 for a value set as 1e-9), one form whether it came from
    a default, a file or --set."""
    try:
        yield
    except GridError as exc:
        raise GridError(", ".join(f"{key}={cfg[key]!r}" for key in keys) + f": {exc}") from None


def _theta1_grid(cfg) -> np.ndarray:
    if not cfg["fermi_arc.window"] >= FIT_WINDOW:
        raise ValueError(f"fermi_arc.window must be at least {FIT_WINDOW} J")
    span, step = cfg["fermi_arc.span"], cfg["fermi_arc.grid_step"]
    with _grid_keys(cfg, "fermi_arc.span", "fermi_arc.grid_step"):
        return symmetric_grid(span * math.pi, step * math.pi)


def cmd_fermi_arc(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    grid = _theta1_grid(cfg)
    det = detect_arc_endpoint(math.pi / 2, grid, p)
    edge, oracle = det.theta1c, det.oracle_theta1c
    empty = math.isnan(edge)
    with _grid_keys(cfg, "fermi_arc.window"):
        dgrid = detuning_grid(cfg["fermi_arc.window"], DELTA0_STEP, p)
    probe = [0.0]
    if not empty:
        probe = [0.0, 0.5 * edge, -0.5 * edge, edge + 0.1 * math.pi, -edge - 0.1 * math.pi]
    spectra = np.abs(reflections(probe, math.pi / 2, dgrid, p)) ** 2
    out.write_csv(
        "fermi_arc_spectra.csv", ["theta1", "delta0", "R"],
        [[np.repeat(probe, dgrid.size), np.tile(dgrid, len(probe)), spectra.ravel()]],
    )
    out.write_json(
        "fermi_arc.json",
        {
            "sites": p.sites,
            "theta1c_minus": None if empty else -edge,
            "theta1c_plus": None if empty else edge,
            "empty": empty,
            "flagged": det.flagged,
            "oracle_theta1c_plus": None if math.isnan(oracle) else oracle,
        },
    )
    if det.flagged:
        return _inconsistent(
            f"arc detection disagrees with the arc oracle at "
            f"{det.disagreements} theta1 points"
        )
    return EXIT_OK


def cmd_table1(cfg, out: _OutputSet) -> int:
    grid = _theta1_grid(cfg)
    sizes = cfg["table1.sizes"]
    dets = [detect_arc_endpoint(math.pi / 2, grid, _params(cfg, sites=s)) for s in sizes]
    theta1c = np.array([det.theta1c for det in dets], dtype=float)
    flagged = [s for s, det in zip(sizes, dets) if det.flagged]  # disagree with the oracle
    out.write_csv("table1.csv", ["N", "theta1c"], [[np.array(sizes), theta1c]])
    if flagged:
        return _inconsistent(
            f"arc detection disagrees with the arc oracle at sites {flagged}"
        )
    return EXIT_OK


def _inconsistent(message: str) -> int:
    """Name a result that contradicts its cross-check on stderr, in one
    line, once its files are written."""
    print(f"weyllab: inconsistent: {message}", file=sys.stderr)
    return EXIT_INCONSISTENT


def cmd_show_config(cfg, out: _OutputSet) -> int:
    sys.stdout.write(format_config(cfg))
    return EXIT_OK


COMMANDS = {
    "bulk-bands": cmd_bulk_bands,
    "weyl-points": cmd_weyl_points,
    "chern": cmd_chern,
    "berry-field": cmd_berry_field,
    "edge-spectrum": cmd_edge_spectrum,
    "density": cmd_density,
    "reflection": cmd_reflection,
    "winding": cmd_winding,
    "fermi-arc": cmd_fermi_arc,
    "table1": cmd_table1,
    "show-config": cmd_show_config,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a bad argument as a ConfigError,
    so that main prints it as one usage-error line; -h still prints the
    help and exits 0."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _Parser(
        prog="weyllab",
        description="Synthetic-dimension Weyl lattice simulator",
    )
    parser.add_argument("command", choices=COMMANDS, help="the computation to run")
    parser.add_argument("--config", metavar="PATH", help="key=value config file")
    parser.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="sets",
        help="override one config key (repeatable, later wins)",
    )
    parser.add_argument("--out", metavar="DIR", help="output directory")
    where = "output directory"
    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, args.sets)
        env = os.environ.get("WEYLLAB_OUT")
        source = "--out" if args.out else "WEYLLAB_OUT" if env else "the default"
        outdir = args.out or env or "weyllab_out"
        where = f"output directory {outdir} (from {source})"
        out = _OutputSet(Path(outdir))
        code = COMMANDS[args.command](cfg, out)
        if args.command != "show-config":
            out.manifest(args.command, cfg)
    except (ConfigError, ValueError) as exc:
        print(f"weyllab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # only the output set opens a file; config reports its own
        print(f"weyllab: usage error: {where}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"weyllab: usage error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as exc:
        print(f"weyllab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return code


if __name__ == "__main__":
    sys.exit(main())
