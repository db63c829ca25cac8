"""Command-line front end.

Each subcommand reproduces one figure- or table-grade dataset as
machine-readable CSV/JSON, plus a run manifest recording the command,
the effective configuration, and content digests of every output.
No plotting: the files are plot-ready arrays.

Exit codes: 0 success, 2 usage/config error, unwritable output path or
out of memory, 3 numerical failure, 4 oracle-inconsistency in arc
detection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config, format_config
from .model import (
    ModelParams,
    bulk_band_sheet,
    reduce_angle,
    weyl_points,
)
from .numerics import NumericsError, unwrap_winding
from .openchain import density_profile, diagonalize_chain, edge_spectrum
from .spectroscopy import (
    DELTA0_STEP,
    FIT_WINDOW,
    detect_arc_endpoint,
    detuning_grid,
    loop_reflection,
    reflection_spectrum,
    reflections,
    symmetric_grid,
)
from .topology import (
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
    for the manifest."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths: list[Path] = []
        self.digests: list[str] = []

    def _path(self, name: str) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def _write(self, name: str, chunks) -> Path:
        """Write the text chunks to the file, digesting their bytes as they
        go; a failed write removes its file, and only its own."""
        path, digest = self._path(name), hashlib.sha256()
        f = path.open("wb")  # if this fails, there is no file of ours to remove
        try:
            with f:
                for chunk in chunks:
                    data = chunk.encode()
                    f.write(data)
                    digest.update(data)
                    del chunk, data  # free this block before the next is built
        except BaseException:
            path.unlink(missing_ok=True)  # no partial file from a failed run
            raise
        self.paths.append(path)
        self.digests.append(digest.hexdigest())
        return path

    def write_text(self, name: str, text: str) -> Path:
        return self._write(name, [text])

    def write_csv(self, name: str, header: list[str], columns) -> Path:
        """Stream a header line and one line per row to the file.

        `columns` holds one equal-length 1-D array per header name.  Rows
        are written CSV_BLOCK_ROWS at a time: a float64 cell as its
        shortest round-trip repr, any other cell with str.  Within a
        block each distinct cell of a column is formatted once, floats
        told apart by their bits (so 0.0 and -0.0 keep their signs);
        object cells are formatted one by one.
        """
        columns = [np.asarray(col) for col in columns]
        size = columns[0].size if columns else 0
        if len(columns) != len(header) or any(c.shape != (size,) for c in columns):
            raise ValueError(f"{name}: needs one 1-D column of {size} cells per name")

        def cells(c: np.ndarray) -> list[str]:
            if c.dtype == object:
                return list(map(str, c.tolist()))
            key = c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c
            _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            fmt = float.__repr__ if c.dtype == np.float64 else str
            distinct = np.array(list(map(fmt, c[first].tolist())), dtype=object)
            return distinct[inverse].tolist()

        def blocks():
            yield ",".join(header) + "\n"
            for start in range(0, size, CSV_BLOCK_ROWS):
                block = slice(start, start + CSV_BLOCK_ROWS)
                cols = [cells(c[block]) for c in columns]
                yield "\n".join(map(",".join, zip(*cols))) + "\n"

        return self._write(name, blocks())

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(
            name, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def manifest(self, command: str, cfg: dict):
        outputs = [
            {"path": path.name, "sha256": digest}
            for path, digest in zip(self.paths, self.digests)
        ]
        payload = {
            "command": command,
            "parameters": {
                k: (v if not isinstance(v, list) else list(v)) for k, v in cfg.items()
            },
            "artifact_version": __version__,
            "outputs": outputs,
        }
        path = self._path(f"{command}_manifest.json")
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Rows per block of write_csv.
CSV_BLOCK_ROWS = 4096


def _params(cfg: dict, sites: int | None = None) -> ModelParams:
    n_sites = cfg["sites"] if sites is None else sites
    return ModelParams(
        J=cfg["j"],
        Je=cfg["je"],
        Delta0=cfg["delta0"],
        kappa=cfg["kappa"],
        N=n_sites // 2,
    )


def _angle_grid(n: int) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, n)


def cmd_bulk_bands(cfg, out: _OutputSet) -> int:
    grid = _angle_grid(cfg["bulk_bands.grid"])
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    em, ep = bulk_band_sheet(cfg["bulk_bands.kx"], t1, t2, _params(cfg))
    out.write_csv(
        "bulk_bands.csv", ["theta1", "theta2", "E_minus", "E_plus"],
        [t1.ravel(), t2.ravel(), em.ravel(), ep.ravel()],
    )
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
    p = _params(cfg)
    ws = weyl_points(p)
    charges = {}
    agree = True
    total = 0
    for i, w in enumerate(ws, 1):
        sphere = chern_sphere(w, cfg["chern.radius"], cfg["chern.mesh"], p)
        torus = chern_mapped_torus(w, cfg["chern.theta_r"], cfg["chern.torus_grid"], p)
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
    p = _params(cfg)
    ws = weyl_points(p)
    sphere_charges = [chern_sphere(w, cfg["chern.radius"], cfg["chern.mesh"], p).value
                      for w in ws]
    grid = _angle_grid(cfg["berry_field.grid"])
    t1, t2 = np.meshgrid(grid, grid, indexing="ij")
    q = np.stack([reduce_angle(a) for a in np.broadcast_arrays(math.pi / 2, t1, t2)], -1)
    analytic, dmin = monopole_sum(q, ws, sphere_charges)
    numeric = np.full(t1.shape, math.nan)
    far = dmin > cfg["berry_field.exclude"]
    numeric[far] = berry_curvature_numeric(q[far], (1, 2), cfg["berry_field.step"], p)
    out.write_csv(
        "berry_field.csv",
        ["theta1", "theta2", "F_kx", "F_theta1", "F_theta2", "F_kx_numeric"],
        [t1.ravel(), t2.ravel(), *analytic.reshape(-1, 3).T, numeric.ravel()],
    )
    return EXIT_OK


def cmd_edge_spectrum(cfg, out: _OutputSet) -> int:
    p = _params(cfg, sites=cfg["edge_spectrum.sites"])
    grid = _angle_grid(cfg["edge_spectrum.grid"])
    energies, labels = edge_spectrum(grid, grid, p)
    # Rows run theta1, then theta2, then the index fastest.
    n = grid.size
    columns = [
        np.repeat(grid, n * p.sites),
        np.tile(np.repeat(grid, p.sites), n),
        np.tile(np.arange(p.sites), n * n),
        energies.ravel(),
        labels.ravel(),
    ]
    out.write_csv(
        "edge_spectrum.csv", ["theta1", "theta2", "index", "energy", "label"], columns
    )
    if cfg["edge_spectrum.densities"]:
        chains = diagonalize_chain(grid, math.pi / 2, p)
        vals, _, labels = chains
        keep = (labels != "Bulk") & (np.abs(vals) <= 0.1 * p.J)
        rows, *columns = _density_columns(chains, keep)
        out.write_csv(
            "edge_densities.csv",
            ["theta1", "index", "energy", "label", "site", "density"],
            [grid[rows], *columns],
        )
    return EXIT_OK


def _density_columns(chains, keep) -> list[np.ndarray]:
    """Columns with one row per site of each state of a stacked
    diagonalize_chain result that the mask `keep` selects, in C order: the
    selected states' positions, one column per axis of keep (the last is
    the state index), then energy, label, site and density."""
    vals, vecs, labels = chains
    states = np.nonzero(keep)
    sites = vecs.shape[-1]
    dens = density_profile(np.swapaxes(vecs, -1, -2)[states]).site_densities
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
    out.write_csv("density.csv", header, _density_columns(chain, every))
    return EXIT_OK


def cmd_reflection(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    dgrid = detuning_grid(cfg["reflection.window"], cfg["reflection.step"], p)
    trace = reflection_spectrum(
        cfg["reflection.theta1"], cfg["reflection.theta2"], dgrid, p
    )
    r = trace.r_values
    # hypot and float_power round as the scalar abs(r) ** 2 does, sample
    # for sample; np.abs(r) ** 2 does not.
    R = np.float_power(np.hypot(r.real, r.imag), 2)
    out.write_csv(
        "reflection.csv", ["delta0", "r_re", "r_im", "R"],
        [trace.parameter_samples, r.real, r.imag, R],
    )
    return EXIT_OK


def cmd_winding(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    idx = cfg["winding.weyl"]
    theta_r = cfg["winding.theta_r"]
    samples = cfg["winding.samples"]
    trace = loop_reflection(weyl_points(p)[idx - 1], theta_r, samples, p)
    r = trace.r_values
    phases = np.angle(r)
    trace_path = out.write_csv(
        "winding_phases.csv", ["theta", "phase", "r_re", "r_im"],
        [trace.parameter_samples, phases, r.real, r.imag],
    )
    out.write_json(
        "winding.json",
        {
            "weyl": f"W{idx}",
            "winding": unwrap_winding(phases).winding,
            "kappa": p.kappa,
            "delta0": p.Delta0,
            "theta_r": theta_r,
            "samples": samples,
            "phase_trace": trace_path.name,
        },
    )
    return EXIT_OK


def _theta1_grid(cfg) -> np.ndarray:
    if not cfg["fermi_arc.window"] >= FIT_WINDOW:
        raise ValueError(f"fermi_arc.window must be at least {FIT_WINDOW} J")
    span, step = cfg["fermi_arc.span"], cfg["fermi_arc.grid_step"]
    return symmetric_grid(span * math.pi, step * math.pi)


def cmd_fermi_arc(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    grid = _theta1_grid(cfg)
    det = detect_arc_endpoint(math.pi / 2, grid, p)
    dgrid = detuning_grid(cfg["fermi_arc.window"], DELTA0_STEP, p)
    probe = [0.0]
    if not det.empty:
        edge = det.theta1c_plus
        probe = [0.0, 0.5 * edge, -0.5 * edge, edge + 0.1 * math.pi, -edge - 0.1 * math.pi]
    spectra = np.abs(reflections(probe, math.pi / 2, dgrid, p)) ** 2
    out.write_csv(
        "fermi_arc_spectra.csv", ["theta1", "delta0", "R"],
        [np.repeat(probe, dgrid.size), np.tile(dgrid, len(probe)), spectra.ravel()],
    )
    out.write_json(
        "fermi_arc.json",
        {
            "sites": p.sites,
            "theta1c_minus": None if det.empty else det.theta1c_minus,
            "theta1c_plus": None if det.empty else det.theta1c_plus,
            "empty": det.empty,
            "flagged": det.flagged,
            "oracle_theta1c_plus": None if det.oracle.empty else det.oracle.theta1c_plus,
        },
    )
    return EXIT_INCONSISTENT if det.flagged else EXIT_OK


def cmd_table1(cfg, out: _OutputSet) -> int:
    grid = _theta1_grid(cfg)
    sizes = cfg["table1.sizes"]
    theta1c = np.full(len(sizes), math.nan)
    flagged = False
    for k, sites in enumerate(sizes):
        p = _params(cfg, sites=sites)
        det = detect_arc_endpoint(math.pi / 2, grid, p)
        flagged |= det.flagged
        if not det.empty:
            theta1c[k] = det.theta1c_plus
    out.write_csv("table1.csv", ["N", "theta1c"], [np.array(sizes), theta1c])
    return EXIT_INCONSISTENT if flagged else EXIT_OK


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
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
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets)
        out = _OutputSet(
            Path(args.out or os.environ.get("WEYLLAB_OUT") or "weyllab_out")
        )
        code = COMMANDS[args.command](cfg, out)
        if args.command != "show-config":
            out.manifest(args.command, cfg)
    except (ConfigError, ValueError, OSError) as exc:  # OSError: the output path
        print(f"weyllab: usage error: {exc}", file=sys.stderr)
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
