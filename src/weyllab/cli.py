"""Command-line front end.

Each subcommand reproduces one figure- or table-grade dataset as
machine-readable CSV/JSON, plus a run manifest recording the command,
the effective configuration, and content digests of every output.
No plotting: the files are plot-ready arrays.

Exit codes: 0 success, 2 usage/config error or out of memory,
3 numerical failure, 4 oracle-inconsistency in arc detection.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, load_config, format_config
from .model import (
    DegenerateModelError,
    ModelParams,
    SyntheticMomentum,
    bulk_band_sheet,
    weyl_points,
)
from .numerics import NumericsError, unwrap_winding
from .openchain import density_profile, diagonalize_chain, edge_spectrum
from .spectroscopy import (
    DELTA0_STEP,
    detect_arc_endpoint,
    detuning_grid,
    loop_reflection,
    reflection_spectrum,
    symmetric_grid,
)
from .topology import (
    DegenerateGroundStateError,
    NonConvergedChernError,
    berry_curvature_numeric,
    berry_curvature_weyl,
    chern_mapped_torus,
    chern_sphere,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_INCONSISTENT = 4

NUMERIC_ERRORS = (
    NumericsError,
    DegenerateModelError,
    DegenerateGroundStateError,
    NonConvergedChernError,
)


class _OutputSet:
    """Collects written files so the manifest can digest them."""

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.paths: list[Path] = []

    def _path(self, name: str) -> Path:
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def write_text(self, name: str, text: str) -> Path:
        path = self._path(name)
        path.write_text(text)
        self.paths.append(path)
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Stream a header line and one line per row to the file.

        Rows, each as wide as the header, are formatted and written
        CSV_BLOCK_ROWS at a time, one column of a block at once, each
        cell as _fmt formats it.
        """
        path = self._path(name)
        rows = iter(rows)
        try:
            with path.open("w") as f:
                f.write(",".join(header) + "\n")
                while block := list(itertools.islice(rows, CSV_BLOCK_ROWS)):
                    if set(map(len, block)) != {len(header)}:
                        raise ValueError(f"{name}: every row needs {len(header)} cells")
                    cols = [_fmt_column(col) for col in zip(*block)]
                    f.write("\n".join(map(",".join, zip(*cols))) + "\n")
        except BaseException:
            path.unlink(missing_ok=True)  # no partial file from a failed run
            raise
        self.paths.append(path)
        return path

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(
            name, json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )

    def manifest(self, command: str, cfg: dict):
        outputs = []
        for path in self.paths:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            outputs.append({"path": path.name, "sha256": digest})
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


def _fmt(x) -> str:
    """One CSV cell: repr of the Python float for any float, else str."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _fmt_column(col: tuple):
    """_fmt over one column of a block, without a call per cell where
    every cell is a str or every cell is a Python or NumPy float64."""
    types = set(map(type, col))
    if types == {str}:
        return col
    if all(issubclass(t, float) for t in types):
        return map(float.__repr__, col)
    return map(_fmt, col)


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
    rows = zip(t1.ravel(), t2.ravel(), em.ravel(), ep.ravel())
    out.write_csv("bulk_bands.csv", ["theta1", "theta2", "E_minus", "E_plus"], rows)
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
    kx = math.pi / 2
    step = cfg["berry_field.step"]
    exclude = cfg["berry_field.exclude"]
    rows = []
    for t1 in grid:
        for t2 in grid:
            k = SyntheticMomentum(kx, t1, t2)
            offsets = []
            for w in ws:
                d = k.as_array() - w.location.as_array()
                offsets.append((d + math.pi) % (2.0 * math.pi) - math.pi)
            dmin = min(float(np.linalg.norm(d)) for d in offsets)
            if dmin < 1e-9:
                # on a node: the field is singular there
                analytic = np.full(3, math.nan)
            else:
                analytic = np.zeros(3)
                for d, c in zip(offsets, sphere_charges):
                    analytic += berry_curvature_weyl(d, c)
            if dmin > exclude:
                numeric = berry_curvature_numeric(k, (1, 2), step, p)
            else:
                numeric = math.nan
            rows.append((t1, t2, analytic[0], analytic[1], analytic[2], numeric))
    out.write_csv(
        "berry_field.csv",
        ["theta1", "theta2", "F_kx", "F_theta1", "F_theta2", "F_kx_numeric"],
        rows,
    )
    return EXIT_OK


def cmd_edge_spectrum(cfg, out: _OutputSet) -> int:
    p = _params(cfg, sites=cfg["edge_spectrum.sites"])
    grid = _angle_grid(cfg["edge_spectrum.grid"])
    energies, labels = edge_spectrum(grid, grid, p)
    # Rows run theta1, then theta2, then the index fastest.  Each repeats
    # two grid values and an index, so those are formatted once.
    angles = [_fmt(t) for t in grid]
    indices = [str(idx) for idx in range(p.sites)]
    chain = itertools.chain.from_iterable
    repeat = itertools.repeat
    rows = zip(
        chain(repeat(t1, grid.size * p.sites) for t1 in angles),
        chain(repeat(t2, p.sites) for _ in angles for t2 in angles),
        chain(repeat(indices, grid.size**2)),
        energies.ravel().tolist(),
        labels.ravel().tolist(),
    )
    out.write_csv(
        "edge_spectrum.csv", ["theta1", "theta2", "index", "energy", "label"], rows
    )
    if cfg["edge_spectrum.densities"]:
        dens_rows = []
        for t1 in grid:
            vals, vecs, labels = diagonalize_chain(float(t1), math.pi / 2, p)
            for idx in range(vals.size):
                if labels[idx] == "Bulk" or abs(vals[idx]) > 0.1 * p.J:
                    continue
                dens = density_profile(vecs[:, idx]).site_densities
                for site, d in enumerate(dens, 1):
                    dens_rows.append((t1, idx, vals[idx], labels[idx], site, d))
        out.write_csv(
            "edge_densities.csv",
            ["theta1", "index", "energy", "label", "site", "density"],
            dens_rows,
        )
    return EXIT_OK


def cmd_density(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    vals, vecs, labels = diagonalize_chain(cfg["density.theta1"], cfg["density.theta2"], p)
    rows = []
    for idx in range(vals.size):
        dens = density_profile(vecs[:, idx]).site_densities
        for site, d in enumerate(dens, 1):
            rows.append((idx, vals[idx], labels[idx], site, d))
    out.write_csv(
        "density.csv", ["index", "energy", "label", "site", "density"], rows
    )
    return EXIT_OK


def cmd_reflection(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    dgrid = detuning_grid(cfg["reflection.window"], cfg["reflection.step"], p)
    trace = reflection_spectrum(
        cfg["reflection.theta1"], cfg["reflection.theta2"], dgrid, p
    )
    rows = [
        (d, r.real, r.imag, abs(r) ** 2)
        for d, r in zip(trace.parameter_samples, trace.r_values)
    ]
    out.write_csv("reflection.csv", ["delta0", "r_re", "r_im", "R"], rows)
    return EXIT_OK


def cmd_winding(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    ws = weyl_points(p)
    idx = cfg["winding.weyl"]
    w = ws[idx - 1]
    theta_r = cfg["winding.theta_r"]
    samples = cfg["winding.samples"]
    trace = loop_reflection(w, theta_r, samples, p)
    r = trace.r_values
    phases = np.angle(r)
    rows = zip(trace.parameter_samples, phases, r.real, r.imag)
    trace_path = out.write_csv(
        "winding_phases.csv", ["theta", "phase", "r_re", "r_im"], rows
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
    span, step = cfg["fermi_arc.span"], cfg["fermi_arc.grid_step"]
    return symmetric_grid(span * math.pi, step * math.pi)


def cmd_fermi_arc(cfg, out: _OutputSet) -> int:
    p = _params(cfg)
    grid = _theta1_grid(cfg)
    det = detect_arc_endpoint(math.pi / 2, grid, cfg["fermi_arc.window"], p)
    dgrid = detuning_grid(cfg["fermi_arc.window"], DELTA0_STEP, p)
    probe = [0.0]
    if not det.empty:
        edge = det.theta1c_plus
        probe = [0.0, 0.5 * edge, -0.5 * edge, edge + 0.1 * math.pi, -edge - 0.1 * math.pi]
    rows = []
    for t1 in probe:
        trace = reflection_spectrum(float(t1), math.pi / 2, dgrid, p)
        for d, rr in zip(trace.parameter_samples, trace.magnitudes_squared()):
            rows.append((t1, d, rr))
    out.write_csv("fermi_arc_spectra.csv", ["theta1", "delta0", "R"], rows)
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
    rows = []
    flagged = False
    for sites in cfg["table1.sizes"]:
        p = _params(cfg, sites=sites)
        det = detect_arc_endpoint(math.pi / 2, grid, cfg["fermi_arc.window"], p)
        flagged |= det.flagged
        theta1c = math.nan if det.empty else det.theta1c_plus
        rows.append((sites, theta1c))
    out.write_csv("table1.csv", ["N", "theta1c"], rows)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weyllab",
        description="Synthetic-dimension Weyl lattice simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cp = sub.add_parser(name, help=f"run the {name} computation")
        cp.add_argument("--config", metavar="PATH", help="key=value config file")
        cp.add_argument(
            "--set",
            metavar="KEY=VALUE",
            action="append",
            default=[],
            dest="sets",
            help="override one config key (repeatable, later wins)",
        )
        cp.add_argument("--out", metavar="DIR", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.sets)
        out = _OutputSet(
            Path(args.out or os.environ.get("WEYLLAB_OUT") or "weyllab_out")
        )
        code = COMMANDS[args.command](cfg, out)
    except (ConfigError, ValueError) as exc:
        print(f"weyllab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"weyllab: usage error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NUMERIC_ERRORS as exc:
        print(f"weyllab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    if args.command != "show-config":
        out.manifest(args.command, cfg)
    return code


if __name__ == "__main__":
    sys.exit(main())
