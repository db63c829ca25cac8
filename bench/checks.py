"""Output checks for one job of a pass.

Each check returns the names of the checks the job failed; an empty list
means the job passed.  The physics is restated here from its closed
forms (Bloch vector, open-chain matrix), not imported from the package
under test.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Absolute tolerances: both sides evaluate the same closed form in double
# precision, in a different order of operations.
BANDS_TOL = 1e-12
EIG_TOL = 1e-10
DENSITY_TOL = 1e-10
EDGE_SAMPLES = 16


def digests(outdir: Path) -> dict:
    """SHA-256 of every dataset in a job's output directory.

    The manifest is left out: it records the configuration and package
    version, which may change while every dataset stays byte-identical.
    """
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
        if p.is_file() and not p.name.endswith("_manifest.json")
    }


def _rows(path: Path) -> list[list[str]]:
    lines = path.read_text().splitlines()
    return [line.split(",") for line in lines[1:]]


def dense_chain(theta1, theta2, sites, j, je) -> np.ndarray:
    """Open chain a1, b1, a2, ...: hoppings J(1 -/+ cos theta1), on-site +/-Je cos theta2."""
    c = math.cos(theta1)
    j1, j2 = j * (1.0 - c), j * (1.0 + c)
    m = je * math.cos(theta2)
    diag = np.where(np.arange(sites) % 2 == 0, m, -m)
    off = np.where(np.arange(sites - 1) % 2 == 0, j1, j2)
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def check_bulk_bands(job, outdir: Path) -> list[str]:
    """Every row is Delta0 -/+ |h| with h = (2J cos kx, 2J cos t1 sin kx, Je cos t2)."""
    kx, d0 = job.param("bulk_bands.kx"), job.param("delta0")
    j, je = job.param("j"), job.param("je")
    data = np.loadtxt(outdir / "bulk_bands.csv", delimiter=",", skiprows=1, ndmin=2)
    if data.shape != (job.param("bulk_bands.grid") ** 2, 4):
        return ["bulk_bands.rows"]
    t1, t2 = data[:, 0], data[:, 1]
    h = np.sqrt(
        (2 * j * math.cos(kx)) ** 2
        + (2 * j * np.cos(t1) * math.sin(kx)) ** 2
        + (je * np.cos(t2)) ** 2
    )
    ok = np.allclose(data[:, 2], d0 - h, rtol=0, atol=BANDS_TOL) and np.allclose(
        data[:, 3], d0 + h, rtol=0, atol=BANDS_TOL
    )
    return [] if ok else ["bulk_bands.closed_form"]


def _density_sums_ok(rows, key_cols, density_col) -> bool:
    sums: dict = {}
    for row in rows:
        key = tuple(row[c] for c in key_cols)
        sums[key] = sums.get(key, 0.0) + float(row[density_col])
    return bool(sums) and all(abs(s - 1.0) <= DENSITY_TOL for s in sums.values())


def check_edge_spectrum(job, outdir: Path, rng: np.random.Generator) -> list[str]:
    """Sampled (theta1, theta2) points match eigvalsh of the dense chain."""
    sites, grid = job.param("edge_spectrum.sites"), job.param("edge_spectrum.grid")
    j, je = job.param("j"), job.param("je")
    rows = _rows(outdir / "edge_spectrum.csv")
    if len(rows) != grid * grid * sites:
        return ["edge_spectrum.rows"]
    failed = []
    for point in rng.choice(grid * grid, size=EDGE_SAMPLES, replace=False):
        block = rows[point * sites:(point + 1) * sites]
        t1, t2 = float(block[0][0]), float(block[0][1])
        energies = np.array([float(r[3]) for r in block])
        want = np.linalg.eigvalsh(dense_chain(t1, t2, sites, j, je))
        if not np.allclose(energies, want, rtol=0, atol=EIG_TOL):
            failed.append("edge_spectrum.eigvalsh")
            break
    dens = _rows(outdir / "edge_densities.csv")
    if not _density_sums_ok(dens, (0, 1), 5):
        failed.append("edge_densities.sum")
    return failed


def check_density(job, outdir: Path) -> list[str]:
    rows = _rows(outdir / "density.csv")
    if len(rows) != job.param("sites") ** 2:
        return ["density.rows"]
    return [] if _density_sums_ok(rows, (0,), 4) else ["density.sum"]


def chiralities(outdir: Path) -> dict:
    """Node number (1..4) -> chirality, from weyl_points.json."""
    nodes = json.loads((outdir / "weyl_points.json").read_text())
    return {int(n["label"][1:]): n["chirality"] for n in nodes}


def check_winding(job, outdir: Path, chirality: dict) -> list[str]:
    result = json.loads((outdir / "winding.json").read_text())
    want = chirality.get(job.param("winding.weyl"))
    return [] if want is not None and result["winding"] == want else ["winding.chirality"]


def check_chern(outdir: Path) -> list[str]:
    result = json.loads((outdir / "chern.json").read_text())
    failed = []
    if result["methods_agree"] is not True:
        failed.append("chern.methods_agree")
    if result["sum"] != 0:
        failed.append("chern.sum")
    return failed


def check_table1(job, outdir: Path) -> list[str]:
    rows = _rows(outdir / "table1.csv")
    sizes = [int(r[0]) for r in rows]
    return [] if sizes == list(job.param("table1.sizes")) else ["table1.rows"]


def check_job(job, code, outdir: Path, ctx) -> list[str]:
    """All checks for one finished job.

    ctx carries the seed-0 reference digests (or None), the chiralities
    read from this pass's weyl-points job, and the sampling RNG.
    """
    if code != 0:
        return [f"exit_code_{code}"]
    failed = []
    if ctx.reference is not None:
        if digests(outdir) != ctx.reference.get(job.label):
            failed.append("sha256")
    if job.command == "bulk-bands":
        failed += check_bulk_bands(job, outdir)
    elif job.command == "edge-spectrum":
        failed += check_edge_spectrum(job, outdir, ctx.rng)
    elif job.command == "density":
        failed += check_density(job, outdir)
    elif job.command == "weyl-points":
        ctx.chirality = chiralities(outdir)
    elif job.command == "winding":
        failed += check_winding(job, outdir, ctx.chirality)
    elif job.command == "chern":
        failed += check_chern(outdir)
    elif job.command == "table1":
        failed += check_table1(job, outdir)
    return failed
