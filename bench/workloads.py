"""The benchmark's workloads: the weyllab CLI jobs of one pass, made from a seed.

Seed 0 gives the canonical inputs; any other seed draws its inputs from
fixed ranges.  Where an input sets how much work a job does (chain
lengths), the draw keeps the pass's total work at the canonical amount,
so that wall time measured on different seeds stays comparable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

# theta1 points of every arc detection: the CLI defaults fermi_arc.span
# = 0.5 pi and fermi_arc.grid_step = 0.01 pi give 2 * 50 + 1 points.
ARC_POINTS = 101
# Model knobs the closed-form checks need; passed explicitly on every job.
J = 1.0
JE = 1.0
DELTA0 = -0.1
KAPPA = 0.1

ARC_SIZES = (4, 6, 8, 12, 20, 36)
# Other seeds draw the largest table1 size from these, then five smaller
# distinct even sizes from 4 up, so that every even size 4-40 occurs.
ARC_LARGEST = range(24, 41, 2)
ARC_FERMI_SIZES = (4, 12)
EDGE_SITES = 20
# Two more edge-spectrum jobs run at s and EDGE_PAIR_SUM - s sites: cost
# grows linearly with the chain length, so their total work is the same
# for every s, and neither is longer than EDGE_SITES, which sets the
# peak memory.
EDGE_PAIR_SUM = 32
WINDING_SAMPLES = 512
WINDING_SITES = (4, 12, 36)
# Loop radii (rad).  The readout needs the loop to enclose the zero of the
# reflection, which on a 4-resonator chain sits up to about 0.9 rad from
# the node's projection (kappa = 0.05, Delta0 = 0); smaller loops read
# winding 0 there.  Seed 0 uses the package default 0.25 pi and 1.0,
# other seeds draw from WINDING_RADIUS_RANGE (times pi).
WINDING_RADII = (0.25 * math.pi, 1.0)
WINDING_RADIUS_RANGE = (0.32, 0.4)


@dataclass(frozen=True)
class Job:
    """One `weyllab <command> --set key=value ...` call."""

    label: str
    command: str
    sets: tuple  # ((key, value), ...); values are ints, floats or int lists

    def param(self, key):
        return dict(self.sets)[key]

    def argv(self, outdir: str) -> list[str]:
        args = [self.command]
        for key, value in self.sets:
            if isinstance(value, (list, tuple)):
                text = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            args += ["--set", f"{key}={text}"]
        return args + ["--out", outdir]


@dataclass(frozen=True)
class Workload:
    name: str
    jobs: tuple
    points: int  # work items per pass, in the unit below
    points_unit: str


def _model(delta0=DELTA0, kappa=KAPPA):
    return (("j", J), ("je", JE), ("delta0", delta0), ("kappa", kappa))


def arc_table(seed: int) -> Workload:
    """table1 at six sizes, one job each, plus fermi-arc at two sizes."""
    if seed == 0:
        sizes, fermi = ARC_SIZES, ARC_FERMI_SIZES
    else:
        rng = random.Random(f"arc_table/{seed}")
        # Cost per size is about linear in the size, so the draws keep the
        # canonical size sums (86 and 16).  Peak memory grows with the
        # largest size: about 86 MB at 24 and 92 MB at 40.
        largest = rng.choice(ARC_LARGEST)
        rest = [
            combo
            for combo in itertools.combinations(range(4, largest, 2), len(ARC_SIZES) - 1)
            if sum(combo) + largest == sum(ARC_SIZES)
        ]
        sizes = rng.choice(rest) + (largest,)
        fermi = rng.choice([(4, 12), (6, 10)])
    # One table1 job per size: each job's time is normalised by calibration
    # kernels timed just before and after it, which track the host's
    # speed during a job of a second or two far better than during one of
    # six seconds.
    jobs = [Job(f"table1_s{s}", "table1", _model() + (("table1.sizes", [s]),))
            for s in sizes]
    for s in fermi:
        jobs.append(Job(f"fermi_arc_s{s}", "fermi-arc", _model() + (("sites", s),)))
    spectra = ARC_POINTS * (len(sizes) + len(fermi))
    return Workload("arc_table", tuple(jobs), spectra, "spectra fitted")


def surface_maps(seed: int) -> Workload:
    """Bulk sheet, curvature map, three edge sheets and one density profile."""
    if seed == 0:
        kx, sites = math.pi / 2, 14
        dens = (0.0, math.pi / 2)
    else:
        rng = random.Random(f"surface_maps/{seed}")
        kx = rng.uniform(0.0, math.pi)
        sites = rng.randrange(12, EDGE_PAIR_SUM // 2 + 1, 2)
        dens = (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi))
    grid = 81
    jobs = [
        Job("bulk_bands", "bulk-bands",
            _model() + (("bulk_bands.kx", kx), ("bulk_bands.grid", 201))),
        Job("berry_field", "berry-field", _model() + (("berry_field.grid", grid),)),
    ]
    for k, s in enumerate((EDGE_SITES, sites, EDGE_PAIR_SUM - sites), 1):
        jobs.append(Job(
            f"edge_spectrum_{k}_s{s}", "edge-spectrum",
            _model() + (("edge_spectrum.sites", s), ("edge_spectrum.grid", grid),
                        ("edge_spectrum.densities", 1)),
        ))
    jobs.append(Job(
        "density", "density",
        _model() + (("sites", EDGE_SITES), ("density.theta1", dens[0]),
                    ("density.theta2", dens[1])),
    ))
    points = 201**2 + 4 * grid**2 + 1
    return Workload("surface_maps", tuple(jobs), points, "surface points")


def charge_readout(seed: int) -> Workload:
    """24 winding readouts, the node list, both Chern engines, one trace."""
    if seed == 0:
        delta0, kappa, radii = DELTA0, KAPPA, WINDING_RADII
    else:
        rng = random.Random(f"charge_readout/{seed}")
        kappa = rng.uniform(0.05, 0.3)
        delta0 = rng.uniform(-0.3, 0.3)
        radii = tuple(sorted(
            rng.uniform(*WINDING_RADIUS_RANGE) * math.pi for _ in range(2)
        ))
    model = _model(delta0, kappa)
    jobs = [Job("weyl_points", "weyl-points", model)]
    for node in range(1, 5):
        for s in WINDING_SITES:
            for i, r in enumerate(radii):
                jobs.append(Job(
                    f"winding_w{node}_s{s}_r{i}", "winding",
                    model + (("sites", s), ("winding.weyl", node),
                             ("winding.theta_r", r),
                             ("winding.samples", WINDING_SAMPLES)),
                ))
    jobs.append(Job("chern", "chern", model + (("chern.mesh", 64),)))
    jobs.append(Job("reflection", "reflection", model + (("sites", 36),)))
    samples = 4 * len(WINDING_SITES) * len(radii) * WINDING_SAMPLES
    return Workload("charge_readout", tuple(jobs), samples, "loop samples")


def arc_charge(seed: int) -> Workload:
    """Both spectroscopy paths in one pass: arc_table's batched detuning
    sweeps and charge_readout's scalar loop reflections.  Kept as one
    workload, so that the benchmark's time limit allows two workloads of
    long runs rather than three of short ones: the median job times of a
    long run move less with the shared host's speed."""
    arc, charge = arc_table(seed), charge_readout(seed)
    return Workload("arc_charge", arc.jobs + charge.jobs, arc.points + charge.points,
                    f"{arc.points_unit} + {charge.points_unit}")


WORKLOADS = {
    "arc_charge": arc_charge,
    "surface_maps": surface_maps,
}
