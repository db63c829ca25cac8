#!/usr/bin/env python3
"""Reproduce every figure- and table-grade dataset in one run.

Drives the CLI end to end and leaves the plot-ready CSV/JSON files
plus run manifests under the chosen output directory (default
./weyllab_out, or $WEYLLAB_OUT, or --out).
"""

import argparse
import sys
import time

from weyllab.cli import main as weyllab_main

RUNS = [
    # bulk spectrum sheet in the kx = pi/2 plane (band-touching map)
    ("bulk_bands", "bulk-bands", []),
    # node locations, linearizations, chiralities
    ("weyl_points", "weyl-points", []),
    # monopole charges, both methods, at the acceptance mesh
    ("chern", "chern", ["--set", "chern.mesh=64"]),
    # curvature field map with the analytic monopole comparison
    ("berry_field", "berry-field", []),
    # edge-state sheets for a 20-resonator chain, with densities
    ("edge_spectrum", "edge-spectrum", ["--set", "edge_spectrum.densities=1"]),
    # site-resolved densities at the arc center
    ("density", "density", ["--set", "sites=20"]),
    # reflection trace through the zero-energy edge resonance
    ("reflection", "reflection", ["--set", "reflection.theta1=0.3141592653589793"]),
    # phase-winding charge readout for two opposite nodes, two sizes
    ("winding_w1_sites4", "winding", ["--set", "winding.weyl=1"]),
    ("winding_w4_sites12", "winding", ["--set", "winding.weyl=4", "--set", "sites=12"]),
    # arc endpoints from reflection spectra, minimal four-resonator chain
    ("fermi_arc_sites4", "fermi-arc", []),
    ("fermi_arc_sites12", "fermi-arc", ["--set", "sites=12"]),
    # finite-size endpoint table
    ("table1", "table1", []),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="weyllab_out", help="output directory root"
    )
    args = parser.parse_args(argv)

    t0 = time.time()
    for label, command, overrides in RUNS:
        target = f"{args.out}/{label}"
        print(f"== weyllab {command} {' '.join(overrides)} --out {target}")
        code = weyllab_main([command, *overrides, "--out", target])
        if code != 0:
            print(f"{command} failed with exit code {code}", file=sys.stderr)
            return code
    print(f"all datasets written in {time.time() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
