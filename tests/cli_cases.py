"""Every guarded CLI case: a command line, the exit code it must end in,
the stderr it must print and the files it must leave.

tests/test_cli.py runs each row in process through weyllab.cli.main,
with warnings as errors; CI runs each row through the installed weyllab
console script.  Both hand the result to check().  pytest does not
collect this file.

A row is (argv, exit code, message, files):
- argv is the command line after "weyllab"; the runner puts "--out DIR"
  before it, so a row's own --out wins.
- message is what stderr says after "weyllab: <category>: ", where "..."
  stands for any text; on exit 0 it is "", and stderr must be empty.
- files are the names in DIR, the manifest included, none of them empty,
  on exit 0 or 4; on exit 2 or 3 they are (), and DIR must not exist.
"""

import os
import re

PREFIXES = {
    2: "weyllab: usage error: ",
    3: "weyllab: numerical failure: ",
    4: "weyllab: inconsistent: ",
}

WEYL_POINTS = ("weyl-points_manifest.json", "weyl_points.json")
WINDING = ("winding.json", "winding_manifest.json", "winding_phases.csv")
CONTRADICTS = "W1 winding 0 contradicts its chirality -1"
BLOCH_OVERFLOW = "non-finite Bloch vector at ...: 2 J overflows at J = 1e+308"
MERGED_GRID = (
    "detuning grid in steps of 0.01 J is not strictly increasing at "
    "J = 4.94e-324: rounding merges or overflows its points"
)
LOST_ON_SPHERE = "|h| ... on the sphere is lost in the rounding of |h| up to ...; J dwarfs Je"
LOST_FIT = (
    "resonance-pair fit is not finite at kappa = 1e+200 (J = 1): "
    "the fit window is lost in rounding"
)
TINY = "--set j=1e-307 --set je=1e-307 --set kappa=2e-308"

CASES = [
    # Bad arguments, each in one line instead of argparse's usage block.
    ("", 2, "the following arguments are required: command", ()),
    ("no-such-command", 2, "argument command: invalid choice: ...", ()),
    ("table1 --bogus", 2, "unrecognized arguments: --bogus", ()),
    ("table1 --set", 2, "argument --set: expected one argument", ()),
    ("weyl-points --out /dev/null", 2,
     "output directory /dev/null (from --out): [Errno 17] File exists: '/dev/null'", ()),
    # Values that break their key's rule.
    ("chern --set nope=1", 2, "--set: unknown key 'nope'", ()),
    ("chern --set sites", 2, "--set: expected KEY=VALUE, got 'sites'", ()),
    ("winding --set delta0=nan", 2, "--set: delta0 must be finite, got 'nan'", ()),
    ("winding --set winding.weyl=5", 2, "--set: winding.weyl must be a node index 1..4, got '5'", ()),
    ("bulk-bands --set bulk_bands.grid=0", 2, "--set: bulk_bands.grid must be at least 1, got '0'", ()),
    ("edge-spectrum --set edge_spectrum.densities=7", 2,
     "--set: edge_spectrum.densities must be 0 or 1, got '7'", ()),
    ("berry-field --set berry_field.exclude=-1", 2,
     "--set: berry_field.exclude must be finite and at least 0, got '-1'", ()),
    # Values the computation rejects before it writes.
    ("winding --set winding.samples=10", 2, "need 64 to 10001 samples around the loop", ()),
    ("winding --set winding.samples=10002", 2, "need 64 to 10001 samples around the loop", ()),
    ("winding --set winding.theta_r=1e-300", 2,
     "loop radius theta_r=1e-300 vanishes against the node's angles", ()),
    ("winding --set winding.theta_r=1e-17", 2,
     "loop radius theta_r=1e-17 vanishes against the node's angles", ()),
    ("chern --set chern.theta_r=1e-300", 2,
     "loop radius theta_r=1e-300 vanishes against the node's angles", ()),
    ("chern --set chern.theta_r=1e-17", 2,
     "loop radius theta_r=1e-17 vanishes against the node's angles", ()),
    ("winding --set kappa=0", 2, "winding readout needs kappa > 0", ()),
    ("chern --set chern.mesh=4", 2, "mesh must be at least 8", ()),
    ("edge-spectrum --set edge_spectrum.sites=2", 2, "edge spectrum needs at least two unit cells", ()),
    ("fermi-arc --set fermi_arc.grid_step=0", 2,
     "--set: fermi_arc.grid_step must be finite and positive, got '0'", ()),
    ("reflection --set reflection.step=0", 2, "--set: reflection.step must be finite and positive, got '0'", ()),
    ("fermi-arc --set fermi_arc.window=0.02", 2, "fermi_arc.window must be at least 0.12 J", ()),
    ("table1 --set fermi_arc.window=0.02", 2, "fermi_arc.window must be at least 0.12 J", ()),
    ("reflection --set reflection.window=-1", 2,
     "--set: reflection.window must be finite and at least 0, got '-1'", ()),
    ("fermi-arc --set fermi_arc.span=-0.5", 2, "--set: fermi_arc.span must be finite and at least 0, got '-0.5'", ()),
    # A grid key's sign is a config rule, so any command refuses it.
    ("chern --set reflection.step=0", 2, "--set: reflection.step must be finite and positive, got '0'", ()),
    # A grid too long: the keys that set it, with their values as
    # show-config prints them (the float's repr).
    ("reflection --set reflection.step=5e-324", 2,
     "reflection.window=1.0, reflection.step=5e-324: grid of inf points exceeds 10001; use a coarser step", ()),
    ("reflection --set reflection.step=1e-9", 2,
     "reflection.window=1.0, reflection.step=1e-09: grid of 2e+09 points exceeds 10001; use a coarser step", ()),
    ("fermi-arc --set fermi_arc.grid_step=1e-12", 2,
     "fermi_arc.span=0.5, fermi_arc.grid_step=1e-12: grid of 1e+12 points exceeds 10001; use a coarser step", ()),
    ("fermi-arc --set fermi_arc.window=1e300", 2,
     "fermi_arc.window=1e+300: grid of 2e+302 points exceeds 10001; use a coarser step", ()),
    ("bulk-bands --set bulk_bands.grid=10002", 2,
     "bulk_bands.grid=10002: grid axis of 10002 points exceeds 10001", ()),
    ("berry-field --set berry_field.grid=10002", 2,
     "berry_field.grid=10002: grid axis of 10002 points exceeds 10001", ()),
    ("edge-spectrum --set edge_spectrum.grid=10002", 2,
     "edge_spectrum.grid=10002: grid axis of 10002 points exceeds 10001", ()),
    # A Chern mesh too fine, refused before the first node's.
    ("chern --set chern.mesh=513", 2, "chern.mesh=513: mesh of 513 exceeds 512", ()),
    ("berry-field --set chern.mesh=513", 2, "chern.mesh=513: mesh of 513 exceeds 512", ()),
    ("chern --set chern.torus_grid=257", 2, "chern.torus_grid=257: mesh of 257 exceeds 256", ()),
    ("reflection --set j=5e-324", 2, MERGED_GRID, ()),
    ("fermi-arc --set j=5e-324", 2, MERGED_GRID, ()),
    ("table1 --set j=5e-324", 2, MERGED_GRID, ()),
    ("berry-field --set berry_field.step=1e-170", 2, "plaquette step 1e-170 vanishes in floating point", ()),
    ("berry-field --set berry_field.step=1e-160", 2, "plaquette step 1e-160 vanishes in floating point", ()),
    ("berry-field --set berry_field.step=1e-170 --set berry_field.exclude=100", 2,
     "plaquette step 1e-170 vanishes in floating point", ()),
    ("berry-field --set berry_field.step=-1 --set berry_field.exclude=100", 2,
     "step must be positive and below pi, got -1.0", ()),
    ("berry-field --set berry_field.step=4", 2, "step must be positive and below pi, got 4.0", ()),
    ("berry-field --set berry_field.step=1e200", 2, "step must be positive and below pi, got 1e+200", ()),
    # A hopping that overflows: at 1e200 its squares, at 1e308 2 J itself,
    # so that the Bloch vector is infinite at every node.
    ("bulk-bands --set j=1e200", 2, "non-finite entries in bulk band sheet", ()),
    ("chern --set j=1e200", 2, "non-finite Bloch vector norms on the sphere", ()),
    ("berry-field --set j=1e200", 2, "non-finite Bloch vector norms on the sphere", ()),
    ("edge-spectrum --set j=1e308", 2, "non-finite entries in tridiagonal matrix", ()),
    ("weyl-points --set j=1e308", 2, BLOCH_OVERFLOW, ()),
    ("winding --set j=1e308", 2, BLOCH_OVERFLOW, ()),
    ("chern --set j=1e308", 2, BLOCH_OVERFLOW, ()),
    ("berry-field --set j=1e308", 2, BLOCH_OVERFLOW, ()),
    # Numerical failures.  At j = 1e15 or 1e150 the on-site term is lost in
    # the rounding of |h| on the Chern sphere.  kappa = 0 at zero detuning
    # sits on the decoupled end mode of the theta1 = 0 chain, and at kappa =
    # 1e-15 the end modes leave T + z singular to working precision.  At
    # kappa = 1e200 the pair fit's window is lost against the linewidth.
    ("chern --set je=0", 3,
     "Je = 0 leaves hz identically zero: nodal lines instead of Weyl points", ()),
    ("chern --set j=1e150", 3, LOST_ON_SPHERE, ()),
    ("berry-field --set j=1e150", 3, LOST_ON_SPHERE, ()),
    ("berry-field --set j=1e15", 3, LOST_ON_SPHERE, ()),
    ("reflection --set kappa=0 --set reflection.window=0", 3,
     "system singular to working precision (cond ...)", ()),
    ("reflection --set kappa=0 --set delta0=0 --set reflection.theta1=0", 3,
     "system singular to working precision (cond ...)", ()),
    ("table1 --set kappa=1e-15", 3, "system singular to working precision (cond 3.970e+15)", ()),
    ("fermi-arc --set kappa=1e200", 3, LOST_FIT, ()),
    ("table1 --set kappa=1e200", 3, LOST_FIT, ()),
    # Windings that contradict the node's chirality: the loop's chains are
    # decoupled, gapless or swamped on the drive's scale, or the loop
    # misses the reflection zero.
    ("winding --set j=1e200", 4, CONTRADICTS, WINDING),
    ("winding --set je=1e200", 4, CONTRADICTS, WINDING),
    ("winding --set j=1e-200", 4, CONTRADICTS, WINDING),
    ("winding --set kappa=1e200", 4, CONTRADICTS, WINDING),
    ("winding --set kappa=0.05 --set delta0=0 --set winding.theta_r=0.5", 4, CONTRADICTS, WINDING),
    # Scales at the ends of the float range that the guards must not refuse:
    # the node velocity's entries 1e200 apart, and energies in units of J =
    # 1e-307, which both resolvent paths divide by their power of two.
    ("weyl-points --set j=1e200", 0, "", WEYL_POINTS),
    ("weyl-points --set je=1e200", 0, "", WEYL_POINTS),
    ("weyl-points --set j=1e-200", 0, "", WEYL_POINTS),
    (f"reflection {TINY}", 0, "", ("reflection.csv", "reflection_manifest.json")),
    (f"fermi-arc {TINY}", 0, "",
     ("fermi-arc_manifest.json", "fermi_arc.json", "fermi_arc_spectra.csv")),
    (f"table1 {TINY}", 0, "", ("table1.csv", "table1_manifest.json")),
]


def stderr_message(code, err):
    """The message of a run's stderr: "" on exit 0, where stderr must be
    empty, else its one line after the exit code's prefix.  Raises
    AssertionError when the run breaks that contract."""
    where = f"exit {code}, stderr {err!r}"
    if code == 0:
        assert err == "", where
        return ""
    assert code in PREFIXES and err.startswith(PREFIXES[code]), where
    assert err.count("\n") == 1 and err.endswith("\n"), where
    return err[len(PREFIXES[code]) : -1]


def check(case, code, err, out):
    """Raise AssertionError unless a run of the row `case` that was given
    `--out out` ended in the row's exit code, stderr and files."""
    argv, want_code, pattern, files = case
    where = f"weyllab {argv}: exit {code}, stderr {err!r}"
    assert code == want_code, where
    regex = ".*".join(map(re.escape, pattern.split("...")))
    assert re.fullmatch(regex, stderr_message(code, err), re.S), where
    written = sorted(os.listdir(out)) if os.path.exists(out) else None
    assert written == (sorted(files) or None), f"{where}, files {written}"
    assert all(os.path.getsize(os.path.join(out, name)) for name in files), where
