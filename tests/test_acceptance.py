"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers when it completes (run pytest -s to see them
inline; they also appear in captured output on failure)."""

import math
import time

import numpy as np
import pytest

from weyllab.cli import main
from weyllab.model import ModelParams, SyntheticMomentum, bulk_band_sheet, weyl_points
from weyllab.numerics import eigh_bands, unwrap_winding
from weyllab.openchain import (
    arc_membership,
    density_profile,
    diagonalize_chain,
    max_symmetric_interval,
)
from weyllab.spectroscopy import (
    detect_arc_endpoint,
    left_drive,
    loop_reflection,
    reflections,
    steady_state,
    transient_oracle,
)
from weyllab.topology import chern_mapped_torus, chern_sphere

TABLE1 = {4: 0.20, 6: 0.30, 8: 0.35, 12: 0.40, 20: 0.45, 36: 0.48}


def report(n, name, detail=""):
    print(f"[acceptance] criterion {n} ({name}): PASS {detail}")


def chain(sites, **kw):
    return ModelParams(N=sites // 2, **kw)


def test_criterion_1_table1_reproduction(tmp_path):
    t0 = time.time()
    code = main(["table1", "--out", str(tmp_path)])
    elapsed = time.time() - t0
    assert code == 0
    rows = (tmp_path / "table1.csv").read_text().strip().splitlines()[1:]
    got = {}
    for row in rows:
        n_str, theta_str = row.split(",")
        got[int(n_str)] = float(theta_str) / math.pi
    assert sorted(got) == sorted(TABLE1)
    for n, reported in TABLE1.items():
        assert abs(got[n] - reported) <= 0.02 + 1e-9, (n, got[n], reported)
    assert elapsed < 60.0
    report(
        1,
        "table1",
        f"endpoints {{N: theta1c/pi}} = { {n: round(v, 2) for n, v in got.items()} } "
        f"in {elapsed:.1f}s",
    )


def test_criterion_2_winding_readout():
    t0 = time.time()
    nodes = weyl_points(ModelParams())
    w1_vals, w4_vals = set(), set()
    for sites in (4, 12):
        for kappa in (0.1, 0.7, 1.5):
            p = chain(sites, Delta0=-0.1, kappa=kappa)
            for node, vals in ((nodes[0], w1_vals), (nodes[3], w4_vals)):
                r = loop_reflection(node, 0.25 * math.pi, 128, p)[1]
                vals.add(unwrap_winding(np.angle(r)).winding)
    elapsed = time.time() - t0
    assert len(w1_vals) == 1 and len(w4_vals) == 1
    w1, w4 = w1_vals.pop(), w4_vals.pop()
    assert abs(w1) == 1 and abs(w4) == 1 and w1 == -w4
    assert elapsed < 5.0
    report(2, "winding", f"W1 -> {w1:+d}, W4 -> {w4:+d}, stable over N and kappa, "
                         f"{elapsed:.2f}s")


def test_criterion_3_monopole_charges():
    t0 = time.time()
    p = ModelParams()
    spheres, raws = [], []
    for w in weyl_points(p):
        s = chern_sphere(w, 0.2, 64, p)
        t = chern_mapped_torus(w, 0.25 * math.pi, 40, p)
        spheres.append(s.value)
        raws.append(t.raw)
        assert abs(s.value) == 1
        assert round(t.raw) == 2 * s.value
        assert abs(t.raw - 2 * s.value) < 1e-6
        assert t.value == s.value
    elapsed = time.time() - t0
    c1, c2, c3, c4 = spheres
    assert sum(spheres) == 0
    assert c1 == c3 == -c2 == -c4
    assert elapsed < 5.0
    report(3, "monopole charges", f"C = {spheres}, torus raw = "
           f"{[round(r, 6) for r in raws]}, {elapsed:.2f}s")


def test_criterion_4_gaplessness():
    p = ModelParams()
    grid = np.linspace(-math.pi, math.pi, 101)
    h = math.pi / 2
    nodes = [(s1 * h, s2 * h) for s1 in (-1, 1) for s2 in (-1, 1)]
    closed, min_far = [], np.inf
    for t1 in grid:
        for t2 in grid:
            k = SyntheticMomentum(h, t1, t2)
            em, ep = map(float, bulk_band_sheet(k.kx, k.theta1, k.theta2, p))
            split = ep - em
            if split < 1e-12 * p.J:
                closed.append((t1, t2))
            dist = min(
                math.hypot(
                    (t1 - a + math.pi) % (2 * math.pi) - math.pi,
                    (t2 - b + math.pi) % (2 * math.pi) - math.pi,
                )
                for a, b in nodes
            )
            if dist > 0.05 * math.pi:
                min_far = min(min_far, split)
    assert len(closed) == 4
    for point in closed:
        assert min(math.hypot(point[0] - a, point[1] - b) for a, b in nodes) < 1e-9
    assert min_far > 0.05 * p.J
    report(4, "gaplessness", f"4 exact closings, min far splitting "
           f"{min_far:.4f} J")


def test_criterion_5_edge_physics():
    p = chain(20)
    vals, vecs, labels = diagonalize_chain(0.0, math.pi / 2, p)
    near = np.nonzero(np.abs(vals) < 0.02 * p.J)[0]
    assert near.size == 2
    assert sorted(labels[i] for i in near) == ["Left", "Right"]

    def left_weight(theta1):
        v, w, lab = diagonalize_chain(theta1, math.pi / 2, p)
        idx = [i for i in range(v.size) if lab[i] == "Left" and abs(v[i]) < 0.1]
        dens = density_profile(w[:, idx[0]])
        return dens[0] + dens[1]

    w0 = left_weight(0.0)
    w45 = left_weight(0.45 * math.pi)
    assert w0 > w45
    report(5, "edge physics", f"two zero modes (L, R); first-cell weight "
           f"{w0:.4f} at 0 vs {w45:.4f} at 0.45 pi")


def test_criterion_6_oracle_equivalence():
    # Steady state against the transient integrator.  The transient
    # deviation is exactly exp(-kappa t / 2) times the steady norm, so
    # the 1e-6 comparison is made at t = 40 / kappa (twenty amplitude
    # decay times); at t = 20 / kappa the deviation is exp(-10), which
    # is verified against that closed form instead.
    worst = 0.0
    for sites in (4, 12):
        for kappa in (0.1, 0.7):
            p = chain(sites, kappa=kappa, Delta0=-0.1)
            drive = left_drive(p)
            ss = steady_state(0.2, 0.9, drive, p)
            a40 = transient_oracle(0.2, 0.9, drive, p, t_end=40.0 / kappa)
            rel = np.linalg.norm(a40 - ss) / np.linalg.norm(ss)
            worst = max(worst, rel)
            assert rel <= 1e-6
            a20 = transient_oracle(0.2, 0.9, drive, p, t_end=20.0 / kappa)
            rel20 = np.linalg.norm(a20 - ss) / np.linalg.norm(ss)
            assert rel20 == pytest.approx(math.exp(-10.0), rel=1e-3)

    grid = np.arange(-50, 51) * 0.01 * math.pi
    for sites in TABLE1:
        p = chain(sites)
        det = detect_arc_endpoint(math.pi / 2, grid, p)
        oracle = max_symmetric_interval(grid, arc_membership(math.pi / 2, grid, p))
        assert not det.flagged
        assert math.isnan(det.theta1c) == math.isnan(oracle)
        if not math.isnan(det.theta1c):
            assert det.theta1c == pytest.approx(oracle, abs=1e-9)
    report(6, "oracle equivalence", f"transient worst rel {worst:.2e} at 40/kappa "
           f"(exp(-10) law verified at 20/kappa); detection == oracle at all 6 sizes")


def test_criterion_7_closed_form_checks():
    for d0 in np.linspace(-5.0, 5.0, 101):
        p = ModelParams(N=1, Je=0.0, kappa=0.1, Delta0=d0)
        assert abs(abs(reflections(0.0, math.pi / 2, [d0], p)[0, 0]) - 1.0) <= 1e-12
    p = chain(6, kappa=0.0, Delta0=-0.43)
    assert reflections(0.25, 0.8, [p.Delta0], p)[0, 0] == 1.0

    assert unwrap_winding(np.full(32, 1.3)).winding == 0
    n = 64
    loop = 2 * math.pi * np.arange(n) / n
    assert unwrap_winding(np.angle(np.exp(1j * loop))).winding == 1
    assert unwrap_winding(np.angle(np.exp(-1j * loop))).winding == -1
    report(7, "closed-form checks", "|r|=1 single resonator; kappa=0 r=1; "
           "winding properties hold")


def test_criterion_8_numerical_hygiene():
    rng = np.random.default_rng(8)
    worst_resid, worst_ortho = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(1, 73))
        d = rng.normal(size=n)
        e = rng.normal(size=n - 1) if n > 1 else np.empty(0)
        vals, vecs = eigh_bands(d, e)
        rows = np.abs(d)  # the infinity norm: the largest absolute row sum
        rows[:-1] += np.abs(e)
        rows[1:] += np.abs(e)
        scale = max(1.0, rows.max())
        dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
        resid = np.abs(dense @ vecs - vecs * vals).max() / scale
        ortho = np.abs(vecs.T @ vecs - np.eye(n)).max()
        worst_resid, worst_ortho = max(worst_resid, resid), max(worst_ortho, ortho)
        assert resid <= 1e-10 and ortho <= 1e-10

    p = ModelParams()
    w = weyl_points(p)[0]
    ref = chern_mapped_torus(w, 0.25 * math.pi, 24, p).raw
    for _ in range(100):
        raw = chern_mapped_torus(w, 0.25 * math.pi, 24, p, gauge_rng=rng).raw
        assert raw == pytest.approx(ref, abs=1e-9)
    report(8, "numerical hygiene", f"worst eig residual {worst_resid:.2e}, "
           f"orthonormality {worst_ortho:.2e}, gauge-invariant over 100 trials")
