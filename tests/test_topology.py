import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyllab import topology
from weyllab.cli import main
from weyllab.config import DEFAULTS
from weyllab.model import ModelParams, SyntheticMomentum, bloch_vectors, weyl_points
from weyllab.numerics import solid_angle_batch
from weyllab.topology import (
    DegenerateGroundStateError,
    NonConvergedChernError,
    berry_curvature_numeric,
    berry_curvature_weyl,
    chern_mapped_torus,
    chern_sphere,
    monopole_sum,
)


def monopole_superposition(k, nodes, charges):
    """Independent oracle: periodic-image-reduced sum of the four
    analytic monopole fields."""
    total = np.zeros(3)
    for w, c in zip(nodes, charges):
        d = k.as_array() - w.location.as_array()
        d = (d + np.pi) % (2 * np.pi) - np.pi
        total += berry_curvature_weyl(d, c)
    return total


class TestAnalyticField:
    def test_formula(self):
        f = berry_curvature_weyl([0.0, 0.0, 1.0], +1)
        assert f == pytest.approx([0.0, 0.0, 0.5])

    def test_inverse_square(self):
        q = np.array([0.3, -0.2, 0.5])
        assert np.linalg.norm(berry_curvature_weyl(2 * q, 1)) == pytest.approx(
            np.linalg.norm(berry_curvature_weyl(q, 1)) / 4
        )

    def test_closed_form_flux_is_charge(self):
        # The radial projection F . n is charge / (2 r^2) everywhere on
        # a sphere of radius r, so the flux is that times 4 pi r^2,
        # i.e. 2 pi charge, and C = charge for any radius.
        rng = np.random.default_rng(3)
        for charge in (+1, -1):
            for radius in (0.5, 2.0):
                for _ in range(50):
                    n = rng.normal(size=3)
                    n /= np.linalg.norm(n)
                    f = berry_curvature_weyl(radius * n, charge)
                    assert f @ n == pytest.approx(charge / (2 * radius**2))
                flux = (1.0 / (2 * radius**2)) * 4 * np.pi * radius**2 * charge
                assert flux / (2 * np.pi) == pytest.approx(charge)

    def test_singular_at_origin(self):
        with pytest.raises(ZeroDivisionError):
            berry_curvature_weyl([0.0, 0.0, 0.0], 1)


class TestPlaquetteCurvature:
    def test_far_field_matches_monopole_sum(self):
        # Isotropic nodes (Je = 2J makes all three velocities equal), so
        # the analytic monopole superposition is a valid pointwise
        # oracle away from the nodes.
        p = ModelParams(Je=2.0)
        nodes = weyl_points(p)
        charges = [chern_sphere(w, 0.2, 24, p).value for w in nodes]
        probes = [
            (nodes[0], (0.15, 0.10, 0.08)),
            (nodes[0], (0.12, 0.18, 0.10)),
            (nodes[2], (0.10, 0.14, 0.12)),
        ]
        for node, off in probes:
            k = SyntheticMomentum(*(node.location.as_array() + np.array(off)))
            oracle = monopole_superposition(k, nodes, charges)
            for plane, comp in [((1, 2), 0), ((2, 0), 1), ((0, 1), 2)]:
                got = berry_curvature_numeric(k.as_array(), plane, 1e-3, p)
                assert got == pytest.approx(oracle[comp], rel=0.05)

    def test_gauge_invariance(self, rng):
        k = SyntheticMomentum(1.2, 0.8, 0.9)
        p = ModelParams()
        ref = berry_curvature_numeric(k.as_array(), (1, 2), 1e-3, p)
        for _ in range(5):
            got = berry_curvature_numeric(k.as_array(), (1, 2), 1e-3, p, gauge_rng=rng)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_plane_antisymmetry(self):
        k = SyntheticMomentum(0.9, 0.4, 1.3)
        p = ModelParams()
        assert berry_curvature_numeric(k.as_array(), (0, 1), 1e-3, p) == pytest.approx(
            -berry_curvature_numeric(k.as_array(), (1, 0), 1e-3, p)
        )

    @pytest.mark.parametrize(
        "theta,step",
        [(0.3, 1e-160), (0.3, 1e-170), (0.3, 5e-324), (0.0, 1e-170), (0.0, 5e-324)],
    )
    def test_vanishing_step_rejected(self, params, theta, step):
        # At theta = 0.3 the step is lost against the angle; at theta = 0
        # it is not, but its square underflows.
        k = SyntheticMomentum(0.7, theta, theta)
        with pytest.raises(ValueError, match="vanishes in floating point"):
            berry_curvature_numeric(k.as_array(), (1, 2), step, params)

    def test_degeneracy_rejected(self, params):
        node = weyl_points(params)[0]
        with pytest.raises(DegenerateGroundStateError):
            berry_curvature_numeric(node.location.as_array(), (1, 2), 1e-3, params)

    def test_surface_summed_flux_matches_analytic(self, params):
        # Outward-quadrature of the plaquette field over a small sphere
        # reproduces the quantized monopole flux within 2%.
        node = weyl_points(params)[0]
        charge = chern_sphere(node, 0.2, 24, params).value
        r, nth, nph = 0.2, 12, 24
        th = (np.arange(nth) + 0.5) * np.pi / nth
        ph = (np.arange(nph) + 0.5) * 2 * np.pi / nph
        flux = 0.0
        for t in th:
            for f_ in ph:
                n = np.array(
                    [np.sin(t) * np.cos(f_), np.sin(t) * np.sin(f_), np.cos(t)]
                )
                k = SyntheticMomentum(*(node.location.as_array() + r * n))
                comp = np.array(
                    [
                        berry_curvature_numeric(k.as_array(), plane, 1e-3, params)
                        for plane in [(1, 2), (2, 0), (0, 1)]
                    ]
                )
                flux += comp @ n * r**2 * np.sin(t) * (np.pi / nth) * (2 * np.pi / nph)
        assert flux / (2 * np.pi) == pytest.approx(charge, rel=0.02)


# The per-point scalar code the stacked kernels replaced, kept as the
# bit-for-bit references of the field map.


def reference_monopole(q, charge):
    """One node's field at one offset, as np.linalg.norm and ** give it."""
    r = np.linalg.norm(q)
    return charge * q / (2.0 * r**3)


def reference_plaquette(k, plane, step, p):
    """One plaquette value from vdot overlaps, abs and a complex product."""
    i, j = plane
    corners = np.tile(k.as_array(), (4, 1))
    corners[1, i] += step
    corners[2, i] += step
    corners[2, j] += step
    corners[3, j] += step
    hx, hy, hz = bloch_vectors(corners[:, 0], corners[:, 1], corners[:, 2], p)
    mats = np.empty((4, 2, 2), dtype=complex)
    mats[:, 0, 0] = hz
    mats[:, 1, 1] = -hz
    mats[:, 0, 1] = hx - 1j * hy
    mats[:, 1, 0] = hx + 1j * hy
    vals, vecs = np.linalg.eigh(mats)
    if (vals[:, 1] - vals[:, 0]).min() < 1e-6:
        raise DegenerateGroundStateError("reference plaquette on a node")
    psi = vecs[:, :, 0]
    prod = 1.0 + 0.0j
    for a in range(4):
        ov = np.vdot(psi[a], psi[(a + 1) % 4])
        prod *= ov / abs(ov)
    return -float(np.angle(prod)) / step**2


def reference_berry_field(grid, step, exclude, p):
    """berry_field.csv rows from the per-point loop over the grid."""
    ws = weyl_points(p)
    charges = [
        chern_sphere(w, DEFAULTS["chern.radius"], DEFAULTS["chern.mesh"], p).value
        for w in ws
    ]
    rows = []
    for t1 in grid:
        for t2 in grid:
            k = SyntheticMomentum(math.pi / 2, t1, t2)
            offsets = []
            for w in ws:
                d = k.as_array() - w.location.as_array()
                offsets.append((d + math.pi) % (2.0 * math.pi) - math.pi)
            dmin = min(float(np.linalg.norm(d)) for d in offsets)
            if dmin < 1e-9:
                analytic = np.full(3, math.nan)
            else:
                analytic = np.zeros(3)
                for d, c in zip(offsets, charges):
                    analytic += reference_monopole(d, c)
            if dmin > exclude:
                numeric = reference_plaquette(k, (1, 2), step, p)
            else:
                numeric = math.nan
            rows.append((t1, t2, analytic[0], analytic[1], analytic[2], numeric))
    return rows


PLANES = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]


def _random_points(rng, n, p, clearance=0.05):
    """n random zone points at least `clearance` from every node."""
    ks = [SyntheticMomentum(*rng.uniform(-np.pi, np.pi, 3)) for _ in range(3 * n)]
    q = np.array([k.as_array() for k in ks])
    _, dmin = monopole_sum(q, weyl_points(p), [1, -1, 1, -1])
    return q[dmin > clearance][:n]


class TestStackedKernels:
    @pytest.mark.parametrize("plane", PLANES)
    def test_plaquette_bits_match_scalar_loop(self, plane, rng):
        for p, step in [(ModelParams(), 1e-3), (ModelParams(J=0.5, Je=2.0), 1e-2),
                        (ModelParams(J=3.0, Je=0.3), 1e-4)]:
            q = _random_points(rng, 300, p)
            got = berry_curvature_numeric(q, plane, step, p)
            want = [reference_plaquette(SyntheticMomentum(*x), plane, step, p)
                    for x in q]
            assert got.shape == (len(q),)
            assert got.tobytes() == np.array(want).tobytes()
            # Stacking is free: any leading shape, and the one-point form.
            grid = berry_curvature_numeric(q[:294].reshape(7, 42, 3), plane, step, p)
            assert grid.tobytes() == got[:294].tobytes()
            one = berry_curvature_numeric(SyntheticMomentum(*q[0]).as_array(), plane,
                                          step, p)
            assert np.float64(one).tobytes() == got[:1].tobytes()

    def test_stacked_gauge_invariance(self, params, rng):
        q = _random_points(rng, 200, params)
        for plane in PLANES:
            ref = berry_curvature_numeric(q, plane, 1e-3, params)
            got = berry_curvature_numeric(q, plane, 1e-3, params, gauge_rng=rng)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_monopole_sum_bits_match_scalar_loop(self, params, rng):
        nodes = weyl_points(params)
        charges = [w.chirality for w in nodes]
        locs = np.array([w.location.as_array() for w in nodes])
        # Random points, the nodes themselves and their 2 pi images.
        q = np.concatenate([rng.uniform(-4.0, 4.0, (2000, 3)), locs, locs - 2 * np.pi])
        field, dmin = monopole_sum(q, nodes, charges)
        for x, f, r in zip(q, field, dmin):
            offsets = [(x - loc + np.pi) % (2 * np.pi) - np.pi for loc in locs]
            assert r == min(float(np.linalg.norm(d)) for d in offsets)
            if r < 1e-9:
                assert np.isnan(f).all()
                continue
            want = np.zeros(3)
            for d, c in zip(offsets, charges):
                want += reference_monopole(d, c)
            assert f.tobytes() == want.tobytes()

    def test_blocks_match_one_block(self, params, rng, monkeypatch):
        # Block edges fall inside the stack and inside a leading axis.
        q = _random_points(rng, 50, params)
        whole = berry_curvature_numeric(q, (1, 2), 1e-3, params)
        monkeypatch.setattr(topology, "BLOCK_POINTS", 7)
        got = berry_curvature_numeric(q.reshape(5, 10, 3), (1, 2), 1e-3, params)
        assert got.shape == (5, 10)
        assert got.tobytes() == whole.tobytes()

    def test_step_checked_before_points(self, params):
        # With no points at all, a bad step is still rejected.
        empty = np.empty((0, 3))
        assert berry_curvature_numeric(empty, (1, 2), 1e-3, params).shape == (0,)
        with pytest.raises(ValueError, match="positive"):
            berry_curvature_numeric(empty, (1, 2), -1.0, params)
        # A step of pi or more is refused, 1e200 before its square overflows.
        for step in (np.pi, 4.0, 1e200):
            with pytest.raises(ValueError, match="below pi"):
                berry_curvature_numeric(empty, (1, 2), step, params)
        with pytest.raises(ValueError, match="vanishes in floating point"):
            berry_curvature_numeric(empty, (1, 2), 1e-170, params)


@given(
    st.integers(1, 21),
    st.floats(1e-4, 1e-2),
    st.floats(0.0, 0.6),
    st.sampled_from([0.3, 1.0, 2.0]),
    st.sampled_from([0.5, 1.0, 3.0]),
)
@settings(max_examples=30)
def test_berry_field_csv_matches_per_point_loop(grid, step, exclude, je, j):
    sets = {"berry_field.grid": grid, "berry_field.step": step,
            "berry_field.exclude": exclude, "je": je, "j": j}
    args = [a for key, v in sets.items() for a in ("--set", f"{key}={v!r}")]
    p = ModelParams(J=j, Je=je, Delta0=DEFAULTS["delta0"], kappa=DEFAULTS["kappa"])
    axis = np.linspace(-math.pi, math.pi, grid)
    with tempfile.TemporaryDirectory() as d:
        code = main(["berry-field", "--out", d, *args])
        try:
            rows = reference_berry_field(axis, step, exclude, p)
        except DegenerateGroundStateError:
            assert code == 3
            return
        assert code == 0
        lines = (Path(d) / "berry_field.csv").read_text().splitlines()
    assert lines[0] == "theta1,theta2,F_kx,F_theta1,F_theta2,F_kx_numeric"
    want = [[repr(float(x)) for x in row] for row in rows]
    assert [line.split(",") for line in lines[1:]] == want


@pytest.mark.parametrize("grid,exclude,je", [(41, 0.15, 1.0), (41, 0.6, 2.0), (20, 0.3, 0.5)])
def test_berry_field_csv_is_the_monopole_closed_form(tmp_path, grid, exclude, je):
    # The analytic columns are sum_w chirality_w d_w / (2 |d_w|^3) over the
    # wrapped offsets d_w from the four nodes, to 1e-12 of the field's
    # magnitude, and the numeric column is NaN exactly within `exclude`
    # of a node.
    sets = {"berry_field.grid": grid, "berry_field.exclude": exclude, "je": je}
    args = [a for key, v in sets.items() for a in ("--set", f"{key}={v!r}")]
    assert main(["berry-field", "--out", str(tmp_path), *args]) == 0
    assert_monopole_closed_form(tmp_path / "berry_field.csv", exclude, ModelParams(Je=je))


def assert_monopole_closed_form(path, exclude, p):
    """berry_field.csv at path holds the closed-form monopole sum of p's
    nodes, and NaN in F_kx_numeric exactly within exclude of a node."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    q = np.stack([np.full(len(data), math.pi / 2), data[:, 0], data[:, 1]], -1)
    want = np.zeros((len(data), 3))
    dmin = np.full(len(data), np.inf)
    for w in weyl_points(p):
        d = (q - w.location.as_array() + math.pi) % (2 * math.pi) - math.pi
        r = np.linalg.norm(d, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            want += w.chirality * d / (2 * r[:, None] ** 3)
        dmin = np.minimum(dmin, r)
    at_node = dmin < 1e-9
    got = data[:, 2:5]
    assert np.isnan(got[at_node]).all() and not np.isnan(got[~at_node]).any()
    err = np.linalg.norm(got - want, axis=-1)[~at_node]
    assert (err <= 1e-12 * np.linalg.norm(want, axis=-1)[~at_node]).all()
    assert np.array_equal(np.isnan(data[:, 5]), dmin <= exclude)
    assert 0 < np.count_nonzero(dmin <= exclude) < len(data)


def test_berry_field_at_large_hopping_is_the_closed_form(tmp_path):
    # J = 1e14 is the largest decade whose sphere charges survive rounding.
    assert main(["berry-field", "--out", str(tmp_path), "--set", "j=1e14"]) == 0
    exclude = DEFAULTS["berry_field.exclude"]
    assert_monopole_closed_form(tmp_path / "berry_field.csv", exclude, ModelParams(J=1e14))


def whole_mesh_sphere(w, radius, mesh, p):
    """chern_sphere's raw degree from the whole latitude-longitude mesh at
    once, with its |h| guards: the form the banded sphere keeps bit for
    bit.  Its arrays take about 140 bytes a point (36 MB at mesh 256)."""
    nth, nph = mesh, 2 * mesh
    theta = np.linspace(0.0, np.pi, nth + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    normals = np.stack([np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1)
    pts = w.location.as_array() + radius * normals
    h = np.stack(bloch_vectors(pts[..., 0], pts[..., 1], pts[..., 2], p), axis=-1)
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(h, axis=-1)
    if not np.isfinite(norm).all():
        raise ValueError("non-finite Bloch vector norms on the sphere")
    if norm.min() < 1e-12:
        raise NonConvergedChernError("sphere touches a band-degeneracy point")
    if norm.min() < topology.GAP_REL_MIN * norm.max():
        raise NonConvergedChernError(
            f"|h| {norm.min():.3e} on the sphere is lost in the rounding of "
            f"|h| up to {norm.max():.3e}; J dwarfs Je"
        )
    hhat = h / norm[..., None]
    ahead = np.roll(hhat, -1, axis=1)
    total = (solid_angle_batch(hhat[:-1], hhat[1:], ahead[1:]).sum()
             + solid_angle_batch(hhat[:-1], ahead[1:], ahead[:-1]).sum())
    return float(total / (4.0 * np.pi))


class TestChernSphereBands:
    # BLOCK_POINTS (2,048) points a band: mesh 8 and 24 are one band, mesh
    # 64 five of 15 quad rows (the last of 4), mesh 100 twelve of 9 (the
    # last of 1).
    @pytest.mark.parametrize("radius", [0.2, 1.0])
    @pytest.mark.parametrize("mesh", [8, 24, 64, 100])
    def test_raw_is_the_whole_mesh_bit_for_bit(self, params, mesh, radius):
        for w in weyl_points(params):
            got = chern_sphere(w, radius, mesh, params)
            assert got.raw.hex() == whole_mesh_sphere(w, radius, mesh, params).hex()

    @pytest.mark.parametrize("j", [1e15, 1e150])
    def test_guards_read_every_band(self, j):
        # The least and largest |h| lie in different bands at mesh 100,
        # and the refusal names both as the whole mesh does.
        p = ModelParams(J=j)
        for w in weyl_points(p):
            with pytest.raises(NonConvergedChernError) as want:
                whole_mesh_sphere(w, 0.2, 100, p)
            with pytest.raises(NonConvergedChernError, match="lost in the rounding") as got:
                chern_sphere(w, 0.2, 100, p)
            assert str(got.value) == str(want.value)

    def test_memory_at_mesh_256(self, params):
        # The two whole (256, 512) solid-angle arrays (2 MB) and one band's
        # temporaries (about 0.5 MB): the whole mesh peaked at 36 MB.
        w = weyl_points(params)[0]
        tracemalloc.start()
        chern_sphere(w, 0.2, 256, params)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 * 256 * 512 * 8 + 2**20


class TestChernSphere:
    def test_unit_charges_grouping_and_sum(self, params):
        values = [chern_sphere(w, 0.2, 24, params).value for w in weyl_points(params)]
        assert all(abs(v) == 1 for v in values)
        assert sum(values) == 0
        w1, w2, w3, w4 = values
        assert w1 == w3 == -w2 == -w4

    def test_matches_chirality(self, params):
        for w in weyl_points(params):
            assert chern_sphere(w, 0.2, 24, params).value == w.chirality

    @pytest.mark.parametrize("radius", [0.1, 0.2, 0.4])
    def test_radius_invariance(self, radius, params):
        for w in weyl_points(params):
            assert chern_sphere(w, radius, 24, params).value == w.chirality

    @pytest.mark.parametrize("mesh", [8, 24, 64])
    def test_mesh_invariance(self, mesh, params):
        w = weyl_points(params)[1]
        res = chern_sphere(w, 0.2, mesh, params)
        assert res.value == 1
        assert abs(res.raw - res.value) < 0.05

    @pytest.mark.parametrize("j", [1e15, 1e150])
    def test_onsite_term_lost_in_rounding_is_refused(self, j):
        # At J = 1e150 the rounding of cos(pi/2) leaves |h| at least 1.7e134
        # on the sphere against 4.0e149 at most, so every solid angle falls
        # below solid_angle_batch's cut and each degree would read 0.
        p = ModelParams(J=j)
        for w in weyl_points(p):
            with pytest.raises(NonConvergedChernError, match="lost in the rounding"):
                chern_sphere(w, DEFAULTS["chern.radius"], DEFAULTS["chern.mesh"], p)

    def test_large_hopping_keeps_each_chirality(self):
        p = ModelParams(J=1e14)
        ws = weyl_points(p)
        values = [chern_sphere(w, DEFAULTS["chern.radius"], DEFAULTS["chern.mesh"], p).value
                  for w in ws]
        assert values == [w.chirality for w in ws] == [-1, 1, -1, 1]

    def test_parameter_validation(self, params):
        w = weyl_points(params)[0]
        with pytest.raises(ValueError):
            chern_sphere(w, 2.0, 24, params)
        with pytest.raises(ValueError):
            chern_sphere(w, 0.2, 4, params)


class TestChernMappedTorus:
    def test_raw_is_twice_sphere(self, params):
        for w in weyl_points(params):
            sphere = chern_sphere(w, 0.2, 24, params)
            torus = chern_mapped_torus(w, 0.25 * np.pi, 40, params)
            assert round(torus.raw) == 2 * sphere.value
            assert abs(torus.raw - 2 * sphere.value) < 1e-6
            assert torus.value == sphere.value

    def test_empty_circle_gives_zero(self, params):
        # A circle around (0, 0) encloses no node projection.
        from weyllab.model import WeylPoint

        fake = WeylPoint(
            SyntheticMomentum(np.pi / 2, 0.0, 0.0),
            np.diag([1.0, 1.0, 1.0]),
            1,
        )
        res = chern_mapped_torus(fake, 0.2 * np.pi, 40, params)
        assert res.value == 0
        assert abs(res.raw) < 1e-8

    @pytest.mark.parametrize("grid", [20, 40, 80])
    def test_grid_invariance(self, grid, params):
        w = weyl_points(params)[0]
        assert chern_mapped_torus(w, 0.25 * np.pi, grid, params).value == -1

    def test_gauge_invariance_trials(self, params, rng):
        w = weyl_points(params)[2]
        ref = chern_mapped_torus(w, 0.25 * np.pi, 24, params).raw
        for _ in range(100):
            got = chern_mapped_torus(w, 0.25 * np.pi, 24, params, gauge_rng=rng).raw
            assert got == pytest.approx(ref, abs=1e-9)

    def test_radius_validation(self, params):
        w = weyl_points(params)[0]
        with pytest.raises(ValueError):
            chern_mapped_torus(w, 1.6, 40, params)
        with pytest.raises(ValueError):
            chern_mapped_torus(w, 0.25 * np.pi, 10, params)

    @pytest.mark.parametrize("theta_r", [1e-300, 1e-17])
    def test_radius_lost_against_the_node_is_refused(self, params, theta_r):
        # The loop's rule: not a closing gap, which advised shrinking theta_r.
        w = weyl_points(params)[0]
        with pytest.raises(ValueError, match="vanishes against the node's angles"):
            chern_mapped_torus(w, theta_r, 40, params)

    @pytest.mark.parametrize("j", [1e150, 1e200])
    def test_onsite_term_lost_in_rounding_is_refused(self, j):
        # At J = 1e150 the hopping terms' rounding (about 1e134 where
        # cos(pi/2) should vanish) swamps the unit on-site term that opens
        # the gap, which read value 0 with no error before this guard.
        p = ModelParams(J=j)
        for w in weyl_points(p):
            with pytest.raises(DegenerateGroundStateError, match="lost in the rounding"):
                chern_mapped_torus(w, 0.25 * np.pi, 40, p)

    @pytest.mark.parametrize("j", [1e10, 1e14])
    def test_large_hopping_keeps_each_chirality(self, j):
        p = ModelParams(J=j)
        for w in weyl_points(p):
            torus = chern_mapped_torus(w, 0.25 * np.pi, 40, p)
            assert torus.value == w.chirality and torus.raw == pytest.approx(2 * w.chirality)
