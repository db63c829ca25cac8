import numpy as np
import pytest

from weyllab.model import ModelParams, SyntheticMomentum, weyl_points
from weyllab.topology import (
    DegenerateGroundStateError,
    NonConvergedChernError,
    berry_curvature_numeric,
    berry_curvature_weyl,
    chern_mapped_torus,
    chern_sphere,
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
                got = berry_curvature_numeric(k, plane, 1e-3, p)
                assert got == pytest.approx(oracle[comp], rel=0.05)

    def test_gauge_invariance(self, rng):
        k = SyntheticMomentum(1.2, 0.8, 0.9)
        p = ModelParams()
        ref = berry_curvature_numeric(k, (1, 2), 1e-3, p)
        for _ in range(5):
            got = berry_curvature_numeric(k, (1, 2), 1e-3, p, gauge_rng=rng)
            assert got == pytest.approx(ref, abs=1e-8)

    def test_plane_antisymmetry(self):
        k = SyntheticMomentum(0.9, 0.4, 1.3)
        p = ModelParams()
        assert berry_curvature_numeric(k, (0, 1), 1e-3, p) == pytest.approx(
            -berry_curvature_numeric(k, (1, 0), 1e-3, p)
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
            berry_curvature_numeric(k, (1, 2), step, params)

    def test_degeneracy_rejected(self, params):
        node = weyl_points(params)[0]
        with pytest.raises(DegenerateGroundStateError):
            berry_curvature_numeric(node.location, (1, 2), 1e-3, params)

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
                        berry_curvature_numeric(k, plane, 1e-3, params)
                        for plane in [(1, 2), (2, 0), (0, 1)]
                    ]
                )
                flux += comp @ n * r**2 * np.sin(t) * (np.pi / nth) * (2 * np.pi / nph)
        assert flux / (2 * np.pi) == pytest.approx(charge, rel=0.02)


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
        assert res.mesh == mesh

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
