import numpy as np
import pytest
from hypothesis import given, strategies as st

from weyllab.model import (
    DegenerateModelError,
    ModelParams,
    SyntheticMomentum,
    bulk_band_sheet,
    bulk_bands,
    coupling_profile,
    d_vector,
    dispersive_map,
    linearize,
    onsite_profile,
    open_chain_hamiltonian,
    weyl_points,
)

angles = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


class TestProfiles:
    @pytest.mark.parametrize(
        "theta1,expect",
        [(0.0, (0.0, 2.0)), (np.pi / 2, (1.0, 1.0)), (np.pi, (2.0, 0.0))],
    )
    def test_coupling_values(self, theta1, expect, params):
        assert coupling_profile(theta1, params) == pytest.approx(expect, abs=1e-12)

    @given(angles)
    def test_coupling_bounds_and_sum(self, theta1):
        p = ModelParams(J=1.7)
        j1, j2 = coupling_profile(theta1, p)
        assert 0.0 <= j1 <= 2 * p.J + 1e-12
        assert 0.0 <= j2 <= 2 * p.J + 1e-12
        assert j1 + j2 == pytest.approx(2 * p.J)

    @pytest.mark.parametrize(
        "theta2,expect",
        [(np.pi / 2, (0.0, 0.0)), (0.0, (1.0, -1.0)), (np.pi, (-1.0, 1.0))],
    )
    def test_onsite_values(self, theta2, expect, params):
        assert onsite_profile(theta2, params) == pytest.approx(expect, abs=1e-12)

    def test_dispersive_map(self):
        assert dispersive_map(0.3, 2.0) == pytest.approx(-0.045)
        assert dispersive_map(0.0, 1.0) == 0.0
        assert dispersive_map(1.0, -1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            dispersive_map(0.3, 0.0)


class TestDVector:
    def test_vanishes_at_node(self, params):
        d = d_vector(SyntheticMomentum(np.pi / 2, np.pi / 2, np.pi / 2), params)
        assert (d.hx, d.hy, d.hz) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        assert d.delta0 == params.Delta0

    def test_substitutions(self, params):
        d = d_vector(SyntheticMomentum(0.0, 0.0, 0.0), params)
        assert (d.hx, d.hy, d.hz) == pytest.approx((2.0, 0.0, 1.0), abs=1e-15)
        d = d_vector(SyntheticMomentum(np.pi / 2, 0.0, np.pi / 2), params)
        assert (d.hx, d.hy, d.hz) == pytest.approx((0.0, 2.0, 0.0), abs=1e-15)

    @given(angles, angles, angles, st.sampled_from([0, 1, 2]))
    def test_periodicity(self, kx, t1, t2, axis):
        p = ModelParams()
        k = SyntheticMomentum(kx, t1, t2)
        shift = np.zeros(3)
        shift[axis] = 2 * np.pi
        k2 = SyntheticMomentum(*(np.array([kx, t1, t2]) + shift))
        d1, d2 = d_vector(k, p), d_vector(k2, p)
        assert (d1.hx, d1.hy, d1.hz) == pytest.approx(
            (d2.hx, d2.hy, d2.hz), abs=1e-12
        )

    def test_reduction_convention(self):
        k = SyntheticMomentum(-np.pi, 3 * np.pi, 0.0)
        assert k.kx == pytest.approx(np.pi)
        assert k.theta1 == pytest.approx(np.pi)

    @given(angles, angles, angles)
    def test_bloch_matrix_hermitian_and_bands(self, kx, t1, t2):
        p = ModelParams(Delta0=0.3)
        d = d_vector(SyntheticMomentum(kx, t1, t2), p)
        m = d.matrix()
        assert np.allclose(m, m.conj().T)
        em, ep = bulk_bands(SyntheticMomentum(kx, t1, t2), p)
        assert np.linalg.eigvalsh(m) == pytest.approx([em, ep])


class TestBulkBands:
    def test_degenerate_at_nodes(self, params):
        for w in weyl_points(params):
            em, ep = bulk_bands(w.location, params)
            assert em == pytest.approx(ep)
            assert em == pytest.approx(params.Delta0)

    def test_sqrt5_point(self):
        p = ModelParams(Je=1.0, Delta0=0.0)
        em, ep = bulk_bands(SyntheticMomentum(0.0, 0.0, 0.0), p)
        assert (em, ep) == pytest.approx((-np.sqrt(5), np.sqrt(5)))

    @given(angles, angles, angles)
    def test_half_period_shift_in_kx(self, kx, t1, t2):
        # sigma_z conjugation flips hx, hy only, so the spectrum repeats
        # after kx -> kx + pi.
        p = ModelParams()
        a = bulk_bands(SyntheticMomentum(kx, t1, t2), p)
        b = bulk_bands(SyntheticMomentum(kx + np.pi, t1, t2), p)
        assert a == pytest.approx(b, abs=1e-12)

    def test_gap_positive_away_from_nodes(self, params):
        axis = np.linspace(-np.pi, np.pi, 41)
        q = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        nodes = np.array([w.location.as_array() for w in weyl_points(params)])
        offsets = (q[..., None, :] - nodes + np.pi) % (2 * np.pi) - np.pi
        far = np.linalg.norm(offsets, axis=-1).min(axis=-1) > 0.2
        em, ep = bulk_band_sheet(*np.moveaxis(q, -1, 0), params)
        min_split = (ep - em)[far].min()
        assert min_split > 0.0


class TestWeylPoints:
    def test_four_points_and_locations(self, params):
        ws = weyl_points(params)
        assert len(ws) == 4
        locs = [(w.location.kx, w.location.theta1, w.location.theta2) for w in ws]
        h = np.pi / 2
        assert locs == pytest.approx(
            [(h, h, h), (h, h, -h), (h, -h, -h), (h, -h, h)]
        )

    def test_chirality_grouping(self, params):
        c = [w.chirality for w in weyl_points(params)]
        assert c[0] * c[1] == -1
        assert c[0] * c[2] == +1
        assert sum(c) == 0

    def test_degenerate_when_je_zero(self):
        with pytest.raises(DegenerateModelError):
            weyl_points(ModelParams(Je=0.0))

    def test_linearize_velocities(self, params):
        ws = weyl_points(params)
        assert ws[0].velocity == pytest.approx(np.diag([-2.0, -2.0, -1.0]), abs=1e-12)
        assert ws[3].velocity == pytest.approx(np.diag([-2.0, 2.0, -1.0]), abs=1e-12)
        for w in ws:
            assert abs(np.linalg.det(w.velocity)) == pytest.approx(4.0)

    def test_linearize_rejects_generic_point(self, params):
        with pytest.raises(ValueError):
            linearize(SyntheticMomentum(0.3, 0.1, 0.2), params)


class TestOpenChain:
    def test_single_cell(self):
        p = ModelParams(N=1)
        h = open_chain_hamiltonian(np.pi / 2, np.pi / 2, p)
        assert h.diag == pytest.approx([0.0, 0.0], abs=1e-15)
        assert h.offdiag == pytest.approx([1.0])

    def test_decoupled_first_site(self):
        p = ModelParams(N=4)
        theta2 = 0.7
        h = open_chain_hamiltonian(0.0, theta2, p)
        from weyllab.numerics import eigh_tridiagonal

        vals, vecs = eigh_tridiagonal(h)
        target = p.Je * np.cos(theta2)
        i = int(np.argmin(np.abs(vals - target)))
        assert vals[i] == pytest.approx(target, abs=1e-12)
        assert abs(vecs[0, i]) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_layout_matches_response_matrix(self):
        # Element-wise: T[2n, 2n+1] = J1, T[2n+1, 2n+2] = J2, and the
        # diagonal alternates the on-site shifts, with no Delta0.
        p = ModelParams(N=3)
        theta1, theta2 = 0.4, 1.1
        t = open_chain_hamiltonian(theta1, theta2, p).to_dense()
        j1, j2 = coupling_profile(theta1, p)
        sa, sb = onsite_profile(theta2, p)
        for n in range(p.N):
            assert t[2 * n, 2 * n + 1] == pytest.approx(j1)
            assert t[2 * n + 1, 2 * n] == pytest.approx(j1)
            assert t[2 * n, 2 * n] == pytest.approx(sa)
            assert t[2 * n + 1, 2 * n + 1] == pytest.approx(sb)
        for n in range(1, p.N):
            assert t[2 * n - 1, 2 * n] == pytest.approx(j2)
        assert np.count_nonzero(t - np.tril(np.triu(t, -1), 1)) == 0

    @given(angles, angles)
    def test_chiral_symmetry_at_half_pi(self, theta1, extra):
        # theta2 = pi/2 kills the on-site terms; the bipartite chain
        # spectrum is then symmetric under E -> -E.
        from weyllab.numerics import eigh_tridiagonal

        p = ModelParams(N=5)
        h = open_chain_hamiltonian(theta1, np.pi / 2, p)
        vals, _ = eigh_tridiagonal(h)
        assert vals == pytest.approx(-vals[::-1], abs=1e-10)


class TestModelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(J=0.0)
        with pytest.raises(ValueError):
            ModelParams(Je=-1.0)
        with pytest.raises(ValueError):
            ModelParams(kappa=-0.1)
        with pytest.raises(ValueError):
            ModelParams(N=0)

    def test_sites(self):
        assert ModelParams(N=10).sites == 20
