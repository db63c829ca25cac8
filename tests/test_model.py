import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyllab.model import (
    DegenerateModelError,
    ModelParams,
    SyntheticMomentum,
    bloch_vectors,
    bulk_band_sheet,
    chain_bands,
    linearize,
    weyl_points,
)
from weyllab.numerics import eigh_bands

angles = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


# Datasets and their recorded digests come from these bands; a mismatch
# means numpy's vectorised trig differs from the C library's here.
LIBM_MISMATCH = (
    "chain_bands differs from the libm (math.cos) profiles bit for bit: "
    "numpy's trig differs from libm on this platform, so datasets will "
    "differ from the recorded digests"
)


def libm_bands(theta1s, theta2s, p):
    """chain_bands' rows from scalar math.cos, one angle at a time."""
    diags, offs = [], []
    for t2 in theta2s:
        m = p.Je * math.cos(t2)
        diags.append([m, -m] * p.N)
    for t1 in theta1s:
        c = math.cos(t1)
        offs.append(([p.J * (1.0 - c), p.J * (1.0 + c)] * p.N)[:-1])
    return np.array(diags), np.array(offs)


def assert_libm_rows(theta1s, theta2s, p):
    got = chain_bands(theta1s, theta2s, p)
    for a, b in zip(got, libm_bands(theta1s, theta2s, p)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), LIBM_MISMATCH


class TestProfiles:
    @pytest.mark.parametrize(
        "theta1,expect",
        [(0.0, (0.0, 2.0)), (np.pi / 2, (1.0, 1.0)), (np.pi, (2.0, 0.0))],
    )
    def test_coupling_values(self, theta1, expect, params):
        _, off = chain_bands(theta1, 0.0, params)
        assert tuple(off[0, :2]) == pytest.approx(expect, abs=1e-12)

    @given(angles)
    def test_coupling_bounds_and_sum(self, theta1):
        p = ModelParams(J=1.7)
        _, off = chain_bands(theta1, 0.0, p)
        j1, j2 = off[0, :2]
        assert 0.0 <= j1 <= 2 * p.J + 1e-12
        assert 0.0 <= j2 <= 2 * p.J + 1e-12
        assert j1 + j2 == pytest.approx(2 * p.J)

    @pytest.mark.parametrize(
        "theta2,expect",
        [(np.pi / 2, (0.0, 0.0)), (0.0, (1.0, -1.0)), (np.pi, (-1.0, 1.0))],
    )
    def test_onsite_values(self, theta2, expect, params):
        diag, _ = chain_bands(0.0, theta2, params)
        assert tuple(diag[0, :2]) == pytest.approx(expect, abs=1e-12)

    @pytest.mark.parametrize("n", [41, 81, 201])
    def test_cli_grids_match_libm(self, n):
        # The CLI's angle grids; each row is J (1 -/+ cos theta1) or
        # +/-Je cos theta2 with libm's cos, bit for bit.
        grid = np.linspace(-math.pi, math.pi, n)
        assert_libm_rows(grid, grid, ModelParams(J=1.7, Je=0.6, N=3))

    @given(st.lists(angles, min_size=1, max_size=8),
           st.lists(angles, min_size=1, max_size=8))
    def test_angles_match_libm(self, theta1s, theta2s):
        assert_libm_rows(theta1s, theta2s, ModelParams(J=0.9, Je=1.3, N=2))


def bloch(k: SyntheticMomentum, p: ModelParams) -> tuple[float, float, float]:
    """(hx, hy, hz) at one zone point, as floats."""
    return tuple(map(float, bloch_vectors(k.kx, k.theta1, k.theta2, p)))


def bands(k: SyntheticMomentum, p: ModelParams) -> tuple[float, float]:
    """The bulk bands (E-, E+) at one zone point, as floats."""
    return tuple(map(float, bulk_band_sheet(k.kx, k.theta1, k.theta2, p)))


class TestDVector:
    def test_vanishes_at_node(self, params):
        k = SyntheticMomentum(np.pi / 2, np.pi / 2, np.pi / 2)
        assert bloch(k, params) == pytest.approx((0.0, 0.0, 0.0), abs=1e-15)
        em, ep = bands(k, params)
        assert (em + ep) / 2 == pytest.approx(params.Delta0, abs=1e-15)

    def test_substitutions(self, params):
        d = bloch(SyntheticMomentum(0.0, 0.0, 0.0), params)
        assert d == pytest.approx((2.0, 0.0, 1.0), abs=1e-15)
        d = bloch(SyntheticMomentum(np.pi / 2, 0.0, np.pi / 2), params)
        assert d == pytest.approx((0.0, 2.0, 0.0), abs=1e-15)

    @given(angles, angles, angles, st.sampled_from([0, 1, 2]))
    def test_periodicity(self, kx, t1, t2, axis):
        p = ModelParams()
        k = SyntheticMomentum(kx, t1, t2)
        shift = np.zeros(3)
        shift[axis] = 2 * np.pi
        k2 = SyntheticMomentum(*(np.array([kx, t1, t2]) + shift))
        assert bloch(k, p) == pytest.approx(bloch(k2, p), abs=1e-12)

    def test_reduction_convention(self):
        k = SyntheticMomentum(-np.pi, 3 * np.pi, 0.0)
        assert k.kx == pytest.approx(np.pi)
        assert k.theta1 == pytest.approx(np.pi)
        # Angles above pi are reduced as well.
        k = SyntheticMomentum(4.0, 7.0, -7.0)
        got = k.as_array()
        assert np.all((-np.pi < got) & (got <= np.pi))
        assert got == pytest.approx([4.0 - 2 * np.pi, 7.0 - 2 * np.pi, 2 * np.pi - 7.0])

    @given(angles, angles, angles)
    def test_bloch_matrix_hermitian_and_bands(self, kx, t1, t2):
        p = ModelParams(Delta0=0.3)
        k = SyntheticMomentum(kx, t1, t2)
        hx, hy, hz = bloch(k, p)
        m = np.array(
            [[p.Delta0 + hz, hx - 1j * hy], [hx + 1j * hy, p.Delta0 - hz]]
        )
        assert np.allclose(m, m.conj().T)
        em, ep = bands(k, p)
        assert np.linalg.eigvalsh(m) == pytest.approx([em, ep])


class TestBulkBands:
    def test_degenerate_at_nodes(self, params):
        for w in weyl_points(params):
            em, ep = bands(w.location, params)
            assert em == pytest.approx(ep)
            assert em == pytest.approx(params.Delta0)

    def test_sqrt5_point(self):
        p = ModelParams(Je=1.0, Delta0=0.0)
        em, ep = bands(SyntheticMomentum(0.0, 0.0, 0.0), p)
        assert (em, ep) == pytest.approx((-np.sqrt(5), np.sqrt(5)))

    @given(angles, angles, angles)
    def test_half_period_shift_in_kx(self, kx, t1, t2):
        # sigma_z conjugation flips hx, hy only, so the spectrum repeats
        # after kx -> kx + pi.
        p = ModelParams()
        a = bands(SyntheticMomentum(kx, t1, t2), p)
        b = bands(SyntheticMomentum(kx + np.pi, t1, t2), p)
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

    @given(st.floats(-300, 300), st.floats(-300, 300))
    @settings(max_examples=50)
    def test_chiralities_at_every_energy_scale(self, log_j, log_je):
        # det v = -4 J^2 Je at W1: the node velocity's entries may lie up
        # to 1e600 apart, and no product of them may decide the sign.
        p = ModelParams(J=10.0**log_j, Je=10.0**log_je)
        assert [w.chirality for w in weyl_points(p)] == [-1, 1, -1, 1]

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


def one_chain(theta1, theta2, p):
    """The bands (diag, offdiag) of the chain at one angle pair."""
    diags, offs = chain_bands(theta1, theta2, p)
    return diags[0], offs[0]


class TestOpenChain:
    def test_single_cell(self):
        p = ModelParams(N=1)
        diag, offdiag = one_chain(np.pi / 2, np.pi / 2, p)
        assert diag == pytest.approx([0.0, 0.0], abs=1e-15)
        assert offdiag == pytest.approx([1.0])

    def test_decoupled_first_site(self):
        p = ModelParams(N=4)
        theta2 = 0.7
        vals, vecs = eigh_bands(*one_chain(0.0, theta2, p))
        target = p.Je * np.cos(theta2)
        i = int(np.argmin(np.abs(vals - target)))
        assert vals[i] == pytest.approx(target, abs=1e-12)
        assert abs(vecs[0, i]) == pytest.approx(1.0, abs=1e-12)

    def test_matrix_layout_matches_response_matrix(self):
        # Element-wise: T[2n, 2n+1] = J1, T[2n+1, 2n+2] = J2, and the
        # diagonal alternates the on-site shifts, with no Delta0.
        p = ModelParams(N=3)
        theta1, theta2 = 0.4, 1.1
        diag, offdiag = one_chain(theta1, theta2, p)
        t = np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)
        j1, j2 = p.J * (1 - math.cos(theta1)), p.J * (1 + math.cos(theta1))
        sa, sb = p.Je * math.cos(theta2), -p.Je * math.cos(theta2)
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
        p = ModelParams(N=5)
        vals, _ = eigh_bands(*one_chain(theta1, np.pi / 2, p))
        assert vals == pytest.approx(-vals[::-1], abs=1e-10)

    def test_bands_of_each_angle(self):
        # One diagonal row per theta2 and one off-diagonal row per theta1,
        # in the order of the raveled angles.
        p = ModelParams(N=3)
        diags, offs = chain_bands([[0.1, 0.2]], [0.3, 0.4, 0.5], p)
        assert diags.shape == (3, 6) and offs.shape == (2, 5)
        for row, theta2 in zip(diags, (0.3, 0.4, 0.5)):
            assert np.array_equal(row, one_chain(0.0, theta2, p)[0])
        for row, theta1 in zip(offs, (0.1, 0.2)):
            assert np.array_equal(row, one_chain(theta1, 0.0, p)[1])

    @pytest.mark.parametrize("theta1,theta2", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nonfinite_angle_is_rejected(self, theta1, theta2):
        with pytest.raises(ValueError, match="non-finite entries in tridiagonal"):
            chain_bands([0.0, theta1], theta2, ModelParams())


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
