import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar

from weyllab.model import ModelParams, chain_bands, weyl_points
from weyllab import numerics, spectroscopy
from weyllab.numerics import (
    SingularMatrixError,
    UndersampledLoopError,
    solve_shifted,
    unwrap_winding,
)
from weyllab.openchain import (
    EDGE_WEIGHT_MIN,
    ZTOL_DEFAULT,
    _distinct_rows,
    diagonalize_chain,
    edge_spectrum,
)
from weyllab.spectroscopy import (
    DELTA0_STEP,
    FIT_WINDOW,
    _fit_zero_pairs,
    _pair_fit,
    detect_arc_endpoint,
    detuning_grid,
    left_drive,
    loop_reflection,
    reflections,
    steady_state,
    symmetric_grid,
    transient_oracle,
)


def chain(sites: int, **kw) -> ModelParams:
    return ModelParams(N=sites // 2, **kw)


DGRID = np.arange(-100, 101) * 0.01


def loop_winding(w, theta_r, samples, p, offset=0.0):
    """Winding of arg r_L around loop_reflection's loop."""
    r = loop_reflection(w, theta_r, samples, p, offset)[1]
    return unwrap_winding(np.angle(r)).winding


def banded_chain(theta1, theta2, p):
    """The dense chain matrix of the model's bands at one angle pair,
    built here rather than by the package."""
    (diag,), (offdiag,) = chain_bands(theta1, theta2, p)
    return np.diag(diag) + np.diag(offdiag, 1) + np.diag(offdiag, -1)


NAN_PATHS = {
    "diagonalize_chain": lambda p, bad: diagonalize_chain(bad, 0.3, p),
    "edge_spectrum": lambda p, bad: edge_spectrum([0.1, bad], [0.3], p),
    "reflections": lambda p, bad: reflections([0.1, bad], 0.3, [0.0], p),
    "steady_state": lambda p, bad: steady_state(0.1, bad, left_drive(p), p),
    "transient_oracle": lambda p, bad: transient_oracle(
        bad, 0.3, left_drive(p), p, t_end=1.0
    ),
    "detect_arc_endpoint": lambda p, bad: detect_arc_endpoint(
        bad, [-0.1, 0.0, 0.1], p=p
    ),
}


@pytest.mark.parametrize("path", NAN_PATHS)
def test_nan_angle_meets_the_band_guard(path):
    # Every chain path reaches the one finiteness check of model.chain_bands,
    # infinite angles too, which math.cos would reject with its own message.
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(
            ValueError, match="^non-finite entries in tridiagonal matrix$"
        ):
            NAN_PATHS[path](chain(4), bad)


class TestSteadyState:
    def test_isolated_site_closed_form(self):
        # Decoupled driven resonator: a1 = -Omega / (-i kappa / 2).
        p = ModelParams(N=1, Je=0.0, Delta0=0.0, kappa=0.4)
        omega = 0.7 + 0.2j
        a = steady_state(0.0, np.pi / 2, left_drive(p, omega), p)
        assert a[0] == pytest.approx(-2j * omega / p.kappa)
        assert a[1] == pytest.approx(0.0)

    def test_zero_drive(self, params):
        a = steady_state(0.3, 0.8, np.zeros(params.sites, dtype=complex), params)
        assert np.all(a == 0)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.integers(0, 2**32 - 1))
    @example(x=0.0, y=5e-324, seed=0)  # a subnormal drive is solved scaled
    @settings(max_examples=25)
    def test_linearity(self, x, y, seed):
        p = chain(8)
        rng = np.random.default_rng(seed)
        drive = rng.normal(size=p.sites) + 1j * rng.normal(size=p.sites)
        scale = x + 1j * y
        a1 = steady_state(0.4, 1.0, drive, p)
        a2 = steady_state(0.4, 1.0, scale * drive, p)
        assert np.allclose(a2, scale * a1, atol=1e-12)

    def test_residual_bound(self, params):
        drive = left_drive(params)
        a = steady_state(0.2, 0.5, drive, params)
        resid = banded_chain(0.2, 0.5, params) @ a
        resid += (params.Delta0 - 0.5j * params.kappa) * a + drive
        assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(a))

    def test_undamped_resonance_is_singular(self):
        # kappa = 0 with Delta0 on an eigenvalue of T: dimer at
        # theta1 = pi/2 has T eigenvalues +/- J.
        p = ModelParams(N=1, kappa=0.0, Delta0=1.0)
        with pytest.raises(SingularMatrixError):
            steady_state(np.pi / 2, np.pi / 2, left_drive(p), p)


class TestTransientOracle:
    def test_converges_to_steady_state(self):
        for sites, kappa in ((4, 0.1), (12, 0.7)):
            p = chain(sites, kappa=kappa)
            drive = left_drive(p)
            ss = steady_state(0.2, 0.9, drive, p)
            a = transient_oracle(0.2, 0.9, drive, p, t_end=40.0 / kappa)
            assert np.linalg.norm(a - ss) <= 1e-6 * np.linalg.norm(ss)

    def test_relaxation_rate_is_half_kappa(self):
        # The deviation from the steady state is exactly a decaying
        # rotation: ||a(t) - a_ss|| = exp(-kappa t / 2) ||a_ss||.
        p = chain(4, kappa=0.1)
        drive = left_drive(p)
        ss = steady_state(0.3, 0.7, drive, p)
        t = 20.0 / p.kappa
        a = transient_oracle(0.3, 0.7, drive, p, t_end=t)
        rel = np.linalg.norm(a - ss) / np.linalg.norm(ss)
        assert rel == pytest.approx(np.exp(-p.kappa * t / 2), rel=1e-3)

    def test_norm_conserved_without_damping(self, rng):
        p = chain(6, kappa=0.0)
        a0 = rng.normal(size=p.sites) + 1j * rng.normal(size=p.sites)
        drive = np.zeros(p.sites, dtype=complex)
        a = transient_oracle(0.5, 1.1, drive, p, t_end=10.0, dt=0.005, a0=a0)
        assert np.linalg.norm(a) == pytest.approx(np.linalg.norm(a0), abs=1e-8)

    def test_halving_dt(self):
        p = chain(4)
        drive = left_drive(p)
        a1 = transient_oracle(0.2, 0.4, drive, p, t_end=15.0, dt=0.008)
        a2 = transient_oracle(0.2, 0.4, drive, p, t_end=15.0, dt=0.004)
        assert np.linalg.norm(a1 - a2) <= 1e-8 * np.linalg.norm(a2)

    def test_dt_stability_guard(self):
        p = chain(4)
        with pytest.raises(ValueError):
            transient_oracle(0.0, 0.0, left_drive(p), p, t_end=1.0, dt=0.5)

    @pytest.mark.parametrize(
        "sites,kappa,t_end", [(4, 0.1, 30.0), (12, 0.7, 8.0), (6, 0.0, 12.0)]
    )
    def test_affine_step_matches_stage_loop(self, rng, sites, kappa, t_end):
        # Reference: the four RK4 stages evaluated afresh at every step.
        # The same map, rounded differently: allow 8 eps of |a| per step.
        p = chain(sites, kappa=kappa)
        drive = left_drive(p)
        a0 = rng.normal(size=p.sites) + 1j * rng.normal(size=p.sites)
        got = transient_oracle(0.3, 0.8, drive, p, t_end=t_end, a0=a0)
        m = banded_chain(0.3, 0.8, p) + (
            p.Delta0 - 0.5j * p.kappa
        ) * np.eye(p.sites)
        dt_max = 0.05 / max(abs(p.Delta0) + 4.0 * p.J + p.Je, p.kappa)
        nsteps = int(np.ceil(t_end / dt_max))
        h = t_end / nsteps

        def f(y):
            return -1j * (m @ y + drive)

        a = a0.copy()
        for _ in range(nsteps):
            k1 = f(a)
            k2 = f(a + 0.5 * h * k1)
            k3 = f(a + 0.5 * h * k2)
            k4 = f(a + h * k3)
            a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        eps = np.finfo(float).eps
        assert np.abs(got - a).max() <= 8 * nsteps * eps * np.abs(a).max()


class TestReflection:
    def test_single_resonator_unit_modulus(self):
        for d0 in np.linspace(-5, 5, 41):
            p = ModelParams(N=1, Je=0.0, kappa=0.1, Delta0=d0)
            r = reflections(0.0, np.pi / 2, [p.Delta0], p)[0, 0]
            assert abs(abs(r) - 1.0) <= 1e-12
            assert r == pytest.approx((d0 + 0.05j) / (d0 - 0.05j))

    def test_kappa_zero_off_resonance(self):
        p = chain(4, kappa=0.0, Delta0=-0.37)
        assert reflections(0.3, 0.7, [p.Delta0], p)[0, 0] == 1.0

    def test_large_detuning_limit(self):
        assert reflections(0.4, 0.9, [1e6], chain(8))[0, 0] == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda p: reflections(np.pi / 2, np.pi / 2, [p.Delta0], p)[0, 0],
            lambda p: reflections(np.pi / 2, np.pi / 2, [0.5, 1.0, 1.5], p),
        ],
        ids=["reflection", "reflection_spectrum"],
    )
    def test_undamped_resonance_is_singular(self, solve):
        # The same resonance as TestSteadyState's: every path that solves
        # for the response applies the same singular-response rule.
        with pytest.raises(SingularMatrixError):
            solve(ModelParams(N=1, kappa=0.0, Delta0=1.0))

    def test_drive_amplitude_cancels(self):
        p = chain(8, Delta0=-0.2)
        r = reflections(0.5, 1.2, [p.Delta0], p)[0, 0]
        for omega in (1.0, 3.7 - 1.1j):
            a = steady_state(0.5, 1.2, left_drive(p, omega), p)
            r_from_drive = 1.0 - 1j * p.kappa * a[0] / omega
            assert r_from_drive == pytest.approx(r, abs=1e-12)


def _dense_chain(theta1, theta2, p):
    """The chain matrix written out from the hopping and on-site rules,
    without the model's band builder."""
    h = np.zeros((p.sites, p.sites))
    for s in range(p.sites):
        h[s, s] = (-1) ** s * p.Je * np.cos(theta2)
        if s + 1 < p.sites:
            h[s, s + 1] = h[s + 1, s] = p.J * (1 - (-1) ** s * np.cos(theta1))
    return h


_ANGLES = st.one_of(
    st.sampled_from([0.0, np.pi, -np.pi, np.pi / 2]), st.floats(-np.pi, np.pi)
)


class TestReflections:
    @given(
        cells=st.integers(1, 20),
        angles=st.lists(st.tuples(_ANGLES, _ANGLES), min_size=1, max_size=9),
        detunings=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        je=st.sampled_from([0.0, 0.4, 1.0]),
        kappa=st.floats(0.05, 1.0),
        budget=st.sampled_from([1, 250, spectroscopy.SYSTEM_ENTRIES]),
        lu_entries=st.sampled_from([1, 3000, numerics.LU_ENTRIES]),
    )
    # 12 sites in 250 entries hold 20 systems, 6 whole chains of 3
    # detunings, and 3000 dense entries 20 systems too.
    @example(
        cells=6, angles=[(0.1 * k, 0.3) for k in range(8)], detunings=[-0.5, 0.0, 0.5],
        je=0.4, kappa=0.5, budget=250, lu_entries=3000,
    )
    @settings(max_examples=60)
    def test_stack_equals_per_chain_solves(
        self, cells, angles, detunings, je, kappa, budget, lu_entries
    ):
        # Budgets of one system and of a few chains split the stack over
        # chains and over detunings, and the LU's chunks split each call.
        p = ModelParams(N=cells, Je=je, kappa=kappa)
        t1s, t2s = np.array(angles).T
        n, m, solve, calls = p.sites, len(detunings), spectroscopy.solve_shifted, []

        def spy(d, e, z, b):
            # Each call's systems, one row of bands and one shift apiece.
            shape = np.broadcast_shapes(d.shape[:-1], e.shape[:-1], np.shape(z))
            calls.append(
                (np.broadcast_to(d, shape + (n,)).reshape(-1, n), np.broadcast_to(z, shape).ravel())
            )
            return solve(d, e, z, b)

        with mock.patch.object(spectroscopy, "SYSTEM_ENTRIES", budget), mock.patch.object(
            spectroscopy, "solve_shifted", spy
        ), mock.patch.object(numerics, "LU_ENTRIES", lu_entries):
            r = reflections(t1s, t2s, detunings, p)
        assert r.shape == (len(angles), m)
        z = np.array(detunings) - 0.5j * kappa
        # Every block within its budget, of whole chains where a chain's
        # detunings fit, and every (chain, detuning) system once, chain-major.
        cap = max(1, budget // n)
        assert all(len(shifts) <= cap for _, shifts in calls)
        if cap >= m:
            assert all(len(shifts) % m == 0 for _, shifts in calls)
        diags = chain_bands(t1s, t2s, p)[0]
        assert np.array_equal(np.concatenate([d for d, _ in calls]), np.repeat(diags, m, axis=0))
        assert np.array_equal(np.concatenate([s for _, s in calls]), np.tile(z, len(angles)))
        for row, t1, t2 in zip(r, t1s, t2s):
            (d,), (e,) = chain_bands(t1, t2, p)
            g11 = solve_shifted(d, e, z, left_drive(p))[:, 0]
            assert np.array_equal(row, 1.0 + 1j * kappa * g11)
            assert np.abs(row).max() <= 1.0 + 1e-12  # the port is passive
            dense = _dense_chain(t1, t2, p) + z[:, None, None] * np.eye(p.sites)
            g = np.linalg.solve(dense, np.eye(p.sites)[0])[:, 0]
            assert np.abs(row - (1.0 + 1j * kappa * g)).max() <= 1e-12

    @given(
        cells=st.integers(1, 20),
        angles=st.lists(st.tuples(_ANGLES, _ANGLES), min_size=1, max_size=4),
        detunings=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
        je=st.sampled_from([0.0, 0.4, 1.0]),
        kappa=st.floats(1e-3, 10.0),
    )
    # A subnormal detuning, which dividing T + z by 4 would round.
    @example(cells=2, angles=[(0.0, 0.0)], detunings=[2.225073858507e-311], je=0.0, kappa=1.0)
    @settings(max_examples=40)
    def test_matches_dense_oracle_bit_for_bit(self, cells, angles, detunings, je, kappa):
        # r = 1 + i kappa [(T + z)^-1]_00 from one dense solve per system,
        # on 2-40 sites: the datasets rest on these bits.
        p = chain(2 * cells, Je=je, kappa=kappa)
        t1s, t2s = np.array(angles).T
        r = reflections(t1s, t2s, detunings, p)
        e1 = np.eye(p.sites)[0]
        for row, t1, t2 in zip(r, t1s, t2s):
            t = banded_chain(t1, t2, p)
            for r_k, d0 in zip(row, detunings):
                z = d0 - 0.5j * kappa
                g = np.linalg.solve(t + z * np.eye(p.sites), e1)[0]
                assert r_k.tobytes() == (1.0 + 1j * kappa * g).tobytes()

    def test_angles_broadcast(self):
        p = chain(6)
        grid = np.linspace(-1.0, 1.0, 5)
        r = reflections(grid, 0.7, [-0.1, 0.2], p)
        assert np.array_equal(r, reflections(grid, np.full(5, 0.7), [-0.1, 0.2], p))
        assert np.array_equal(r[3], reflections(grid[3], 0.7, [-0.1, 0.2], p)[0])

    def test_damped_stack_needs_no_eigenvalues(self):
        # kappa > 0 bounds every condition number; undamped systems get
        # the exact one, from eigenvalues.
        grid = np.linspace(-1.0, 1.0, 9)
        with mock.patch.object(numerics, "dstev", wraps=numerics.dstev) as eig:
            reflections(grid, 0.3, DGRID, chain(12))
            assert eig.call_count == 0
            reflections(grid, 0.3, [0.05], chain(12, kappa=0.0))
            assert eig.call_count > 0

    def test_singular_message_reports_the_exact_cond(self):
        # Undamped on resonance, Im z = 0 leaves no bound.
        p = ModelParams(N=1, kappa=0.0, Delta0=1.0)
        with pytest.raises(SingularMatrixError, match=r"\(cond \d"):
            steady_state(np.pi / 2, np.pi / 2, left_drive(p), p)

    @pytest.mark.parametrize("budget", [1, spectroscopy.SYSTEM_ENTRIES])
    def test_one_singular_chain_fails_the_stack(self, budget):
        # Undamped at zero detuning, the theta1 = 0 chain at theta2 = pi/2
        # has a decoupled end site at zero energy; the gapped theta2 = 0
        # chains do not.
        p = chain(8, kappa=0.0)
        with mock.patch.object(spectroscopy, "SYSTEM_ENTRIES", budget):
            assert np.isfinite(reflections([0.3, 0.5], [0.0, 0.0], [0.0], p)).all()
            with pytest.raises(SingularMatrixError):
                reflections([0.3, 0.0, 0.5], [0.0, np.pi / 2, 0.0], [0.0], p)

    def test_loop_memory_grows_only_with_its_output(self):
        # At 36 sites, a loop of 4,096 samples peaks above one of 512 by
        # less than twice the growth of its output (theta and r, 24 bytes
        # a sample): the loop's own two angle arrays add 16 bytes a sample,
        # and each block's chain bands and LU chunk are the same size at
        # both lengths.  Whole-loop chain bands would add 576 bytes a
        # sample, and one whole-loop dense stack 20 kB.
        p = chain(36)
        node = weyl_points(p)[0]
        peaks, sizes = [], []
        for samples in (512, 4096):
            tracemalloc.start()
            theta, r = loop_reflection(node, 0.25 * np.pi, samples, p)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            sizes.append(theta.nbytes + r.nbytes)
        assert peaks[1] - peaks[0] <= 2 * (sizes[1] - sizes[0]), peaks


class TestReflectionSpectrum:
    def test_matches_pointwise_reflection(self):
        p = chain(8)
        grid = np.linspace(-1, 1, 11)
        for d0, r in zip(grid, reflections(0.2, 0.8, grid, p)[0]):
            assert r == pytest.approx(reflections(0.2, 0.8, [d0], p)[0, 0], abs=1e-12)

    def test_flat_at_decoupled_point(self):
        # theta1 = 0 decouples the driven resonator, which then reflects
        # everything at every detuning: |r| = 1 identically.
        r = reflections(0.0, np.pi / 2, DGRID, chain(4))[0]
        assert np.abs(np.abs(r) - 1.0).max() <= 1e-12

    def test_zero_energy_dip_inside_arc(self):
        # Inside the arc the near-zero edge mode leaves a reflection
        # feature exactly at zero detuning.
        R = np.abs(reflections(0.1 * np.pi, np.pi / 2, DGRID, chain(4))[0]) ** 2
        i0 = np.argmin(np.abs(DGRID))
        assert np.argmin(R) == i0
        assert R[i0] < R[i0 - 1] < 1.0
        assert R[i0] < R[i0 + 1] < 1.0

    def test_split_features_outside_arc(self):
        R = np.abs(reflections(0.4 * np.pi, np.pi / 2, DGRID, chain(4))[0]) ** 2
        d = DGRID
        i0 = np.argmin(np.abs(d))
        ileft = np.argmin(R[:i0])
        iright = i0 + 1 + np.argmin(R[i0 + 1 :])
        assert d[ileft] == pytest.approx(-d[iright], abs=1e-9)
        assert abs(d[ileft]) > 0.02
        assert R[i0] > R[ileft] and R[i0] > R[iright]

    @given(st.floats(0, np.pi))
    @settings(max_examples=20)
    def test_even_in_theta1(self, theta1):
        p = chain(8)
        grid = np.linspace(-1, 1, 21)
        ra = np.abs(reflections(theta1, np.pi / 2, grid, p)[0]) ** 2
        rb = np.abs(reflections(-theta1, np.pi / 2, grid, p)[0]) ** 2
        assert ra == pytest.approx(rb, abs=1e-12)

    def test_center_depth_grows_toward_arc_edge(self):
        # R(0) = 1 at the perfectly reflecting center, then decreases as
        # the edge mode hybridizes (deeper dips approaching the arc end).
        values = []
        for theta1 in (0.0, 0.1 * np.pi, 0.15 * np.pi):
            r = reflections(theta1, np.pi / 2, DGRID, chain(4))[0]
            values.append(abs(r[np.argmin(np.abs(DGRID))]) ** 2)
        assert values[0] > values[1] > values[2]

    @pytest.mark.parametrize("half_width", [-1.0, -5e-324, -np.inf, np.inf, np.nan])
    def test_grid_rejects_bad_half_width(self, half_width):
        with pytest.raises(ValueError, match="half-width"):
            symmetric_grid(half_width, 0.1)
        with pytest.raises(ValueError, match="half-width"):
            detuning_grid(half_width, 0.01, chain(4))

    def test_grid_of_zero_half_width(self):
        assert symmetric_grid(0.0, 0.1).tolist() == [0.0]
        assert symmetric_grid(0.04, 0.1).tolist() == [0.0]

    @pytest.mark.parametrize("j,window", [(5e-324, 1.0), (1e-322, 1.0), (1e308, 10.0)])
    def test_detuning_grid_refuses_merged_points(self, j, window):
        # k * 0.01 * J rounds to repeated subnormals at a tiny J and to
        # infinities at a huge one; a one-point grid has no steps to merge.
        with pytest.raises(ValueError, match="not strictly increasing"):
            detuning_grid(window, DELTA0_STEP, chain(4, J=j))
        assert detuning_grid(0.0, DELTA0_STEP, chain(4, J=j)).tolist() == [0.0]

    def test_arc_detection_refuses_merged_fit_grid(self):
        # The fit grid is refused before any chain is solved.
        with pytest.raises(ValueError, match="not strictly increasing"):
            detect_arc_endpoint(np.pi / 2, [0.0], chain(4, J=5e-324))

    def test_detuning_grid_keeps_subnormal_steps(self):
        # Steps of 1e-309 are subnormal but distinct: the grid stands.
        grid = detuning_grid(1.0, DELTA0_STEP, chain(4, J=1e-307))
        assert grid.size == 201 and (np.diff(grid) > 0).all()


class TestWindingMeasurement:
    def test_opposite_charges_resolved(self):
        ws = weyl_points(ModelParams())
        p = chain(4, Delta0=-0.1, kappa=0.1)
        w1 = loop_winding(ws[0], 0.25 * np.pi, 128, p)
        w4 = loop_winding(ws[3], 0.25 * np.pi, 128, p)
        assert abs(w1) == 1 and abs(w4) == 1
        assert w1 == -w4
        assert w1 == ws[0].chirality
        assert w4 == ws[3].chirality

    @pytest.mark.parametrize("sites", [4, 12])
    @pytest.mark.parametrize("kappa", [0.1, 0.7, 1.5])
    def test_size_and_damping_invariance(self, sites, kappa):
        ws = weyl_points(ModelParams())
        p = chain(sites, Delta0=-0.1, kappa=kappa)
        assert loop_winding(ws[0], 0.25 * np.pi, 128, p) == -1

    def test_loop_shape_invariance(self):
        ws = weyl_points(ModelParams())
        p = chain(4)
        ref = loop_winding(ws[1], 0.25 * np.pi, 128, p)
        assert loop_winding(ws[1], 0.2 * np.pi, 128, p) == ref
        assert loop_winding(ws[1], 0.3 * np.pi, 128, p) == ref
        assert loop_winding(ws[1], 0.25 * np.pi, 64, p) == ref
        assert loop_winding(ws[1], 0.25 * np.pi, 256, p) == ref
        assert loop_winding(ws[1], 0.25 * np.pi, 128, p, offset=0.4) == ref

    def test_parameter_guards(self):
        ws = weyl_points(ModelParams())
        with pytest.raises(ValueError):
            loop_winding(ws[0], 0.25 * np.pi, 32, chain(4))
        with pytest.raises(ValueError):
            loop_winding(ws[0], 1.6, 128, chain(4))
        with pytest.raises(ValueError):
            loop_winding(ws[0], 0.25 * np.pi, 128, chain(4, kappa=0.0))

    @pytest.mark.parametrize("theta_r", [1e-300, 1e-17])
    def test_radius_lost_against_the_node_is_refused(self, theta_r):
        # pi/2 + theta_r == pi/2: every sample of r would be one value,
        # which read winding 0 with no error before this guard.
        w = weyl_points(ModelParams())[0]
        with pytest.raises(ValueError, match="vanishes against the node's angles"):
            loop_winding(w, theta_r, 128, chain(4))

    def test_sample_bound_is_checked_before_allocating(self):
        # One sample past MAX_GRID_POINTS; no loop array is built.
        w = weyl_points(ModelParams())[0]
        samples = spectroscopy.MAX_GRID_POINTS + 1
        with mock.patch.object(np, "arange", side_effect=AssertionError("allocated")):
            with pytest.raises(ValueError, match=f"need 64 to {samples - 1} samples"):
                loop_reflection(w, 0.25 * np.pi, samples, chain(4))


SCALE_GRID = np.arange(-25, 26) * 0.02 * np.pi


@pytest.fixture(scope="module")
def unit_scale_arc():
    det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, chain(4))
    assert not det.flagged and not np.isnan(det.theta1c)
    return det


class TestDetectArcEndpoint:
    @pytest.mark.parametrize(
        "sites,reported", [(4, 0.20), (8, 0.35), (12, 0.40)]
    )
    def test_endpoints_match_reported(self, sites, reported):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        det = detect_arc_endpoint(np.pi / 2, grid, chain(sites))
        assert not det.flagged
        got = det.theta1c / np.pi
        assert abs(got - reported) <= 0.02 + 1e-9

    def test_agrees_with_oracle(self):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        for sites in (4, 12):
            det = detect_arc_endpoint(np.pi / 2, grid, chain(sites))
            assert det.disagreements == 0
            assert det.theta1c == pytest.approx(det.oracle_theta1c)

    @pytest.mark.parametrize("j", [1e-300, 0.1, 0.5, 2.0, 10.0, 100.0, 1e200])
    def test_endpoints_invariant_under_energy_scale(self, unit_scale_arc, j):
        # Every energy in units of J: the detector must read the same
        # arc on the scaled model as at J = 1, at both ends of the float
        # range too, where the pair fit's squared energies would leave it.
        scaled = chain(4, J=j, Je=j, kappa=0.1 * j, Delta0=-0.1 * j)
        det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, scaled)
        assert not det.flagged
        ref = unit_scale_arc
        assert det.theta1c == ref.theta1c

    def test_requires_damping(self):
        with pytest.raises(ValueError):
            detect_arc_endpoint(np.pi / 2, [0.0], chain(4, kappa=0.0))

    def test_theta2_per_grid_point(self):
        # chain_bands broadcasts the angles, so theta2 may come per point.
        grid = np.arange(-10, 11) * 0.025 * np.pi
        det = detect_arc_endpoint(np.full(grid.size, np.pi / 2), grid, chain(4))
        assert det == detect_arc_endpoint(np.pi / 2, grid, chain(4))

    def test_oracle_pairs_each_theta1_with_its_theta2(self):
        # theta2 = pi/2 near theta1 = 0 and 0 elsewhere: the short arc of
        # the pi/2 points, which the oracle must read at their own theta2.
        grid = symmetric_grid(0.5 * np.pi, 0.01 * np.pi)
        theta2 = np.where(np.abs(grid) < 0.1, np.pi / 2, 0.0)
        det = detect_arc_endpoint(theta2, grid, chain(4))
        assert det.theta1c == det.oracle_theta1c == pytest.approx(0.03 * np.pi)
        assert not det.flagged and det.disagreements == 0
        # An unsorted grid keeps each theta1 with its theta2.
        order = np.random.default_rng(0).permutation(grid.size)
        assert detect_arc_endpoint(theta2[order], grid[order], chain(4)) == det

    def test_solves_and_fits_each_distinct_chain_once(self, monkeypatch):
        # The default Table-1 grid is exactly symmetric: its 101 chains
        # are 51 distinct ones, and only those reach the resolvent and
        # the pair fit.
        solved, fitted = [], []
        resolve, fit = spectroscopy.corner_resolvent, spectroscopy._fit_zero_pairs

        def counted_resolvent(d, e, z):
            # Hopping rows (chains, shifts, n - 1) of the systems.
            shape = np.broadcast_shapes(e.shape[:-1], np.shape(z))
            solved.append(np.broadcast_to(e, shape + e.shape[-1:]))
            return resolve(d, e, z)

        def counted_fit(d, g, p):
            fitted.append(g.shape)
            return fit(d, g, p)

        monkeypatch.setattr(spectroscopy, "corner_resolvent", counted_resolvent)
        monkeypatch.setattr(spectroscopy, "_fit_zero_pairs", counted_fit)
        grid = symmetric_grid(0.5 * np.pi, 0.01 * np.pi)
        p = chain(12)
        det = detect_arc_endpoint(np.pi / 2, grid, p)
        assert grid.size == 101 and not det.flagged
        chains = np.concatenate([e[:, 0] for e in solved])
        systems = sum(e.shape[0] * e.shape[1] for e in solved)
        assert len(chains) == len(_distinct_rows(chains)[0]) == 51
        assert systems == 51 * 25
        assert fitted == [(51, 25)]

    @pytest.mark.parametrize("kappa,je", [(0.05, 0.5), (0.1, 1.0), (0.3, 2.0)])
    @pytest.mark.parametrize("sites", [4, 10, 24])
    def test_verdicts_match_the_lu_path(self, kappa, je, sites):
        # The continued fraction's traces give every chain of the default
        # grid the verdict of the dense LU's reflection, g = (r - 1)/(i kappa).
        p = chain(sites, Je=je, kappa=kappa)
        grid = symmetric_grid(0.5 * np.pi, 0.01 * np.pi)
        dfit = detuning_grid(FIT_WINDOW, DELTA0_STEP, p)
        r = reflections(grid, np.pi / 2, dfit, p)
        d, e = chain_bands(*np.broadcast_arrays(grid, np.pi / 2), p)
        g = numerics.corner_resolvent(d[:, None], e[:, None], dfit - 0.5j * kappa)
        assert np.abs(1.0 + 1j * kappa * g - r).max() <= 1e-14
        verdicts = []
        for trace in (g, (r - 1.0) / (1j * kappa)):
            e_hat, weight = _fit_zero_pairs(dfit, trace, p)
            verdicts.append((e_hat < ZTOL_DEFAULT * p.J) & (weight > EDGE_WEIGHT_MIN))
        assert np.array_equal(*verdicts)


def _reference_residual(e, d, g, kappa):
    """lstsq residual norm and pair weight of the model at pair energy e:
    poles at 1/(w +- e), w = d - i kappa/2, and at e = 0 their
    double-pole limit 2/w, 1/w^2."""
    w = d - 0.5j * kappa
    poles = [1.0 / (w + e), 1.0 / (w - e)] if e else [2.0 / w, 1.0 / (w * w)]
    cols = np.column_stack([*poles, np.ones_like(d), d, d * d])
    coef, *_ = np.linalg.lstsq(cols, g, rcond=None)
    weight = coef[0] + coef[1] if e else 2.0 * coef[0]
    return float(np.linalg.norm(cols @ coef - g)), float(weight.real)


def _reference_pair_fit(d, g, p):
    """The per-trace reference for _fit_zero_pairs: one lstsq per coarse
    candidate, then bounded Brent minimisation in the bracket of the best
    candidate's neighbours.  Returns (energy, pair weight)."""
    coarse = np.linspace(0.0, FIT_WINDOW * p.J, 61)
    i0 = int(np.argmin([_reference_residual(e, d, g, p.kappa)[0] for e in coarse]))
    res = minimize_scalar(
        lambda e: _reference_residual(e, d, g, p.kappa)[0],
        bounds=(coarse[max(i0 - 1, 0)], coarse[min(i0 + 1, 60)]),
        method="bounded",
        options={"xatol": 1e-9},
    )
    return float(res.x), _reference_residual(float(res.x), d, g, p.kappa)[1]


def _verdicts(e, w, p):
    """detect_arc_endpoint's inside-the-arc rule on fitted energies and weights."""
    return (e < ZTOL_DEFAULT * p.J) & (w > EDGE_WEIGHT_MIN)


# theta1 >= 0 half of the Table-1 grid: spectra are even in theta1, so
# it holds every distinct arc-boundary point.
HALF_TABLE1_GRID = np.arange(0, 51) * 0.01 * np.pi


@pytest.fixture(scope="module", params=[4, 6, 8, 10, 12, 20, 36])
def fit_window_traces(request):
    """(p, fit-window detunings, r solved on them, r solved on the full
    detuning grid and cut to them) on HALF_TABLE1_GRID."""
    p = chain(request.param)
    full = detuning_grid(1.0, DELTA0_STEP, p)
    sel = np.abs(full) <= FIT_WINDOW * p.J + 1e-12 * p.J
    r_fit, r_full = (
        reflections(HALF_TABLE1_GRID, np.pi / 2, grid, p)
        for grid in (full[sel], full)
    )
    return p, full[sel], r_fit, r_full[:, sel]


class TestBatchedPairFit:
    def test_fit_window_solve_is_bitwise(self, fit_window_traces):
        p, d, r_fit, r_full = fit_window_traces
        assert d.size == 25
        assert np.array_equal(d, detuning_grid(FIT_WINDOW, DELTA0_STEP, p))
        assert np.array_equal(r_fit, r_full)

    def test_matches_per_trace_reference(self, fit_window_traces):
        p, d, r, _ = fit_window_traces
        g = (r - 1.0) / (1j * p.kappa)
        e_hat, weight = _fit_zero_pairs(d, g, p)
        e_ref, w_ref = np.array([_reference_pair_fit(d, gi, p) for gi in g]).T
        assert np.array_equal(_verdicts(e_hat, weight, p), _verdicts(e_ref, w_ref, p))
        assert np.abs(e_hat - e_ref).max() <= 1e-7 * p.J
        assert np.abs(weight - w_ref).max() <= 1e-6

    @pytest.mark.parametrize("sites", [4, 12, 36])
    def test_distinct_traces_fit_as_all(self, sites):
        # Fitting the 51 distinct traces of the Table-1 grid and
        # scattering the results back gives the bytes of fitting all 101.
        p = chain(sites)
        grid = symmetric_grid(0.5 * np.pi, 0.01 * np.pi)
        d = detuning_grid(FIT_WINDOW, DELTA0_STEP, p)
        g = (reflections(grid, np.pi / 2, d, p) - 1.0) / (1j * p.kappa)
        _, offs = chain_bands(grid, np.pi / 2, p)
        _, inverse = _distinct_rows(offs)
        first = np.unique(inverse, return_index=True)[1]
        assert first.size == 51
        for every, distinct in zip(_fit_zero_pairs(d, g, p), _fit_zero_pairs(d, g[first], p)):
            assert every.tobytes() == distinct[inverse].tobytes()

    def test_misfit_equals_lstsq_residual(self, rng):
        # Misfit and pair weight on a grid of pair energies, including
        # e = 0, where the pole columns are the double-pole limit 2/w and
        # 1/w^2 of the pair's plane.
        p = chain(12)
        d = np.arange(-12, 13) * DELTA0_STEP
        g = rng.normal(size=(3, d.size)) + 1j * rng.normal(size=(3, d.size))
        energies = np.linspace(0.0, FIT_WINDOW, 61)
        misfit, weight, _ = _pair_fit(energies**2, d, g[:, None, :], p.kappa)
        ref_misfit, ref_weight = np.array(
            [[_reference_residual(e, d, gi, p.kappa) for e in energies] for gi in g]
        ).transpose(2, 0, 1)
        assert misfit.shape == weight.shape == (3, 61)
        assert misfit == pytest.approx(ref_misfit, rel=1e-9, abs=1e-12)
        assert weight == pytest.approx(ref_weight, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("energy", [0.0, 0.003, 0.04, FIT_WINDOW])
    def test_recovers_an_exact_pair(self, rng, energy):
        # A trace that is the model itself, two poles at +-e with complex
        # weights on a quadratic background, gives back e and w+ + w-.
        p = chain(12)
        d = detuning_grid(FIT_WINDOW, DELTA0_STEP, p)
        w = d - 0.5j * p.kappa
        a, b, *bg = rng.normal(size=5) + 1j * rng.normal(size=5)
        if energy:
            g = a / (w + energy) + b / (w - energy)
        else:
            g = a * 2.0 / w + b / (w * w)
        g = g + bg[0] + bg[1] * d + bg[2] * d * d
        e_hat, weight = _fit_zero_pairs(d, g[None], p)
        assert e_hat[0] == pytest.approx(energy, abs=1e-9)
        assert weight[0] == pytest.approx(2.0 * a.real if not energy else (a + b).real)

    @given(st.floats(0.05, 0.3), st.integers(2, 20))
    @settings(max_examples=12)
    def test_detection_verdicts_match_the_reference(self, kappa, cells):
        # Every per-trace verdict of a Table-1 detection, on the distinct
        # chains of its grid, is the Brent reference's.
        p = chain(2 * cells, kappa=kappa)
        fit, fits = spectroscopy._fit_zero_pairs, []

        def recorded(d, g, p):
            fits.append((d, g, *fit(d, g, p)))
            return fits[-1][2:]

        with mock.patch.object(spectroscopy, "_fit_zero_pairs", recorded):
            detect_arc_endpoint(np.pi / 2, symmetric_grid(0.5 * np.pi, 0.01 * np.pi), p)
        ((d, g, e_hat, weight),) = fits
        e_ref, w_ref = np.array([_reference_pair_fit(d, gi, p) for gi in g]).T
        assert g.shape == (51, 25)
        assert np.array_equal(_verdicts(e_hat, weight, p), _verdicts(e_ref, w_ref, p))

    def test_detection_runs_no_svd(self):
        # The start, the Gauss-Newton steps and the port weights all come
        # from QR projections.
        grid = np.arange(-25, 26) * 0.02 * np.pi
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            det = detect_arc_endpoint(np.pi / 2, grid, p=chain(12))
        assert not np.isnan(det.theta1c) and not det.flagged
        assert svd.call_count == 0
