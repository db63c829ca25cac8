from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from weyllab.model import ModelParams, chain_bands, weyl_points
from weyllab import spectroscopy
from weyllab.numerics import SingularMatrixError, UndersampledLoopError, solve_shifted
from weyllab.openchain import (
    EDGE_WEIGHT_MIN,
    ZTOL_DEFAULT,
    diagonalize_chain,
    edge_spectrum,
)
from weyllab.spectroscopy import (
    DELTA0_STEP,
    FIT_WINDOW,
    ReflectionTrace,
    _fit_zero_pairs,
    _pair_fit,
    detect_arc_endpoint,
    detuning_grid,
    left_drive,
    reflection,
    reflection_spectrum,
    reflections,
    steady_state,
    symmetric_grid,
    transient_oracle,
    winding_measurement,
)


def chain(sites: int, **kw) -> ModelParams:
    return ModelParams(N=sites // 2, **kw)


DGRID = np.arange(-100, 101) * 0.01


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
        ss = steady_state(0.0, np.pi / 2, left_drive(p, omega), p)
        assert ss.amplitudes[0] == pytest.approx(-2j * omega / p.kappa)
        assert ss.amplitudes[1] == pytest.approx(0.0)

    def test_zero_drive(self, params):
        ss = steady_state(0.3, 0.8, np.zeros(params.sites, dtype=complex), params)
        assert np.all(ss.amplitudes == 0)

    @given(st.floats(-2, 2), st.floats(-2, 2), st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_linearity(self, x, y, seed):
        p = chain(8)
        rng = np.random.default_rng(seed)
        drive = rng.normal(size=p.sites) + 1j * rng.normal(size=p.sites)
        scale = x + 1j * y
        a1 = steady_state(0.4, 1.0, drive, p).amplitudes
        a2 = steady_state(0.4, 1.0, scale * drive, p).amplitudes
        assert np.allclose(a2, scale * a1, atol=1e-12)

    def test_residual_bound(self, params):
        ss = steady_state(0.2, 0.5, left_drive(params), params)
        assert ss.residual <= 1e-10 * max(1.0, np.linalg.norm(ss.amplitudes))

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
            ss = steady_state(0.2, 0.9, drive, p).amplitudes
            a = transient_oracle(0.2, 0.9, drive, p, t_end=40.0 / kappa)
            assert np.linalg.norm(a - ss) <= 1e-6 * np.linalg.norm(ss)

    def test_relaxation_rate_is_half_kappa(self):
        # The deviation from the steady state is exactly a decaying
        # rotation: ||a(t) - a_ss|| = exp(-kappa t / 2) ||a_ss||.
        p = chain(4, kappa=0.1)
        drive = left_drive(p)
        ss = steady_state(0.3, 0.7, drive, p).amplitudes
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
            r = reflection(0.0, np.pi / 2, p)
            assert abs(abs(r) - 1.0) <= 1e-12
            assert r == pytest.approx((d0 + 0.05j) / (d0 - 0.05j))

    def test_kappa_zero_off_resonance(self):
        p = chain(4, kappa=0.0, Delta0=-0.37)
        assert reflection(0.3, 0.7, p) == 1.0

    def test_large_detuning_limit(self):
        p = chain(8, Delta0=1e6)
        assert reflection(0.4, 0.9, p) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize(
        "solve",
        [
            lambda p: reflection(np.pi / 2, np.pi / 2, p),
            lambda p: reflection_spectrum(np.pi / 2, np.pi / 2, [0.5, 1.0, 1.5], p),
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
        r = reflection(0.5, 1.2, p)
        for omega in (1.0, 3.7 - 1.1j):
            ss = steady_state(0.5, 1.2, left_drive(p, omega), p)
            r_from_drive = 1.0 - 1j * p.kappa * ss.amplitudes[0] / omega
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
        budget=st.sampled_from([1, 3000, spectroscopy.BLOCK_ENTRIES]),
    )
    @settings(max_examples=60)
    def test_stack_equals_per_chain_solves(
        self, cells, angles, detunings, je, kappa, budget
    ):
        # Budgets of one system and of a few chains split the stack over
        # chains and over detunings.
        p = ModelParams(N=cells, Je=je, kappa=kappa)
        t1s, t2s = np.array(angles).T
        with mock.patch.object(spectroscopy, "BLOCK_ENTRIES", budget):
            r = reflections(t1s, t2s, detunings, p)
        assert r.shape == (len(angles), len(detunings))
        z = np.array(detunings) - 0.5j * kappa
        for row, t1, t2 in zip(r, t1s, t2s):
            t = banded_chain(t1, t2, p)
            g11 = solve_shifted(t, z, left_drive(p))[:, 0]
            assert np.array_equal(row, 1.0 + 1j * kappa * g11)
            assert np.abs(row).max() <= 1.0 + 1e-12  # the port is passive
            dense = _dense_chain(t1, t2, p) + z[:, None, None] * np.eye(p.sites)
            g = np.linalg.solve(dense, np.eye(p.sites)[0])[:, 0]
            assert np.abs(row - (1.0 + 1j * kappa * g)).max() <= 1e-12

    def test_angles_broadcast(self):
        p = chain(6)
        grid = np.linspace(-1.0, 1.0, 5)
        r = reflections(grid, 0.7, [-0.1, 0.2], p)
        assert np.array_equal(r, reflections(grid, np.full(5, 0.7), [-0.1, 0.2], p))
        trace = reflection_spectrum(grid[3], 0.7, [-0.1, 0.2], p)
        assert np.array_equal(r[3], trace.r_values)

    def test_damped_stack_needs_no_eigenvalues(self):
        # kappa > 0 bounds every condition number; undamped systems get
        # the exact one, from eigenvalues.
        grid = np.linspace(-1.0, 1.0, 9)
        with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as eig:
            reflections(grid, 0.3, DGRID, chain(12))
            assert eig.call_count == 0
            reflections(grid, 0.3, [0.05], chain(12, kappa=0.0))
            assert eig.call_count > 0

    def test_singular_message_reports_the_exact_cond(self):
        # Undamped on resonance, Im z = 0 leaves no bound.
        p = ModelParams(N=1, kappa=0.0, Delta0=1.0)
        with pytest.raises(SingularMatrixError, match=r"\(cond \d"):
            steady_state(np.pi / 2, np.pi / 2, left_drive(p), p)

    @pytest.mark.parametrize("budget", [1, spectroscopy.BLOCK_ENTRIES])
    def test_one_singular_chain_fails_the_stack(self, budget):
        # Undamped at zero detuning, the theta1 = 0 chain at theta2 = pi/2
        # has a decoupled end site at zero energy; the gapped theta2 = 0
        # chains do not.
        p = chain(8, kappa=0.0)
        with mock.patch.object(spectroscopy, "BLOCK_ENTRIES", budget):
            assert np.isfinite(reflections([0.3, 0.5], [0.0, 0.0], [0.0], p)).all()
            with pytest.raises(SingularMatrixError):
                reflections([0.3, 0.0, 0.5], [0.0, np.pi / 2, 0.0], [0.0], p)


class TestReflectionSpectrum:
    def test_matches_pointwise_reflection(self):
        p = chain(8)
        grid = np.linspace(-1, 1, 11)
        trace = reflection_spectrum(0.2, 0.8, grid, p)
        for d0, r in zip(trace.parameter_samples, trace.r_values):
            q = chain(8, Delta0=float(d0))
            assert r == pytest.approx(reflection(0.2, 0.8, q), abs=1e-12)

    def test_flat_at_decoupled_point(self):
        # theta1 = 0 decouples the driven resonator, which then reflects
        # everything at every detuning: |r| = 1 identically.
        trace = reflection_spectrum(0.0, np.pi / 2, DGRID, chain(4))
        assert np.abs(np.abs(trace.r_values) - 1.0).max() <= 1e-12

    def test_zero_energy_dip_inside_arc(self):
        # Inside the arc the near-zero edge mode leaves a reflection
        # feature exactly at zero detuning.
        trace = reflection_spectrum(0.1 * np.pi, np.pi / 2, DGRID, chain(4))
        R = np.abs(trace.r_values) ** 2
        i0 = np.argmin(np.abs(trace.parameter_samples))
        assert np.argmin(R) == i0
        assert R[i0] < R[i0 - 1] < 1.0
        assert R[i0] < R[i0 + 1] < 1.0

    def test_split_features_outside_arc(self):
        trace = reflection_spectrum(0.4 * np.pi, np.pi / 2, DGRID, chain(4))
        R = np.abs(trace.r_values) ** 2
        d = trace.parameter_samples
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
        ra = np.abs(reflection_spectrum(theta1, np.pi / 2, grid, p).r_values) ** 2
        rb = np.abs(reflection_spectrum(-theta1, np.pi / 2, grid, p).r_values) ** 2
        assert ra == pytest.approx(rb, abs=1e-12)

    def test_center_depth_grows_toward_arc_edge(self):
        # R(0) = 1 at the perfectly reflecting center, then decreases as
        # the edge mode hybridizes (deeper dips approaching the arc end).
        values = []
        for theta1 in (0.0, 0.1 * np.pi, 0.15 * np.pi):
            trace = reflection_spectrum(theta1, np.pi / 2, DGRID, chain(4))
            i0 = np.argmin(np.abs(trace.parameter_samples))
            values.append(abs(trace.r_values[i0]) ** 2)
        assert values[0] > values[1] > values[2]

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            ReflectionTrace(np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("half_width", [-1.0, -5e-324, -np.inf, np.inf, np.nan])
    def test_grid_rejects_bad_half_width(self, half_width):
        with pytest.raises(ValueError, match="half-width"):
            symmetric_grid(half_width, 0.1)
        with pytest.raises(ValueError, match="half-width"):
            detuning_grid(half_width, 0.01, chain(4))

    def test_grid_of_zero_half_width(self):
        assert symmetric_grid(0.0, 0.1).tolist() == [0.0]
        assert symmetric_grid(0.04, 0.1).tolist() == [0.0]


class TestWindingMeasurement:
    def test_opposite_charges_resolved(self):
        ws = weyl_points(ModelParams())
        p = chain(4, Delta0=-0.1, kappa=0.1)
        w1 = winding_measurement(ws[0], 0.25 * np.pi, 128, p)
        w4 = winding_measurement(ws[3], 0.25 * np.pi, 128, p)
        assert abs(w1) == 1 and abs(w4) == 1
        assert w1 == -w4
        assert w1 == ws[0].chirality
        assert w4 == ws[3].chirality

    @pytest.mark.parametrize("sites", [4, 12])
    @pytest.mark.parametrize("kappa", [0.1, 0.7, 1.5])
    def test_size_and_damping_invariance(self, sites, kappa):
        ws = weyl_points(ModelParams())
        p = chain(sites, Delta0=-0.1, kappa=kappa)
        assert winding_measurement(ws[0], 0.25 * np.pi, 128, p) == -1

    def test_loop_shape_invariance(self):
        ws = weyl_points(ModelParams())
        p = chain(4)
        ref = winding_measurement(ws[1], 0.25 * np.pi, 128, p)
        assert winding_measurement(ws[1], 0.2 * np.pi, 128, p) == ref
        assert winding_measurement(ws[1], 0.3 * np.pi, 128, p) == ref
        assert winding_measurement(ws[1], 0.25 * np.pi, 64, p) == ref
        assert winding_measurement(ws[1], 0.25 * np.pi, 256, p) == ref
        assert winding_measurement(ws[1], 0.25 * np.pi, 128, p, offset=0.4) == ref

    def test_parameter_guards(self):
        ws = weyl_points(ModelParams())
        with pytest.raises(ValueError):
            winding_measurement(ws[0], 0.25 * np.pi, 32, chain(4))
        with pytest.raises(ValueError):
            winding_measurement(ws[0], 1.6, 128, chain(4))
        with pytest.raises(ValueError):
            winding_measurement(ws[0], 0.25 * np.pi, 128, chain(4, kappa=0.0))


SCALE_GRID = np.arange(-25, 26) * 0.02 * np.pi


@pytest.fixture(scope="module")
def unit_scale_arc():
    det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, chain(4))
    assert not det.flagged and not det.empty
    return det


class TestDetectArcEndpoint:
    @pytest.mark.parametrize(
        "sites,reported", [(4, 0.20), (8, 0.35), (12, 0.40)]
    )
    def test_endpoints_match_reported(self, sites, reported):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        det = detect_arc_endpoint(np.pi / 2, grid, chain(sites))
        assert not det.flagged
        got = det.theta1c_plus / np.pi
        assert abs(got - reported) <= 0.02 + 1e-9

    def test_agrees_with_oracle(self):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        for sites in (4, 12):
            det = detect_arc_endpoint(np.pi / 2, grid, chain(sites))
            assert det.disagreement_count == 0
            assert det.theta1c_plus == pytest.approx(det.oracle.theta1c_plus)
            assert det.theta1c_minus == pytest.approx(det.oracle.theta1c_minus)

    @pytest.mark.parametrize("j", [0.1, 0.5, 2.0, 10.0, 100.0])
    def test_endpoints_invariant_under_energy_scale(self, unit_scale_arc, j):
        # Every energy in units of J: the detector must read the same
        # arc on the scaled model as at J = 1.
        scaled = chain(4, J=j, Je=j, kappa=0.1 * j, Delta0=-0.1 * j)
        det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, scaled)
        assert not det.flagged
        ref = unit_scale_arc
        assert (det.theta1c_minus, det.theta1c_plus) == (
            ref.theta1c_minus,
            ref.theta1c_plus,
        )

    def test_requires_damping(self):
        with pytest.raises(ValueError):
            detect_arc_endpoint(np.pi / 2, [0.0], chain(4, kappa=0.0))


def _reference_residual(e, d, g, kappa):
    cols = np.column_stack(
        [
            1.0 / (d + e - 0.5j * kappa),
            1.0 / (d - e - 0.5j * kappa),
            np.ones_like(d),
            d,
            d * d,
        ]
    )
    coef, *_ = np.linalg.lstsq(cols, g, rcond=None)
    return float(np.linalg.norm(cols @ coef - g)), coef


def _reference_pair_fit(d, g, p):
    """The per-trace fit that _fit_zero_pairs replaced: one lstsq per
    coarse candidate, then bounded Brent minimisation in the bracket of
    the best candidate's neighbours.  Returns (energy, pair weight)."""
    coarse = np.linspace(0.0, FIT_WINDOW * p.J, 61)
    i0 = int(np.argmin([_reference_residual(e, d, g, p.kappa)[0] for e in coarse]))
    res = minimize_scalar(
        lambda e: _reference_residual(e, d, g, p.kappa)[0],
        bounds=(coarse[max(i0 - 1, 0)], coarse[min(i0 + 1, 60)]),
        method="bounded",
        options={"xatol": 1e-9},
    )
    _, coef = _reference_residual(float(res.x), d, g, p.kappa)
    return float(res.x), float(coef[0].real + coef[1].real)


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
        np.array(
            [
                reflection_spectrum(t, np.pi / 2, grid, p).r_values
                for t in HALF_TABLE1_GRID
            ]
        )
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

        def verdicts(e, w):
            return (e < ZTOL_DEFAULT * p.J) & (w > EDGE_WEIGHT_MIN)

        assert np.array_equal(verdicts(e_hat, weight), verdicts(e_ref, w_ref))
        assert np.abs(e_hat - e_ref).max() <= 1e-7 * p.J
        assert np.abs(weight - w_ref).max() <= 1e-6

    def test_misfit_equals_lstsq_residual(self, rng):
        # Misfit and pair weight at every coarse candidate, including
        # e = 0, where the two pole columns coincide and lstsq's rank rule
        # drops one of them for the minimum-norm solution.
        p = chain(12)
        d = np.arange(-12, 13) * DELTA0_STEP
        g = rng.normal(size=(3, d.size)) + 1j * rng.normal(size=(3, d.size))
        coarse = np.linspace(0.0, FIT_WINDOW, 61)
        q = np.linalg.qr(np.stack([np.ones_like(d), d, d * d], axis=-1))[0]
        g_off = g - (g @ q) @ q.T
        misfit, weight = _pair_fit(coarse, d, q, g_off[:, None, :], p.kappa)
        ref = [[_reference_residual(e, d, gi, p.kappa) for e in coarse] for gi in g]
        ref_misfit = np.array([[r for r, _ in row] for row in ref])
        ref_weight = np.array([[(c[0] + c[1]).real for _, c in row] for row in ref])
        assert misfit.shape == weight.shape == (3, 61)
        assert misfit == pytest.approx(ref_misfit, rel=1e-9, abs=1e-12)
        assert weight == pytest.approx(ref_weight, rel=1e-9, abs=1e-12)

    def test_detection_runs_no_svd(self):
        # The scan, the refinement and the port weights all come from the
        # one Gram-Schmidt projection.
        grid = np.arange(-25, 26) * 0.02 * np.pi
        with mock.patch("numpy.linalg.svd", wraps=np.linalg.svd) as svd:
            det = detect_arc_endpoint(np.pi / 2, grid, p=chain(12))
        assert not det.empty and not det.flagged
        assert svd.call_count == 0
