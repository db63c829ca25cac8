import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize_scalar

from weyllab.model import ModelParams, open_chain_hamiltonian, weyl_points
from weyllab.numerics import SingularMatrixError, UndersampledLoopError
from weyllab.openchain import EDGE_WEIGHT_MIN, ZTOL_DEFAULT
from weyllab.spectroscopy import (
    DELTA0_STEP,
    FIT_WINDOW,
    ReflectionTrace,
    _fit_zero_pairs,
    _pair_bases,
    _pair_misfit,
    detect_arc_endpoint,
    detuning_grid,
    left_drive,
    reflection,
    reflection_spectrum,
    steady_state,
    symmetric_grid,
    transient_oracle,
    winding_measurement,
)


def chain(sites: int, **kw) -> ModelParams:
    return ModelParams(N=sites // 2, **kw)


DGRID = np.arange(-100, 101) * 0.01


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
        m = open_chain_hamiltonian(0.3, 0.8, p).to_dense() + (
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
        R = trace.magnitudes_squared()
        i0 = np.argmin(np.abs(trace.parameter_samples))
        assert np.argmin(R) == i0
        assert R[i0] < R[i0 - 1] < 1.0
        assert R[i0] < R[i0 + 1] < 1.0

    def test_split_features_outside_arc(self):
        trace = reflection_spectrum(0.4 * np.pi, np.pi / 2, DGRID, chain(4))
        R = trace.magnitudes_squared()
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
        ra = reflection_spectrum(theta1, np.pi / 2, grid, p).magnitudes_squared()
        rb = reflection_spectrum(-theta1, np.pi / 2, grid, p).magnitudes_squared()
        assert ra == pytest.approx(rb, abs=1e-12)

    def test_center_depth_grows_toward_arc_edge(self):
        # R(0) = 1 at the perfectly reflecting center, then decreases as
        # the edge mode hybridizes (deeper dips approaching the arc end).
        values = []
        for theta1 in (0.0, 0.1 * np.pi, 0.15 * np.pi):
            trace = reflection_spectrum(theta1, np.pi / 2, DGRID, chain(4))
            i0 = np.argmin(np.abs(trace.parameter_samples))
            values.append(trace.magnitudes_squared()[i0])
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
    det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, 1.0, chain(4))
    assert not det.flagged and not det.empty
    return det


class TestDetectArcEndpoint:
    @pytest.mark.parametrize(
        "sites,reported", [(4, 0.20), (8, 0.35), (12, 0.40)]
    )
    def test_endpoints_match_reported(self, sites, reported):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        det = detect_arc_endpoint(np.pi / 2, grid, 1.0, chain(sites))
        assert not det.flagged
        got = det.theta1c_plus / np.pi
        assert abs(got - reported) <= 0.02 + 1e-9

    def test_agrees_with_oracle(self):
        grid = np.arange(-50, 51) * 0.01 * np.pi
        for sites in (4, 12):
            det = detect_arc_endpoint(np.pi / 2, grid, 1.0, chain(sites))
            assert det.disagreement_count == 0
            assert det.theta1c_plus == pytest.approx(det.oracle.theta1c_plus)
            assert det.theta1c_minus == pytest.approx(det.oracle.theta1c_minus)

    @pytest.mark.parametrize("j", [0.1, 0.5, 2.0, 10.0, 100.0])
    def test_endpoints_invariant_under_energy_scale(self, unit_scale_arc, j):
        # Every energy in units of J: the detector must read the same
        # arc on the scaled model as at J = 1.
        scaled = chain(4, J=j, Je=j, kappa=0.1 * j, Delta0=-0.1 * j)
        det = detect_arc_endpoint(np.pi / 2, SCALE_GRID, 1.0, scaled)
        assert not det.flagged
        ref = unit_scale_arc
        assert (det.theta1c_minus, det.theta1c_plus) == (
            ref.theta1c_minus,
            ref.theta1c_plus,
        )

    def test_requires_damping(self):
        with pytest.raises(ValueError):
            detect_arc_endpoint(np.pi / 2, [0.0], 1.0, chain(4, kappa=0.0))


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
        _, d, r_fit, r_full = fit_window_traces
        assert d.size == 25
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

    def test_misfit_equals_lstsq_residual(self, rng):
        # Every coarse candidate, including e = 0, where the two pole
        # columns coincide and lstsq's rank rule drops one of them.
        p = chain(12)
        d = np.arange(-12, 13) * DELTA0_STEP
        g = rng.normal(size=(3, d.size)) + 1j * rng.normal(size=(3, d.size))
        coarse = np.linspace(0.0, FIT_WINDOW, 61)
        u, inv_s, _ = _pair_bases(coarse, d, p.kappa)
        assert np.count_nonzero(inv_s[0]) == 4
        assert np.count_nonzero(inv_s[1:], axis=-1).min() == 5
        got = _pair_misfit(u, g[:, None, :])
        ref = [[_reference_residual(e, d, gi, p.kappa)[0] for e in coarse] for gi in g]
        assert got == pytest.approx(np.array(ref), rel=1e-9)

    def test_detection_independent_of_window(self):
        grid = np.arange(-25, 26) * 0.02 * np.pi
        dets = [
            detect_arc_endpoint(np.pi / 2, grid, window, chain(12))
            for window in (FIT_WINDOW, 1.0, 3.0)
        ]
        assert not dets[0].empty
        assert dets[0] == dets[1] == dets[2]
