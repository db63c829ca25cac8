"""Driven-dissipative measurement protocol.

Steady-state amplitudes of the externally driven lossy chain, the
left-port reflection coefficient, the phase-winding readout of a
node's monopole charge, reflection spectra versus drive detuning, and
the zero-energy-arc endpoint extraction from those spectra.

All response quantities derive from the linear steady state
a = -(Delta0 + T - i kappa/2)^{-1} Omega, so they are independent of
the drive amplitude; the left-port reflection is
r_L = 1 + i kappa [(Delta0 + T - i kappa/2)^{-1}]_{11}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .model import ModelParams, WeylPoint, open_chain_hamiltonian
from .numerics import solve_shifted, unwrap_winding
from .openchain import (
    ZTOL_DEFAULT,
    EDGE_WEIGHT_MIN,
    ArcInterval,
    arc_membership,
    max_symmetric_interval,
)

__all__ = [
    "SteadyState",
    "ReflectionTrace",
    "ArcDetection",
    "left_drive",
    "steady_state",
    "transient_oracle",
    "reflection",
    "reflection_spectrum",
    "detuning_grid",
    "loop_reflection",
    "winding_measurement",
    "detect_arc_endpoint",
]

# Drive-detuning scan step for arc detection, in units of J.
DELTA0_STEP = 0.01
# Samples with |Delta0| up to this many J feed the resonance fit.
FIT_WINDOW = 0.12


@dataclass(frozen=True)
class SteadyState:
    amplitudes: np.ndarray
    residual: float


@dataclass(frozen=True)
class ReflectionTrace:
    """Complex reflection sampled along a swept parameter (theta or Delta0)."""

    parameter_samples: np.ndarray
    r_values: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.parameter_samples, dtype=float)
        r = np.asarray(self.r_values, dtype=complex)
        if s.size != r.size:
            raise ValueError("samples and values must have equal length")
        if np.any(np.diff(s) <= 0):
            raise ValueError("parameter samples must be strictly increasing")
        object.__setattr__(self, "parameter_samples", s)
        object.__setattr__(self, "r_values", r)

    def magnitudes_squared(self) -> np.ndarray:
        return np.abs(self.r_values) ** 2


@dataclass(frozen=True)
class ArcDetection:
    """Spectroscopic arc endpoints with the diagonalization cross-check.

    flagged is True when the reflection-based classification disagrees
    with the oracle beyond single boundary-adjacent grid points.
    """

    theta1c_minus: float
    theta1c_plus: float
    empty: bool
    flagged: bool
    oracle: ArcInterval
    disagreement_count: int


def left_drive(p: ModelParams, amplitude: complex = 1.0) -> np.ndarray:
    """Drive vector (Omega, 0, ..., 0) on the leftmost resonator."""
    drive = np.zeros(p.sites, dtype=complex)
    drive[0] = amplitude
    return drive


def steady_state(
    theta1: float, theta2: float, drive: np.ndarray, p: ModelParams
) -> SteadyState:
    """Steady amplitudes a = -(Delta0 + T - i kappa/2)^{-1} Omega.

    kappa = 0 with Delta0 on an eigenvalue of T has no steady state and
    raises SingularMatrixError.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (p.sites,):
        raise ValueError(f"drive must have {p.sites} amplitudes")
    t = open_chain_hamiltonian(theta1, theta2, p).to_dense()
    z = p.Delta0 - 0.5j * p.kappa
    amps = solve_shifted(t, z, -drive)
    resid = float(np.linalg.norm(t @ amps + z * amps + drive))
    return SteadyState(amps, resid)


def transient_oracle(
    theta1: float,
    theta2: float,
    drive: np.ndarray,
    p: ModelParams,
    t_end: float,
    dt: float | None = None,
    a0: np.ndarray | None = None,
) -> np.ndarray:
    """Amplitudes at t_end from a(0) = a0 (default 0), by fixed-step
    4th-order Runge-Kutta on da/dt = -i (Delta0 + T - i kappa/2) a
    - i Omega.

    Independent validation path for steady_state: for kappa > 0 the
    transient decays at rate kappa/2, so a(t) converges to the linear
    solve exponentially.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (p.sites,):
        raise ValueError(f"drive must have {p.sites} amplitudes")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    dt_max = 0.05 / max(abs(p.Delta0) + 4.0 * p.J + p.Je, p.kappa)
    if dt is None:
        dt = dt_max
    elif dt <= 0 or dt > dt_max:
        raise ValueError(f"dt must lie in (0, {dt_max:.4g}] for RK4 stability")
    t = open_chain_hamiltonian(theta1, theta2, p).to_dense()
    m = t + (p.Delta0 - 0.5j * p.kappa) * np.eye(p.sites)
    if a0 is None:
        a = np.zeros(p.sites, dtype=complex)
    else:
        a = np.asarray(a0, dtype=complex).copy()
        if a.shape != (p.sites,):
            raise ValueError(f"a0 must have {p.sites} amplitudes")
    if t_end == 0:
        return a

    def f(y):
        return -1j * (m @ y + drive)

    nsteps = int(np.ceil(t_end / dt))
    h = t_end / nsteps
    for _ in range(nsteps):
        k1 = f(a)
        k2 = f(a + 0.5 * h * k1)
        k3 = f(a + 0.5 * h * k2)
        k4 = f(a + h * k3)
        a = a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a


def reflection(theta1: float, theta2: float, p: ModelParams) -> complex:
    """Left-port reflection r_L = 1 + i kappa [(Delta0+T-i kappa/2)^{-1}]_11.

    The one-point reflection_spectrum at p.Delta0, so it is manifestly
    drive-amplitude independent.  Singular solves (kappa = 0 exactly on
    resonance) propagate as SingularMatrixError.
    """
    return complex(reflection_spectrum(theta1, theta2, [p.Delta0], p).r_values[0])


def reflection_spectrum(
    theta1: float, theta2: float, delta0_grid, p: ModelParams
) -> ReflectionTrace:
    """r_L over a drive-detuning grid, from one stacked shifted solve.

    Each grid value replaces p.Delta0; consumers form R = |r|^2.
    """
    grid = np.sort(np.asarray(delta0_grid, dtype=float))
    t = open_chain_hamiltonian(theta1, theta2, p).to_dense()
    g11 = solve_shifted(t, grid - 0.5j * p.kappa, left_drive(p))[:, 0]
    return ReflectionTrace(grid, 1.0 + 1j * p.kappa * g11)


def detuning_grid(window: float, step: float, p: ModelParams) -> np.ndarray:
    """Symmetric drive-detuning grid over [-window, window] in steps of
    `step`, both in units of J."""
    if not step > 0:
        raise ValueError("detuning step must be positive")
    nstep = int(round(window / step))
    return np.arange(-nstep, nstep + 1) * step * p.J


def loop_reflection(
    w: WeylPoint,
    theta_r: float,
    samples: int,
    p: ModelParams,
    offset: float = 0.0,
) -> ReflectionTrace:
    """r_L around a circle enclosing the node's (theta1, theta2)
    projection, at fixed in-gap detuning p.Delta0.

    The loop is theta1 = theta1w + theta_r cos(theta), theta2 = theta2w
    + theta_r sin(theta) with theta uniform on offset + [0, 2pi); the
    trace is indexed by theta.
    """
    if p.kappa <= 0:
        raise ValueError("winding readout needs kappa > 0")
    if samples < 64:
        raise ValueError("need at least 64 samples around the loop")
    if not (0.0 < theta_r < np.pi / 2):
        raise ValueError("theta_r must lie in (0, pi/2)")
    theta = offset + 2.0 * np.pi * np.arange(samples) / samples
    r = [
        reflection(
            w.location.theta1 + theta_r * math.cos(th),
            w.location.theta2 + theta_r * math.sin(th),
            p,
        )
        for th in theta
    ]
    return ReflectionTrace(theta, r)


def winding_measurement(
    w: WeylPoint,
    theta_r: float,
    samples: int,
    p: ModelParams,
    offset: float = 0.0,
) -> int:
    """Integer winding of arg r_L in (-pi, pi] around loop_reflection's
    loop, closing step included.  Undersampled loops raise rather than guess.
    """
    trace = loop_reflection(w, theta_r, samples, p, offset)
    return unwrap_winding(np.angle(trace.r_values)).winding


def _pair_fit_residual(e: float, d: np.ndarray, g: np.ndarray, kappa: float):
    """Least-squares misfit of a symmetric resonance pair at +/-e.

    Model: g(d) = w+/(d + e - i kappa/2) + w-/(d - e - i kappa/2)
    + quadratic background; linear in everything but e.
    """
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
    resid = float(np.linalg.norm(cols @ coef - g))
    return resid, coef


def _fit_zero_pair(trace: ReflectionTrace, p: ModelParams) -> tuple[float, float]:
    """Extract the near-zero mode energy and port weight from a trace.

    The complex trace determines the resolvent g = (r - 1)/(i kappa)
    exactly, and the mode energies are its pole positions, which a
    known-linewidth fit recovers far below the kappa/2 blurring of any
    local lineshape statistic.  Returns (energy, total pair weight).
    """
    e_max = FIT_WINDOW * p.J
    sel = np.abs(trace.parameter_samples) <= e_max + 1e-12 * p.J
    d = trace.parameter_samples[sel]
    g = (trace.r_values[sel] - 1.0) / (1j * p.kappa)
    coarse = np.linspace(0.0, e_max, 61)
    resids = [_pair_fit_residual(e, d, g, p.kappa)[0] for e in coarse]
    i0 = int(np.argmin(resids))
    lo = coarse[max(i0 - 1, 0)]
    hi = coarse[min(i0 + 1, coarse.size - 1)]
    if hi > lo:
        res = minimize_scalar(
            lambda e: _pair_fit_residual(e, d, g, p.kappa)[0],
            bounds=(lo, hi),
            method="bounded",
            options={"xatol": 1e-9},
        )
        e_hat = float(res.x)
    else:
        e_hat = float(coarse[i0])
    _, coef = _pair_fit_residual(e_hat, d, g, p.kappa)
    weight = float(coef[0].real + coef[1].real)
    return e_hat, weight


def detect_arc_endpoint(
    theta2: float,
    theta1_grid,
    delta0_window: float = 1.0,
    p: ModelParams = None,
) -> ArcDetection:
    """Arc endpoints from reflection spectra, cross-checked against the
    diagonalization oracle.

    For each theta1 the complex reflection trace over
    [-delta0_window, +delta0_window] (in units of J, at least FIT_WINDOW;
    step 0.01 J) is reduced to the near-zero resonance energy and port
    weight; the point is inside the arc when the energy is below 0.02 J and the weight exceeds the
    edge-label threshold.  Endpoints are the maximal symmetric interval
    of inside points.  Disagreement with the oracle beyond single
    boundary-adjacent grid points flags the result as inconsistent.
    """
    if p is None:
        raise ValueError("model parameters required")
    if p.kappa <= 0:
        raise ValueError("arc detection needs kappa > 0")
    if not delta0_window >= FIT_WINDOW:
        raise ValueError(f"delta0_window must be at least {FIT_WINDOW} J")
    grid = np.sort(np.asarray(theta1_grid, dtype=float))
    dgrid = detuning_grid(delta0_window, DELTA0_STEP, p)
    ztol = ZTOL_DEFAULT * p.J

    inside = np.zeros(grid.size, dtype=bool)
    # A single-cell chain has no distinct end cells, so nothing can be
    # edge-localized; the port-weight proxy only makes sense for N >= 2.
    if p.N >= 2:
        for i, t1 in enumerate(grid):
            trace = reflection_spectrum(float(t1), theta2, dgrid, p)
            e_hat, weight = _fit_zero_pair(trace, p)
            inside[i] = (e_hat < ztol) and (weight > EDGE_WEIGHT_MIN)

    measured = max_symmetric_interval(grid, inside)
    oracle_ok = arc_membership(theta2, grid, ZTOL_DEFAULT, p)
    oracle = max_symmetric_interval(grid, oracle_ok)

    mism = np.nonzero(inside != oracle_ok)[0]
    step = np.min(np.diff(grid)) if grid.size > 1 else 1.0
    bounds = [
        abs(iv.theta1c_plus)
        for iv in (measured, oracle)
        if not iv.empty and np.isfinite(iv.theta1c_plus)
    ]
    flagged = False
    per_side = {-1: 0, 1: 0}
    for i in mism:
        t = grid[i]
        near_boundary = any(abs(abs(t) - b) <= 1.5 * step for b in bounds)
        if not near_boundary:
            flagged = True
        side = 1 if t >= 0 else -1
        per_side[side] += 1
    if per_side[-1] > 1 or per_side[1] > 1:
        flagged = True
    return ArcDetection(
        measured.theta1c_minus,
        measured.theta1c_plus,
        measured.empty,
        flagged,
        oracle,
        int(mism.size),
    )
