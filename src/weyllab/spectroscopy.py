"""Driven-dissipative measurement protocol.

Steady-state amplitudes of the externally driven lossy chain, the
left-port reflection coefficient, the phase-winding readout of a
node's monopole charge, reflection spectra versus drive detuning, and
the zero-energy-arc endpoint extraction from those spectra.

All response quantities derive from the linear steady state
a = -(Delta0 + T - i kappa/2)^{-1} Omega, so they are independent of
the drive amplitude; the left-port reflection is
r_L = 1 + i kappa [(Delta0 + T - i kappa/2)^{-1}]_{11}.

Arc detection solves each theta1 point only on the fit window
|Delta0| <= FIT_WINDOW J and fits all traces at once: the resonance-pair
model is linear except in the pair energy e, so its linear weights are
projected out (variable projection), the coarse scan over e projects
every trace on one SVD-factored stack of candidate models, and a
golden-section search refines all traces in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    "symmetric_grid",
    "detuning_grid",
    "loop_reflection",
    "winding_measurement",
    "detect_arc_endpoint",
]

# Drive-detuning scan step for arc detection, in units of J.
DELTA0_STEP = 0.01
# Most points of a symmetric detuning or theta1 grid.
MAX_GRID_POINTS = 10_001
# Samples with |Delta0| up to this many J feed the resonance fit.
FIT_WINDOW = 0.12
# Pair energies of the fit's coarse scan over [0, FIT_WINDOW J].
COARSE_CANDIDATES = 61
# Width, in units of J, at which the fit's refinement bracket stops.
REFINE_TOL = 1e-9
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# Golden-section steps that shrink a two-candidate bracket below REFINE_TOL.
_REFINE_STEPS = math.ceil(
    math.log(REFINE_TOL * (COARSE_CANDIDATES - 1) / (2.0 * FIT_WINDOW))
    / math.log(_INVPHI)
)


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

    nsteps = int(np.ceil(t_end / dt))
    h = t_end / nsteps

    def rk4_step(y, g):
        """One RK4 step of dy/dt = -i (m y + g) from y."""
        k1 = -1j * (m @ y + g)
        k2 = -1j * (m @ (y + 0.5 * h * k1) + g)
        k3 = -1j * (m @ (y + 0.5 * h * k2) + g)
        k4 = -1j * (m @ (y + h * k3) + g)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    # The equation is linear and autonomous, so every step is the same
    # affine map a <- P a + c, P = I + hA + ... + (hA)^4/24: P is the
    # undriven step of each unit vector, c the driven step from a = 0.
    step = rk4_step(np.eye(p.sites, dtype=complex), 0.0)
    offset = rk4_step(np.zeros(p.sites, dtype=complex), drive)
    for _ in range(nsteps):
        a = step @ a + offset
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


def symmetric_grid(half_width: float, step: float) -> np.ndarray:
    """Grid k * step for |k| <= round(half_width / step).

    Raises ValueError, before allocating anything, for a non-positive
    step, a negative or non-finite half_width, or a grid of more than
    MAX_GRID_POINTS points.
    """
    if not step > 0:
        raise ValueError("grid step must be positive")
    if not 0 <= half_width < math.inf:
        raise ValueError(f"grid half-width must be finite and >= 0, got {half_width}")
    half = half_width / step  # inf for a denormal step
    if not half <= (MAX_GRID_POINTS - 1) / 2:
        raise ValueError(
            f"grid of {2 * half + 1:.3g} points exceeds {MAX_GRID_POINTS}; "
            "use a coarser step"
        )
    nstep = int(round(half))
    return np.arange(-nstep, nstep + 1) * step


def detuning_grid(window: float, step: float, p: ModelParams) -> np.ndarray:
    """Symmetric drive-detuning grid over [-window, window] in steps of
    `step`, both in units of J."""
    return symmetric_grid(window, step) * p.J


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


def _pair_bases(e: np.ndarray, d: np.ndarray, kappa: float):
    """Range bases of the resonance-pair model at stacked pair energies e.

    Model: g(d) = w+/(d + e - i kappa/2) + w-/(d - e - i kappa/2)
    + quadratic background; linear in everything but e.  Returns the
    SVD (u, 1/s, vh) of the (..., m, 5) model matrices under lstsq's rank
    rule: singular values at or below eps max(m, 5) s_max are dropped
    (zeroed in u and 1/s), as at e = 0, where the two pole columns
    coincide.
    """
    e = np.asarray(e, dtype=float)[..., None]
    cols = np.empty(e.shape[:-1] + (d.size, 5), dtype=complex)
    cols[..., 0] = 1.0 / (d + e - 0.5j * kappa)
    cols[..., 1] = 1.0 / (d - e - 0.5j * kappa)
    cols[..., 2] = 1.0
    cols[..., 3] = d
    cols[..., 4] = d * d
    u, s, vh = np.linalg.svd(cols, full_matrices=False)
    keep = s > np.finfo(float).eps * max(d.size, 5) * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return u * keep[..., None, :], inv_s, vh


def _pair_misfit(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """||g - u u^H g|| for stacked bases u (..., m, r) and traces g (..., m)."""
    g = g[..., None]
    fit = u @ (u.conj().swapaxes(-1, -2) @ g)
    return np.linalg.norm((g - fit)[..., 0], axis=-1)


def _fit_zero_pairs(
    d: np.ndarray, g: np.ndarray, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Near-zero mode energies and port weights of P resolvent traces.

    g (P, m) holds g = (r - 1)/(i kappa) on the detunings d (m,), which
    the complex reflection determines exactly.  The mode energies are
    its pole positions, which a known-linewidth fit recovers far below
    the kappa/2 blurring of any local lineshape statistic.  The fit is a
    variable projection (Golub & Pereyra 1973): the linear weights are
    projected out, leaving a misfit in e alone.  Every trace is scanned
    against one factored stack of COARSE_CANDIDATES energies in
    [0, FIT_WINDOW J], then refined in lockstep by golden-section search
    inside the bracket of the best candidate's neighbours, to a width of
    REFINE_TOL J.  Returns (energies, total pair weights), each (P,).
    """
    coarse = np.linspace(0.0, FIT_WINDOW * p.J, COARSE_CANDIDATES)
    u = _pair_bases(coarse, d, p.kappa)[0]
    i0 = np.argmin(_pair_misfit(u, g[:, None, :]), axis=1)
    lo = coarse[np.maximum(i0 - 1, 0)]
    hi = coarse[np.minimum(i0 + 1, coarse.size - 1)]

    def misfit(e):
        return _pair_misfit(_pair_bases(e, d, p.kappa)[0], g)

    a, b = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fa, fb = misfit(a), misfit(b)
    for _ in range(_REFINE_STEPS):
        left = fa < fb  # the minimum is bracketed by [lo, b]
        lo, hi = np.where(left, lo, a), np.where(left, b, hi)
        new = np.where(left, hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo))
        fnew = misfit(new)
        a, b, fa, fb = (
            np.where(left, new, b),
            np.where(left, a, new),
            np.where(left, fnew, fb),
            np.where(left, fa, fnew),
        )
    e_hat = 0.5 * (lo + hi)
    u, inv_s, vh = _pair_bases(e_hat, d, p.kappa)
    # The minimum-norm lstsq coefficients V diag(1/s) U^H g.
    uh_g = u.conj().swapaxes(-1, -2) @ g[..., None]
    coef = vh.conj().swapaxes(-1, -2) @ (inv_s[..., None] * uh_g)
    return e_hat, (coef[:, 0, 0] + coef[:, 1, 0]).real


def detect_arc_endpoint(
    theta2: float,
    theta1_grid,
    delta0_window: float = 1.0,
    p: ModelParams = None,
) -> ArcDetection:
    """Arc endpoints from reflection spectra, cross-checked against the
    diagonalization oracle.

    For each theta1 the complex reflection is solved only on the fit
    window, the points of detuning_grid(delta0_window, DELTA0_STEP) with
    |Delta0| <= FIT_WINDOW J; delta0_window (in units of J) is only
    validated to be at least FIT_WINDOW, so every window >= FIT_WINDOW
    gives the same result.  One batched fit over all traces reduces them
    to the near-zero resonance energy and port weight; the point is
    inside the arc when the energy is below ZTOL_DEFAULT J and the
    weight exceeds the edge-label threshold.  Endpoints are the maximal
    symmetric interval of inside points.  Disagreement with the oracle
    beyond single boundary-adjacent grid points flags the result as
    inconsistent.
    """
    if p is None:
        raise ValueError("model parameters required")
    if p.kappa <= 0:
        raise ValueError("arc detection needs kappa > 0")
    if not delta0_window >= FIT_WINDOW:
        raise ValueError(f"delta0_window must be at least {FIT_WINDOW} J")
    grid = np.sort(np.asarray(theta1_grid, dtype=float))
    dgrid = detuning_grid(delta0_window, DELTA0_STEP, p)
    dfit = dgrid[np.abs(dgrid) <= FIT_WINDOW * p.J + 1e-12 * p.J]

    inside = np.zeros(grid.size, dtype=bool)
    # A single-cell chain has no distinct end cells, so nothing can be
    # edge-localized; the port-weight proxy only makes sense for N >= 2.
    if p.N >= 2 and grid.size:
        r = np.array(
            [reflection_spectrum(float(t1), theta2, dfit, p).r_values for t1 in grid]
        )
        e_hat, weight = _fit_zero_pairs(dfit, (r - 1.0) / (1j * p.kappa), p)
        inside = (e_hat < ZTOL_DEFAULT * p.J) & (weight > EDGE_WEIGHT_MIN)

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
