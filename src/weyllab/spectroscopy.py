"""Driven-dissipative measurement protocol.

Steady-state amplitudes of the externally driven lossy chain, the
left-port reflection coefficient, the phase-winding readout of a
node's monopole charge, reflection spectra versus drive detuning, and
the zero-energy-arc endpoint extraction from those spectra.

All response quantities derive from the linear steady state
a = -(Delta0 + T - i kappa/2)^{-1} Omega, so they are independent of
the drive amplitude; the left-port reflection is
r_L = 1 + i kappa [(Delta0 + T - i kappa/2)^{-1}]_{11}.  One kernel,
reflections, solves it for a stack of chains over a detuning grid, in
bounded blocks of at most SYSTEM_ENTRIES systems times sites, each
with its own chain bands, by numerics' dense solve_shifted, whose LU
holds at most LU_ENTRIES entries at once; a point is its [0, 0] entry,
a spectrum its row 0, and a winding loop its one column over the
loop's chains.

Arc detection reads the port resolvent [(Delta0 + T - i kappa/2)^{-1}]_{11}
of each distinct chain of its theta1 grid once, by numerics'
corner_resolvent (1 / p_0 of a pivot sweep, O(n) per detuning), only on the
fit window |Delta0| <= FIT_WINDOW J, and fits all those traces at once,
scattering each verdict back to every grid point of its chain;
it reports an arc [-t, t], and its oracle's, by the float t, NaN for none.
The resonance-pair model is linear except in u = e^2, the squared pair
energy, so its linear weights are projected out (variable projection).
At each u, one stacked QR orthonormalises the quadratic background's
columns and the two pole columns of every trace together.  A linear
projection gives every trace's start and two Gauss-Newton steps refine
all traces in lockstep; the same projection at the fitted u gives the
port weights.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, WeylPoint, _node_loop, chain_bands
from .numerics import NumericsError, corner_resolvent, solve_shifted
from .openchain import (
    ZTOL_DEFAULT,
    EDGE_WEIGHT_MIN,
    _arc_verdicts,
    _distinct_rows,
    max_symmetric_interval,
)

__all__ = [
    "GridError",
    "ArcDetection",
    "left_drive",
    "steady_state",
    "transient_oracle",
    "reflections",
    "symmetric_grid",
    "detuning_grid",
    "loop_reflection",
    "detect_arc_endpoint",
]

# Drive-detuning scan step for arc detection, in units of J.
DELTA0_STEP = 0.01
# Most points of a symmetric detuning or theta1 grid, or of a winding loop.
MAX_GRID_POINTS = 10_001
# Samples with |Delta0| up to this many J feed the resonance fit.
FIT_WINDOW = 0.12
# Gauss-Newton steps of the pair fit from its linear start.
NEWTON_STEPS = 2
# Most systems times sites that reflections passes to one solve_shifted
# call: 64 kB a complex array of x or of the residual.
SYSTEM_ENTRIES = 2**12


@dataclass(frozen=True)
class ArcDetection:
    """Spectroscopic arc endpoint with the arc oracle's cross-check.

    theta1c and oracle_theta1c end the arcs [-t, t] that the reflection
    spectra and the oracle read, NaN for no arc.  disagreements counts
    the grid points the two classify differently; flagged is True when
    they differ beyond single boundary-adjacent grid points.
    """

    theta1c: float
    oracle_theta1c: float
    flagged: bool
    disagreements: int


def left_drive(p: ModelParams, amplitude: complex = 1.0) -> np.ndarray:
    """Drive vector (Omega, 0, ..., 0) on the leftmost resonator."""
    drive = np.zeros(p.sites, dtype=complex)
    drive[0] = amplitude
    return drive


def steady_state(
    theta1: float, theta2: float, drive: np.ndarray, p: ModelParams
) -> np.ndarray:
    """Steady amplitudes a = -(Delta0 + T - i kappa/2)^{-1} Omega, shape
    (sites,), from one solve_shifted, which refuses any solve whose
    residual exceeds its tolerance.

    kappa = 0 with Delta0 on an eigenvalue of T has no steady state and
    raises SingularMatrixError.
    """
    drive = np.asarray(drive, dtype=complex)
    if drive.shape != (p.sites,):
        raise ValueError(f"drive must have {p.sites} amplitudes")
    (d,), (e,) = chain_bands(theta1, theta2, p)
    return solve_shifted(d, e, p.Delta0 - 0.5j * p.kappa, -drive)


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
    (d,), (e,) = chain_bands(theta1, theta2, p)
    m = np.diag(d + (p.Delta0 - 0.5j * p.kappa)) + np.diag(e, 1) + np.diag(e, -1)
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


def reflections(theta1s, theta2s, delta0_grid, p: ModelParams) -> np.ndarray:
    """r_L of a stack of chains over a detuning grid, shape (chains, detunings).

    Chain k is the open chain at (theta1s[k], theta2s[k]), the angle
    arrays broadcast, and each detuning replaces p.Delta0.  solve_shifted
    solves the (chain, detuning) systems in chain-major order, in bounded
    blocks of at most SYSTEM_ENTRIES systems times sites (one system at
    least), each block's chain bands built for it: whole chains wherever
    a chain's detunings fit, else spans of one chain's detunings.  A
    singular system anywhere, such as kappa = 0 exactly on resonance,
    raises SingularMatrixError.
    """
    t1s, t2s = np.broadcast_arrays(np.ravel(theta1s), np.ravel(theta2s))
    z = np.asarray(delta0_grid, dtype=float) - 0.5j * p.kappa
    systems = max(1, SYSTEM_ENTRIES // p.sites)
    chains = max(1, systems // max(1, z.size))  # whole chains where they fit
    r = np.empty((t1s.size, z.size), dtype=complex)
    for c, j in itertools.product(range(0, t1s.size, chains), range(0, z.size, systems)):
        c, j = slice(c, c + chains), slice(j, j + systems)
        diags, offs = chain_bands(t1s[c], t2s[c], p)
        g11 = solve_shifted(diags[:, None], offs[:, None], z[j], left_drive(p))[..., 0]
        r[c, j] = 1.0 + 1j * p.kappa * g11
    return r


class GridError(ValueError):
    """A grid step and half-width that symmetric_grid refuses."""


def symmetric_grid(half_width: float, step: float) -> np.ndarray:
    """Grid k * step for |k| <= round(half_width / step).

    Raises GridError, before allocating anything, for a non-positive
    step, a negative or non-finite half_width, or a grid of more than
    MAX_GRID_POINTS points.
    """
    if not step > 0:
        raise GridError("grid step must be positive")
    if not 0 <= half_width < math.inf:
        raise GridError(f"grid half-width must be finite and >= 0, got {half_width}")
    half = half_width / step  # inf for a denormal step
    if not half <= (MAX_GRID_POINTS - 1) / 2:
        raise GridError(
            f"grid of {2 * half + 1:.3g} points exceeds {MAX_GRID_POINTS}; "
            "use a coarser step"
        )
    nstep = int(round(half))
    return np.arange(-nstep, nstep + 1) * step


def detuning_grid(window: float, step: float, p: ModelParams) -> np.ndarray:
    """Symmetric drive-detuning grid over [-window, window] in steps of
    `step`, both in units of J.

    Raises ValueError when the grid scaled by J is not strictly
    increasing: rounding merges its points at a subnormal J, and an
    overflow makes them infinite.
    """
    with np.errstate(over="ignore"):
        grid = symmetric_grid(window, step) * p.J
    if not (grid[1:] > grid[:-1]).all():
        raise ValueError(
            f"detuning grid in steps of {step:.3g} J is not strictly increasing "
            f"at J = {p.J:.3g}: rounding merges or overflows its points"
        )
    return grid


def loop_reflection(
    w: WeylPoint,
    theta_r: float,
    samples: int,
    p: ModelParams,
    offset: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """(theta, r_L) around a circle enclosing the node's (theta1, theta2)
    projection, at fixed in-gap detuning p.Delta0.

    The loop is theta1 = theta1w + theta_r cos(theta), theta2 = theta2w
    + theta_r sin(theta) with theta uniform on offset + [0, 2pi), and r_L
    is the reflections column of its chains; the node's charge is
    unwrap_winding(np.angle(r_L)).winding.  kappa = 0, or a sample count
    outside [64, MAX_GRID_POINTS], raises ValueError before anything is
    allocated; so does a theta_r that model._node_loop refuses.
    """
    if p.kappa <= 0:
        raise ValueError("winding readout needs kappa > 0")
    if not 64 <= samples <= MAX_GRID_POINTS:
        raise ValueError(f"need 64 to {MAX_GRID_POINTS} samples around the loop")
    theta = offset + 2.0 * np.pi * np.arange(samples) / samples
    theta1s, theta2s = _node_loop(w, theta_r, theta)
    return theta, reflections(theta1s, theta2s, [p.Delta0], p)[:, 0]


def _pair_fit(
    u: np.ndarray, d: np.ndarray, g: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Residual norms, pair weights and Gauss-Newton steps of the
    resonance-pair model at squared pair energies u = e^2.

    Model: g(d) = w+/(w + e) + w-/(w - e) + quadratic background, with
    w = d - i kappa/2; linear in everything but u.  g (..., m) holds the
    traces on the detunings d (m,); u broadcasts against g's stack.  The
    background columns are (1, d, d^2), and the pole columns enter as
    s = 2w/(w^2 - u) and t = 1/(w^2 - u): for u > 0 they span the plane
    of 1/(w +- e), and at u = 0 they are its double-pole limit, so they
    stay independent.  One stacked QR of the five columns gives an
    orthonormal basis Q of the model and R; the residual r = g - Q Q^H g
    is formed, not taken as ||g||^2 - ||Q^H g||^2, which cancels.  Back
    substitution in R's two pole rows gives g = c_s s + c_t t +
    background, and the weight w+ + w- = 2 Re c_s.  The step in u is
    Kaufman's Gauss-Newton step of the projected misfit: v = (c_s s +
    c_t t)/(w^2 - u), the u-derivative of the fitted poles, with Q
    projected out of it, and step = Re<v, r>/||v||^2.
    """
    u = np.asarray(u, dtype=float)[..., None]
    w = d - 0.5j * kappa
    pole = 1.0 / (w * w - u)
    cols = np.empty(pole.shape + (5,), complex)
    cols[..., :3] = np.vander(d, 3, increasing=True)
    cols[..., 3], cols[..., 4] = 2.0 * w * pole, pole
    basis, rr = np.linalg.qr(cols)
    adjoint = basis.conj().swapaxes(-1, -2)
    coef = (adjoint @ g[..., None])[..., 0]
    r = g - (basis @ coef[..., None])[..., 0]
    c_t = coef[..., 4] / rr[..., 4, 4]
    c_s = (coef[..., 3] - rr[..., 3, 4] * c_t) / rr[..., 3, 3]
    v = (2.0 * w * c_s[..., None] + c_t[..., None]) * pole * pole
    v -= (basis @ (adjoint @ v[..., None]))[..., 0]
    step = np.sum(v.conj() * r, axis=-1).real / np.sum(np.abs(v) ** 2, axis=-1)
    return np.linalg.norm(r, axis=-1), 2.0 * c_s.real, step


def _fit_zero_pairs(
    d: np.ndarray, g: np.ndarray, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Near-zero mode energies and port weights of P resolvent traces.

    g (P, m) holds the port resolvent g = [(T + d - i kappa/2)^-1]_00 on
    the detunings d (m,), which the complex reflection r_L = 1 + i kappa
    g determines exactly.  The mode energies are
    its pole positions, which a known-linewidth fit recovers far below
    the kappa/2 blurring of any local lineshape statistic.  The fit is a
    variable projection (Golub & Pereyra 1973): the linear weights are
    projected out, leaving a misfit in u = e^2 alone.  It runs in units
    of J, so every energy scale gives the same fit.  The start is linear
    (Levy 1959): times (w^2 - u), the model reads g w^2 = u g + a
    quartic in d, so with the quartics projected out of g and of g w^2
    by one QR of the real Vandermonde columns (1, d, ..., d^4), leaving
    x and y, u = Re<x, y>/||x||^2.  NEWTON_STEPS Gauss-Newton steps of
    _pair_fit refine it, u clipped to [0, FIT_WINDOW^2] before each
    call, and the weights come from _pair_fit at the final u.  Returns
    (energies, total pair weights), each (P,).  A fit that rounding
    leaves non-finite, as from kappa of about 5e72 J, raises NumericsError.
    """
    d, kappa = d / p.J, p.kappa / p.J  # energies in units of J
    basis = np.linalg.qr(np.vander(d, 5, increasing=True))[0]
    with np.errstate(all="ignore"):
        g = g * p.J
        x = g - (g @ basis) @ basis.T
        gw2 = g * (d - 0.5j * kappa) ** 2
        y = gw2 - (gw2 @ basis) @ basis.T
        u = np.sum(x.conj() * y, axis=-1).real / np.sum(np.abs(x) ** 2, axis=-1)
        u = np.clip(u, 0.0, FIT_WINDOW**2)
        for _ in range(NEWTON_STEPS):
            u = np.clip(u + _pair_fit(u, d, g, kappa)[2], 0.0, FIT_WINDOW**2)
        e_hat, weight = p.J * np.sqrt(u), _pair_fit(u, d, g, kappa)[1]
    if not (np.isfinite(e_hat).all() and np.isfinite(weight).all()):
        raise NumericsError(
            f"resonance-pair fit is not finite at kappa = {p.kappa:.3g} "
            f"(J = {p.J:.3g}): the fit window is lost in rounding"
        )
    return e_hat, weight


def detect_arc_endpoint(theta2, theta1_grid, p: ModelParams) -> ArcDetection:
    """Arc endpoint from reflection spectra, cross-checked against the
    open-chain oracle of arc_membership.

    theta2 is one angle or one per grid point.  For each theta1 the port
    resolvent, which the complex reflection determines, is read only on
    the fit window, detuning_grid(FIT_WINDOW, DELTA0_STEP), by
    corner_resolvent.  One batched fit over all traces reduces them to
    the near-zero resonance energy and port weight; the point is inside
    the arc when the energy is below ZTOL_DEFAULT J and the weight
    exceeds the edge-label threshold.  theta1c ends the maximal
    symmetric interval of inside points.  Disagreement with the oracle
    beyond single boundary-adjacent grid points flags the result as
    inconsistent.
    """
    if p.kappa <= 0:
        raise ValueError("arc detection needs kappa > 0")
    grid = np.asarray(theta1_grid, dtype=float)
    order = np.argsort(grid, kind="stable")
    grid, theta2 = grid[order], np.broadcast_to(theta2, grid.shape)[order]
    dfit = detuning_grid(FIT_WINDOW, DELTA0_STEP, p)

    inside = oracle_ok = np.zeros(grid.size, dtype=bool)
    # A single-cell chain has no distinct end cells, so nothing can be
    # edge-localized; the port-weight proxy only makes sense for N >= 2.
    if p.N >= 2 and grid.size:
        # Chains repeat wherever the grid's cosines do, so each distinct
        # one is solved, fitted and settled by the oracle once, and its
        # verdicts scattered back.
        bands, inverse = _distinct_rows(np.concatenate(chain_bands(grid, theta2, p), axis=-1))
        diags, offs = bands[:, : p.sites], bands[:, p.sites :]
        g = corner_resolvent(diags[:, None], offs[:, None], dfit - 0.5j * p.kappa)
        e_hat, weight = _fit_zero_pairs(dfit, g, p)
        inside = ((e_hat < ZTOL_DEFAULT * p.J) & (weight > EDGE_WEIGHT_MIN))[inverse]
        oracle_ok = _arc_verdicts(diags, offs, ZTOL_DEFAULT * p.J)[inverse]

    theta1c = max_symmetric_interval(grid, inside)
    oracle_theta1c = max_symmetric_interval(grid, oracle_ok)

    mism = grid[inside != oracle_ok]
    step = np.min(np.diff(grid)) if grid.size > 1 else 1.0
    # Flagged unless each mismatch is within 1.5 steps of an endpoint (an
    # empty interval's NaN one is near nothing), at most one per side of 0.
    bounds = [abs(theta1c), abs(oracle_theta1c)]
    near = (np.abs(np.abs(mism)[:, None] - bounds) <= 1.5 * step).any(axis=1)
    flagged = not near.all() or max(np.sum(mism >= 0), np.sum(mism < 0)) > 1
    return ArcDetection(theta1c, oracle_theta1c, bool(flagged), mism.size)
