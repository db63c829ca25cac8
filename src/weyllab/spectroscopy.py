"""Driven-dissipative measurement protocol.

Steady-state amplitudes of the externally driven lossy chain, the
left-port reflection coefficient, the phase-winding readout of a
node's monopole charge, reflection spectra versus drive detuning, and
the zero-energy-arc endpoint extraction from those spectra.

All response quantities derive from the linear steady state
a = -(Delta0 + T - i kappa/2)^{-1} Omega, so they are independent of
the drive amplitude; the left-port reflection is
r_L = 1 + i kappa [(Delta0 + T - i kappa/2)^{-1}]_{11}.  One kernel,
reflections, solves it for a stack of chains in bounded blocks; a
point, a spectrum, a winding loop and an arc scan are one call each.

Arc detection solves each theta1 point only on the fit window
|Delta0| <= FIT_WINDOW J and fits all traces at once: the resonance-pair
model is linear except in the pair energy e, so its linear weights are
projected out (variable projection).  The e-independent background is
projected out of every trace once; each candidate e adds two pole
columns, orthonormalised by Gram-Schmidt.  A coarse scan over e and a
golden-section search refine all traces in lockstep; the same
projection at the fitted energies gives the port weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, WeylPoint, chain_bands
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
    "reflections",
    "reflection",
    "reflection_spectrum",
    "symmetric_grid",
    "detuning_grid",
    "loop_reflection",
    "winding_measurement",
    "detect_arc_endpoint",
]

# Most matrix entries that one block of a reflections stack solves at
# once (2 MB of complex systems); it bounds the kernel's memory.
BLOCK_ENTRIES = 2**17
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


def _dense_chains(diags: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Dense (..., n, n) matrices of the chains with bands diags (..., n)
    and offs (..., n - 1); -0.0 entries become 0.0."""
    i = np.arange(diags.shape[-1])
    t = np.zeros(diags.shape + i.shape)
    t[..., i, i] = diags
    t[..., i[1:], i[:-1]] = t[..., i[:-1], i[1:]] = offs
    t += 0.0
    return t


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
    t = _dense_chains(*chain_bands(theta1, theta2, p))[0]
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
    t = _dense_chains(*chain_bands(theta1, theta2, p))[0]
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


def reflections(theta1s, theta2s, delta0_grid, p: ModelParams) -> np.ndarray:
    """r_L of a stack of chains over a detuning grid, shape (chains, detunings).

    Chain k is the open chain at (theta1s[k], theta2s[k]), the angle
    arrays broadcast, and each detuning replaces p.Delta0.  solve_shifted
    solves the dense chains in blocks of at most BLOCK_ENTRIES matrix
    entries (one system at least); a singular system anywhere, such as
    kappa = 0 exactly on resonance, raises SingularMatrixError.
    """
    t1s, t2s = np.broadcast_arrays(np.ravel(theta1s), np.ravel(theta2s))
    z = np.asarray(delta0_grid, dtype=float) - 0.5j * p.kappa
    diags, offs = chain_bands(t1s, t2s, p)
    n = p.sites
    systems = max(1, BLOCK_ENTRIES // (n * n))
    chains = max(1, systems // max(1, z.size))
    r = np.empty((t1s.size, z.size), dtype=complex)
    for k in range(0, t1s.size, chains):
        block = slice(k, k + chains)
        t = _dense_chains(diags[block], offs[block])
        for j in range(0, z.size, systems):
            g11 = solve_shifted(t[:, None], z[j : j + systems], left_drive(p))[..., 0]
            r[block, j : j + systems] = 1.0 + 1j * p.kappa * g11
    return r


def reflection(theta1: float, theta2: float, p: ModelParams) -> complex:
    """Left-port reflection at p.Delta0: the one-point reflections, so it
    is manifestly drive-amplitude independent."""
    return complex(reflections(theta1, theta2, [p.Delta0], p)[0, 0])


def reflection_spectrum(
    theta1: float, theta2: float, delta0_grid, p: ModelParams
) -> ReflectionTrace:
    """r_L over the sorted drive-detuning grid: the one-chain reflections."""
    grid = np.sort(np.asarray(delta0_grid, dtype=float))
    return ReflectionTrace(grid, reflections(theta1, theta2, grid, p)[0])


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
    # Scalar cos and sin, which the loop points have always used.
    theta1s = w.location.theta1 + theta_r * np.array([math.cos(th) for th in theta])
    theta2s = w.location.theta2 + theta_r * np.array([math.sin(th) for th in theta])
    return ReflectionTrace(theta, reflections(theta1s, theta2s, [p.Delta0], p)[:, 0])


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


def _pair_fit(
    e: np.ndarray, d: np.ndarray, q: np.ndarray, g: np.ndarray, kappa: float
) -> tuple[np.ndarray, np.ndarray]:
    """lstsq residual norms and pair weights of the resonance-pair model
    at pair energies e.

    Model: g(d) = w+ a+ + w- a- + quadratic background, with the poles
    a+- = 1/(d +- e - i kappa/2); linear in everything but e.  q (m, 3) is
    an orthonormal basis of the background (1, d, d^2), which is already
    projected out of the traces g (..., m); e broadcasts against g's stack.
    The pole columns enter as s = a+ + a- and t = a+ - a-.  Gram-Schmidt,
    applied twice, orthonormalises s against q, then t against q and s;
    lstsq's rank rule drops t when at most eps max(m, 5) ||s|| of it is
    left, as at e = 0.  The residual is formed, not taken as ||g||^2 -
    ||projection||^2, which cancels.  Back substitution in the same basis
    gives g = c_s s + c_t t + background, c_t = 0 where t is dropped
    (lstsq's minimum-norm solution), and the weight w+ + w- = 2 Re c_s.
    """
    e = np.asarray(e, dtype=float)[..., None]
    plus, minus = 1.0 / (d + e - 0.5j * kappa), 1.0 / (d - e - 0.5j * kappa)
    s, t = plus + minus, plus - minus
    for _ in range(2):
        s -= (s @ q) @ q.T
    norm_s = np.linalg.norm(s, axis=-1, keepdims=True)
    s /= norm_s
    s_t = 0.0  # <s, t> with the background projected out of t
    for _ in range(2):
        t -= (t @ q) @ q.T
        proj = np.sum(s.conj() * t, axis=-1, keepdims=True)
        t -= s * proj
        s_t += proj
    norm_t = np.linalg.norm(t, axis=-1, keepdims=True)
    keep = norm_t > np.finfo(float).eps * max(d.size, 5) * norm_s
    t = np.divide(t, norm_t, out=np.zeros_like(t), where=keep)
    s_g = np.sum(s.conj() * g, axis=-1, keepdims=True)
    r = g - s * s_g
    t_g = np.sum(t.conj() * r, axis=-1, keepdims=True)
    r -= t * t_g
    # The norm's two trace-sized temporaries come before the small weight
    # arrays, which would otherwise fragment the heap and lift peak RSS.
    misfit = np.linalg.norm(r, axis=-1)
    c_t = np.divide(t_g, norm_t, out=np.zeros_like(t_g), where=keep)
    c_s = (s_g - c_t * s_t) / norm_s
    return misfit, 2.0 * c_s[..., 0].real


def _fit_zero_pairs(
    d: np.ndarray, g: np.ndarray, p: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Near-zero mode energies and port weights of P resolvent traces.

    g (P, m) holds g = (r - 1)/(i kappa) on the detunings d (m,), which
    the complex reflection determines exactly.  The mode energies are
    its pole positions, which a known-linewidth fit recovers far below
    the kappa/2 blurring of any local lineshape statistic.  The fit is a
    variable projection (Golub & Pereyra 1973): the linear weights are
    projected out, leaving a misfit in e alone.  The quadratic
    background does not depend on e, so one QR of its real (m, 3)
    columns projects it out of every trace once; _pair_fit handles
    the two pole columns per e.  Every trace is scanned against
    COARSE_CANDIDATES energies in [0, FIT_WINDOW J], then refined in
    lockstep by golden-section search inside the bracket of the best
    candidate's neighbours, to a width of REFINE_TOL J.  The weights come
    from _pair_fit at the fitted energies.  Returns (energies, total pair
    weights), each (P,).
    """
    q = np.linalg.qr(np.stack([np.ones_like(d), d, d * d], axis=-1))[0]
    g_off = g - (g @ q) @ q.T  # the traces with the background projected out

    coarse = np.linspace(0.0, FIT_WINDOW * p.J, COARSE_CANDIDATES)
    i0 = np.argmin(_pair_fit(coarse, d, q, g_off[:, None, :], p.kappa)[0], axis=1)
    lo = coarse[np.maximum(i0 - 1, 0)]
    hi = coarse[np.minimum(i0 + 1, coarse.size - 1)]

    def misfit(e):
        return _pair_fit(e, d, q, g_off, p.kappa)[0]

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
    return e_hat, _pair_fit(e_hat, d, q, g_off, p.kappa)[1]


def detect_arc_endpoint(theta2: float, theta1_grid, p: ModelParams) -> ArcDetection:
    """Arc endpoints from reflection spectra, cross-checked against the
    diagonalization oracle.

    For each theta1 the complex reflection is solved only on the fit
    window, detuning_grid(FIT_WINDOW, DELTA0_STEP).  One batched fit over
    all traces reduces them to the near-zero resonance energy and port
    weight; the point is inside the arc when the energy is below
    ZTOL_DEFAULT J and the weight exceeds the edge-label threshold.
    Endpoints are the maximal symmetric interval of inside points.
    Disagreement with the oracle beyond single boundary-adjacent grid
    points flags the result as inconsistent.
    """
    if p.kappa <= 0:
        raise ValueError("arc detection needs kappa > 0")
    grid = np.sort(np.asarray(theta1_grid, dtype=float))
    dfit = detuning_grid(FIT_WINDOW, DELTA0_STEP, p)

    inside = np.zeros(grid.size, dtype=bool)
    # A single-cell chain has no distinct end cells, so nothing can be
    # edge-localized; the port-weight proxy only makes sense for N >= 2.
    if p.N >= 2 and grid.size:
        r = reflections(grid, theta2, dfit, p)
        e_hat, weight = _fit_zero_pairs(dfit, (r - 1.0) / (1j * p.kappa), p)
        inside = (e_hat < ZTOL_DEFAULT * p.J) & (weight > EDGE_WEIGHT_MIN)

    measured = max_symmetric_interval(grid, inside)
    oracle_ok = arc_membership(theta2, grid, ZTOL_DEFAULT, p)
    oracle = max_symmetric_interval(grid, oracle_ok)

    mism = grid[inside != oracle_ok]
    step = np.min(np.diff(grid)) if grid.size > 1 else 1.0
    # Flagged unless each mismatch is within 1.5 steps of an endpoint (an
    # empty interval's NaN one is near nothing), at most one per side of 0.
    bounds = [abs(measured.theta1c_plus), abs(oracle.theta1c_plus)]
    near = (np.abs(np.abs(mism)[:, None] - bounds) <= 1.5 * step).any(axis=1)
    flagged = not near.all() or max(np.sum(mism >= 0), np.sum(mism < 0)) > 1
    return ArcDetection(
        measured.theta1c_minus,
        measured.theta1c_plus,
        measured.empty,
        bool(flagged),
        oracle,
        mism.size,
    )
