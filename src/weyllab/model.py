"""Parametrized lattice model.

A one-dimensional two-site-per-cell resonator chain whose hopping and
on-site profiles are steered by two cyclic control angles (theta1,
theta2).  Together with the chain momentum kx these angles span a
synthetic three-dimensional Brillouin zone in which the two Bloch bands
touch at four isolated points.

Conventions: energies are measured in units of the mean hopping J
(J = 1 by default, and Je = J), and the global detuning offset Delta0
is *not* part of the lattice matrices here -- it is a drive property
applied by the spectroscopy layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import NumericsError, reduce_angle

__all__ = [
    "ModelParams",
    "SyntheticMomentum",
    "WeylPoint",
    "DegenerateModelError",
    "bloch_vectors",
    "bulk_band_sheet",
    "weyl_points",
    "linearize",
    "chain_bands",
]


class DegenerateModelError(NumericsError):
    """Model parameters degenerate the band-touching structure."""


@dataclass(frozen=True)
class ModelParams:
    """Experimental knobs of the chain.

    J      -- mean hopping, the energy unit (> 0)
    Je     -- on-site modulation amplitude, in units of J (>= 0)
    Delta0 -- drive detuning offset, in units of J
    kappa  -- resonator decay rate, in units of J (>= 0)
    N      -- number of unit cells; the open chain has 2N resonators
    """

    J: float = 1.0
    Je: float = 1.0
    Delta0: float = -0.1
    kappa: float = 0.1
    N: int = 2

    def __post_init__(self):
        if not (self.J > 0):
            raise ValueError("J must be positive")
        if self.Je < 0:
            raise ValueError("Je must be nonnegative")
        if self.kappa < 0:
            raise ValueError("kappa must be nonnegative")
        if not isinstance(self.N, (int, np.integer)) or self.N < 1:
            raise ValueError("N must be a positive integer (unit cells)")
        for name in ("J", "Je", "Delta0", "kappa"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def sites(self) -> int:
        return 2 * self.N


@dataclass(frozen=True)
class SyntheticMomentum:
    """Point (kx, theta1, theta2) in the synthetic Brillouin zone.

    Components are stored reduced to (-pi, pi]; every function of the
    momentum is 2pi-periodic in each component.
    """

    kx: float
    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("kx", "theta1", "theta2"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(reduce_angle(v)))

    def as_array(self) -> np.ndarray:
        return np.array([self.kx, self.theta1, self.theta2])


def _det_sign(v: np.ndarray) -> int:
    """Sign of det v, -1, 0 or 1, from slogdet: its LU keeps the sign of
    each pivot and sums their logarithms, so no product of entries can
    overflow or underflow to 0 however far apart J and Je are."""
    return int(np.linalg.slogdet(v)[0])


@dataclass(frozen=True)
class WeylPoint:
    """Band-touching point with its linearization.

    velocity[i, j] = d h_j / d q_i at the node; chirality is
    sign(det velocity) under this artifact's orientation convention
    (outward Berry flux positive).
    """

    location: SyntheticMomentum
    velocity: np.ndarray
    chirality: int

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (3, 3):
            raise ValueError("velocity must be a 3x3 matrix")
        object.__setattr__(self, "velocity", v)
        if self.chirality not in (-1, 1) or _det_sign(v) != self.chirality:
            raise ValueError("chirality must equal sign(det velocity)")


def bloch_vectors(kx, theta1, theta2, p: ModelParams):
    """Bloch vector components (hx, hy, hz) on broadcastable angle arrays."""
    hx = 2.0 * p.J * np.cos(kx)
    hy = 2.0 * p.J * np.cos(theta1) * np.sin(kx)
    hz = p.Je * np.cos(theta2)
    return np.broadcast_arrays(hx, hy, hz)


def bulk_band_sheet(kx, theta1, theta2, p: ModelParams):
    """Bulk bands (E-, E+) = Delta0 -/+ |h| on broadcastable angle arrays,
    which are reduced to (-pi, pi] as SyntheticMomentum stores them.
    Non-finite bands, as from an overflowing J, raise ValueError."""
    hx, hy, hz = bloch_vectors(*(reduce_angle(a) for a in (kx, theta1, theta2)), p)
    with np.errstate(over="ignore"):
        h = np.sqrt(hx**2 + hy**2 + hz**2)
    if not np.isfinite(h).all():
        raise ValueError("non-finite entries in bulk band sheet")
    return p.Delta0 - h, p.Delta0 + h


_WEYL_LOCATIONS = (
    (math.pi / 2, math.pi / 2, math.pi / 2),
    (math.pi / 2, math.pi / 2, -math.pi / 2),
    (math.pi / 2, -math.pi / 2, -math.pi / 2),
    (math.pi / 2, -math.pi / 2, math.pi / 2),
)


def weyl_points(p: ModelParams) -> list[WeylPoint]:
    """The four band-touching points in the reduced zone kx in (0, pi].

    They sit at (pi/2, +/-pi/2, +/-pi/2) and exhaust the zero set of
    (hx, hy, hz).  Je = 0 collapses them into nodal lines, which is
    rejected.
    """
    if p.Je == 0:
        raise DegenerateModelError(
            "Je = 0 leaves hz identically zero: nodal lines instead of Weyl points"
        )
    return [linearize(SyntheticMomentum(*loc), p) for loc in _WEYL_LOCATIONS]


def linearize(w: SyntheticMomentum, p: ModelParams) -> WeylPoint:
    """Linearized node at w: velocity v_ij = d h_j / d q_i and chirality.

    The derivatives are exact partials of the Bloch vector; w must be a
    band-touching point with a finite Bloch vector.
    """
    h = math.hypot(*map(float, bloch_vectors(w.kx, w.theta1, w.theta2, p)))
    if not math.isfinite(h):
        raise ValueError(f"non-finite Bloch vector at {w}: 2 J overflows at J = {p.J!r}")
    if h > 1e-9 * max(p.J, p.Je):
        raise ValueError(f"momentum {w} is not a band-touching point")
    skx, ckx = math.sin(w.kx), math.cos(w.kx)
    v = np.array(
        [
            [-2.0 * p.J * skx, 2.0 * p.J * math.cos(w.theta1) * ckx, 0.0],
            [0.0, -2.0 * p.J * math.sin(w.theta1) * skx, 0.0],
            [0.0, 0.0, -p.Je * math.sin(w.theta2)],
        ]
    )
    chirality = _det_sign(v)
    if chirality == 0:
        raise DegenerateModelError("vanishing velocity determinant at the node")
    return WeylPoint(w, v, chirality)


def _node_loop(w: WeylPoint, theta_r: float, theta):
    """The circle (theta1w + theta_r cos theta, theta2w + theta_r sin theta)
    around node w's (theta1, theta2) projection, the loop of both the
    winding readout and the mapped-torus Chern number.  ValueError unless
    0 < theta_r < pi/2 and theta_r survives addition to both node angles.
    """
    theta1w, theta2w = w.location.theta1, w.location.theta2
    if not (0.0 < theta_r < np.pi / 2):
        raise ValueError("theta_r must lie in (0, pi/2)")
    if theta1w + theta_r == theta1w or theta2w + theta_r == theta2w:
        raise ValueError(f"loop radius theta_r={theta_r!r} vanishes against the node's angles")
    return theta1w + theta_r * np.cos(theta), theta2w + theta_r * np.sin(theta)


def chain_bands(theta1s, theta2s, p: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """Open-chain bands (diags, offs): a diagonal row per theta2 and an
    off-diagonal row per theta1, in the order of the raveled angles.

    Site order a1, b1, a2, b2, ...; the diagonal alternates
    (+Je cos theta2, -Je cos theta2) and the off-diagonal (J1, J2, J1,
    ...) starts with the intra-cell J1 = J (1 - cos theta1), followed by
    the inter-cell J2 = J (1 + cos theta1).  Delta0 is left to consumers.
    This is the one guard of every chain: non-finite entries, as from a
    NaN or infinite angle or an overflowing J, raise ValueError; angles
    are checked before np.cos, which would warn on an infinity.
    """
    t1, t2 = np.ravel(theta1s), np.ravel(theta2s)
    finite = np.isfinite(t1).all() and np.isfinite(t2).all()
    if finite:
        c1, m = np.cos(t1)[:, None], p.Je * np.cos(t2)[:, None]
        diags = np.empty((t2.size, p.sites))
        offs = np.empty((t1.size, p.sites - 1))
        diags[:, 0::2], diags[:, 1::2] = m, -m
        with np.errstate(over="ignore"):
            offs[:, 0::2], offs[:, 1::2] = p.J * (1.0 - c1), p.J * (1.0 + c1)
        finite = np.isfinite(diags).all() and np.isfinite(offs).all()
    if not finite:
        raise ValueError("non-finite entries in tridiagonal matrix")
    return diags, offs
