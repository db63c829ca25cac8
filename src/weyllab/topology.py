"""Berry curvature and Chern-number engines.

Monopole charges are computed two independent ways: geometrically, as
the degree of the unit-Bloch-vector map on a small sphere around a
node, and via gauge-invariant link variables (plaquette products) on
the mapped two-dimensional zone swept by a circle around the node's
(theta1, theta2) projection.  The curvature field itself has two
stacked kernels over points of shape (..., 3): the wrapped monopole sum
and the plaquette value.

Orientation convention, used consistently everywhere: spheres are
outward-oriented, plaquette loops run counterclockwise in right-handed
axis order, and a node's charge equals sign(det v) of its linearized
velocity matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .model import ModelParams, WeylPoint, _node_loop, bloch_vectors
from .numerics import NumericsError, solid_angle_batch

__all__ = [
    "ChernResult",
    "NonConvergedChernError",
    "DegenerateGroundStateError",
    "berry_curvature_weyl",
    "monopole_sum",
    "berry_curvature_numeric",
    "chern_sphere",
    "chern_mapped_torus",
]

# Accept a raw surface integral as an integer only this close to one.
ROUNDING_TOL = 0.05
# A point this close to a node is on it.
NODE_RADIUS = 1e-9
# The smallest |h| on a Chern surface (band splitting on the mapped
# torus, Bloch-vector norm on the sphere) must exceed this fraction of
# the largest: the rounding of the hopping terms of h (about 1e-16 of
# |h|) would otherwise hide the on-site term that opens the gap.
GAP_REL_MIN = 1e-15
# Points per block of berry_curvature_numeric, which bounds its plaquette
# temporaries (about 1 kB a point, 2 MB a block) whatever the number of
# points; the berry-field map is computed and written in blocks of as many
# grid points.
BLOCK_POINTS = 2048


class NonConvergedChernError(NumericsError):
    """Surface integral did not land near an integer."""


class DegenerateGroundStateError(NumericsError):
    """Ground state ill-defined: band splitting below tolerance."""


@dataclass(frozen=True)
class ChernResult:
    value: int
    raw: float


def berry_curvature_weyl(q, charge: int) -> np.ndarray:
    """Analytic monopole field charge * q / (2 |q|^3) at offsets q, shape
    (..., 3), from a node; |q| as a matmul dot and |q|^3 as float_power
    are bit for bit np.linalg.norm and ** of one offset."""
    if charge not in (-1, 1):
        raise ValueError("charge must be +1 or -1")
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (3,):
        raise ValueError("q must be a stack of 3-vectors")
    r = np.sqrt(q[..., None, :] @ q[..., :, None])[..., 0]
    if np.any(r == 0.0):
        raise ZeroDivisionError("Berry curvature is singular at the monopole")
    return charge * q / (2.0 * np.float_power(r, 3))


def monopole_sum(q, nodes: list[WeylPoint], charges) -> tuple[np.ndarray, np.ndarray]:
    """Monopole fields of `nodes` summed at stacked points q, shape (..., 3),
    with offsets wrapped to [-pi, pi), and each point's distance to the
    nearest node.  The field is NaN within NODE_RADIUS of a node."""
    q = np.asarray(q, dtype=float)
    locs = np.array([w.location.as_array() for w in nodes])
    off = (q[..., None, :] - locs + np.pi) % (2.0 * np.pi) - np.pi
    dmin = np.sqrt(off[..., None, :] @ off[..., :, None])[..., 0, 0].min(axis=-1)
    away = dmin >= NODE_RADIUS
    field = np.full(q.shape, np.nan)
    field[away] = sum(map(berry_curvature_weyl, np.moveaxis(off[away], -2, 0), charges))
    return field, dmin


def _ground_states(hx, hy, hz, gauge_rng=None):
    """Lower-band spinors of h . sigma on a stacked grid, shape (..., 2),
    and the band splittings.  An optional RNG multiplies each spinor by a
    random phase, which the gauge-invariant products built on them cancel."""
    shape = hx.shape
    mats = np.empty(shape + (2, 2), dtype=complex)
    mats[..., 0, 0] = hz
    mats[..., 1, 1] = -hz
    mats[..., 0, 1] = hx - 1j * hy
    mats[..., 1, 0] = hx + 1j * hy
    vals, vecs = np.linalg.eigh(mats)
    psi = vecs[..., :, 0]
    if gauge_rng is not None:
        psi = psi * np.exp(2j * np.pi * gauge_rng.random(shape))[..., None]
    return psi, vals[..., 1] - vals[..., 0]


def berry_curvature_numeric(q, plane: tuple[int, int], step: float, p: ModelParams,
                            gauge_rng=None):
    """Lower-band Berry curvature component normal to `plane` at stacked
    points q, shape (..., 3).

    The phase of the product of the four normalized ground-state
    overlaps around a step x step plaquette spanned by the two axes in
    `plane` (0 = kx, 1 = theta1, 2 = theta2), over the plaquette area;
    the component is the one completing the right-handed axis triple.
    Matmul overlaps, hypot moduli and a real-arithmetic loop product keep
    each value bit for bit that of a scalar vdot/abs/complex loop.  The
    points are evaluated BLOCK_POINTS at a time.  A step outside (0, pi),
    or one that vanishes in floating point, raises ValueError.
    """
    i, j = plane
    if i == j or not {i, j} <= {0, 1, 2}:
        raise ValueError("plane must be a pair of distinct axes from {0, 1, 2}")
    # Before step**2 overflows (from 1.3e154); a side >= pi spans half a period.
    if not 0 < step < np.pi:
        raise ValueError(f"step must be positive and below pi, got {step!r}")
    q = np.asarray(q, dtype=float)
    # A step whose square underflows, or lost against a point, spans no area.
    if step**2 < sys.float_info.min or np.any(q[..., [i, j]] + step == q[..., [i, j]]):
        raise ValueError(f"plaquette step {step!r} vanishes in floating point")
    if q[..., 0].size > BLOCK_POINTS:
        pts = q.reshape(-1, 3)
        return np.concatenate([
            berry_curvature_numeric(pts[k:k + BLOCK_POINTS], plane, step, p, gauge_rng)
            for k in range(0, len(pts), BLOCK_POINTS)
        ]).reshape(q.shape[:-1])
    corners = np.repeat(q[..., None, :], 4, axis=-2)
    corners[..., 1:3, i] += step
    corners[..., 2:4, j] += step
    psi, gap = _ground_states(*bloch_vectors(*np.moveaxis(corners, -1, 0), p),
                              gauge_rng=gauge_rng)
    if np.any(gap < 1e-6):
        raise DegenerateGroundStateError(f"band splitting {gap.min():.2e} below 1e-6")
    ov = (psi.conj()[..., None, :] @ np.roll(psi, -1, axis=-2)[..., :, None])[..., 0, 0]
    u = ov / np.hypot(ov.real, ov.imag)
    re, im = np.ones(q.shape[:-1]), np.zeros(q.shape[:-1])
    for ur, ui in zip(np.moveaxis(u.real, -1, 0), np.moveaxis(u.imag, -1, 0)):
        re, im = re * ur - im * ui, re * ui + im * ur
    # Sign fixed so that the flux of this field through an outward
    # sphere around a node is 2 pi times the node's degree (chern_sphere).
    return -np.arctan2(im, re) / step**2


def chern_sphere(
    w: WeylPoint, radius: float, mesh: int, p: ModelParams
) -> ChernResult:
    """Monopole charge as the degree of the unit-Bloch-vector map.

    The sphere of the given radius around the node is triangulated on a
    latitude-longitude grid (poles as triangle fans) and the degree is
    the sum of signed solid angles of the image triangles over 4 pi.
    Outward orientation; radius must keep every other node outside.
    """
    if not (0.0 < radius < np.pi / 2):
        raise ValueError("radius must lie in (0, pi/2)")
    if mesh < 8:
        raise ValueError("mesh must be at least 8")
    nth, nph = mesh, 2 * mesh
    theta = np.linspace(0.0, np.pi, nth + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, nph, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    normals = np.stack(
        [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
    )
    q0 = w.location.as_array()
    pts = q0 + radius * normals
    hx, hy, hz = bloch_vectors(pts[..., 0], pts[..., 1], pts[..., 2], p)
    h = np.stack([hx, hy, hz], axis=-1)
    with np.errstate(over="ignore"):  # as from an overflowing J
        norm = np.linalg.norm(h, axis=-1)
    if not np.isfinite(norm).all():
        raise ValueError("non-finite Bloch vector norms on the sphere")
    if norm.min() < 1e-12:
        raise NonConvergedChernError("sphere touches a band-degeneracy point")
    if norm.min() < GAP_REL_MIN * norm.max():
        raise NonConvergedChernError(
            f"|h| {norm.min():.3e} on the sphere is lost in the rounding of "
            f"|h| up to {norm.max():.3e}; J dwarfs Je"
        )
    hhat = h / norm[..., None]

    # Quad (i,j)-(i+1,j)-(i+1,j+1)-(i,j+1) split into two triangles with
    # the (theta, phi) orientation, which is outward on the sphere.
    va = hhat[:-1, :]
    vb = hhat[1:, :]
    vc = np.roll(hhat, -1, axis=1)[1:, :]
    vd = np.roll(hhat, -1, axis=1)[:-1, :]
    total = solid_angle_batch(va, vb, vc).sum() + solid_angle_batch(va, vc, vd).sum()
    raw = float(total / (4.0 * np.pi))
    value = int(np.rint(raw))
    if abs(raw - value) > ROUNDING_TOL:
        raise NonConvergedChernError(
            f"degree {raw:.4f} not within {ROUNDING_TOL} of an integer; "
            "refine the mesh or shrink the sphere"
        )
    return ChernResult(value, raw)


def chern_mapped_torus(
    w: WeylPoint,
    theta_r: float,
    grid: int,
    p: ModelParams,
    gauge_rng=None,
) -> ChernResult:
    """Link-variable Chern number of the circle-mapped two-band model.

    The circle theta -> (theta1w + theta_r cos theta, theta2w +
    theta_r sin theta) around the node's projection turns the Bloch
    matrix into a gapped family h(kx, theta) on the torus
    kx, theta in [0, 2pi).  Its lower-band Chern number is accumulated
    from plaquette-product phases.  The full kx period wraps the node
    twice (the node and its equal-charge partner at kx + pi), so the
    reported value is raw / 2 rounded, with raw alongside.
    """
    if grid < 20:
        raise ValueError("grid must be at least 20")
    kx = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    th = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    kk, tt = np.meshgrid(kx, th, indexing="ij")
    th1, th2 = _node_loop(w, theta_r, tt)
    psi, gap = _ground_states(*bloch_vectors(kk, th1, th2, p), gauge_rng=gauge_rng)
    if gap.min() < 1e-9:
        raise DegenerateGroundStateError(
            "gap closes on the mapped torus; shrink theta_r"
        )
    if gap.min() < GAP_REL_MIN * gap.max():
        raise DegenerateGroundStateError(
            f"gap {gap.min():.3e} on the mapped torus is lost in the rounding "
            f"of splittings up to {gap.max():.3e}; J dwarfs Je"
        )

    def link(axis):
        ov = np.sum(psi.conj() * np.roll(psi, -1, axis=axis), axis=-1)
        mag = np.abs(ov)
        if mag.min() < 1e-12:
            raise DegenerateGroundStateError(
                "vanishing plaquette overlap; shrink theta_r or refine the grid"
            )
        return ov / mag

    u1 = link(0)
    u2 = link(1)
    fluxes = np.angle(u1 * np.roll(u2, -1, axis=0) / (np.roll(u1, -1, axis=1) * u2))
    raw = float(fluxes.sum() / (2.0 * np.pi))
    value = int(np.rint(raw / 2.0))
    if abs(raw / 2.0 - value) > ROUNDING_TOL:
        raise NonConvergedChernError(
            f"half-degree {raw / 2.0:.4f} not within {ROUNDING_TOL} of an integer"
        )
    return ChernResult(value, raw)
