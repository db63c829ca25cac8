"""Open-boundary diagonalization of the resonator chain.

Edge-state sheets over the (theta1, theta2) surface zone, per-state
localization labels, site-density profiles, and the diagonalization
oracle for the zero-energy arc interval that the spectroscopy layer
must reproduce.

At theta2 = +/-pi/2 the chain is mirror symmetric, so near-zero
eigenvectors come out of the solver as even/odd combinations with
equal weight on both ends.  Labeling is made basis-stable by rotating
each such +/-E pair to the combination that maximizes end-site weight
before classifying (the physical left/right quasi-modes).

A label reads only the two end cells of a vector, so one vectorised
rule (_labels) labels a single vector, one chain, or a whole sheet.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, chain_bands
from .numerics import eigh_bands

__all__ = [
    "DensityProfile",
    "ArcInterval",
    "edge_spectrum",
    "density_profile",
    "arc_interval_oracle",
    "arc_membership",
    "max_symmetric_interval",
    "diagonalize_chain",
]

# Default zero-energy tolerance for arc membership, in units of J.
ZTOL_DEFAULT = 0.02
# Minimum end-cell weight for a Left/Right label.
EDGE_WEIGHT_MIN = 0.25
# +/-E pairs below this energy are mirror-rotated before labeling.
PAIR_WINDOW = 0.1
# Rows of a chain's eigenvector matrix that the labels read: the first
# unit cell, then the last.
END_ROWS = [0, 1, -2, -1]
# Label of code 0, 1, 2 in _labels; shared str objects, so a label array
# costs one reference per state.
LABEL_NAMES = np.array(["Bulk", "Left", "Right"], dtype=object)


@dataclass(frozen=True)
class DensityProfile:
    """Site densities (..., sites): one profile per last-axis row."""

    site_densities: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.site_densities, dtype=float)
        if np.any(d < 0) or np.any(np.abs(d.sum(axis=-1) - 1.0) > 1e-10):
            raise ValueError("densities must be nonnegative and sum to 1")
        object.__setattr__(self, "site_densities", d)


@dataclass(frozen=True)
class ArcInterval:
    """Symmetric zero-mode interval (theta1c_minus, theta1c_plus).

    empty is True when no grid point carries a qualifying state; the
    endpoints are then meaningless.
    """

    theta1c_minus: float
    theta1c_plus: float
    empty: bool = False


def _end_weights(ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First- and last-unit-cell weights of the vectors whose END_ROWS
    entries are the columns of ends, shape (..., 4, n).

    Squares go through C pow (np.float_power), as a scalar v[0] ** 2
    does; array ** 2 rounds some squares the other way, and at
    mirror-symmetric points the two weights tie to the last bit, so the
    labels there depend on it.
    """
    w = np.float_power(ends, 2)
    return w[..., 0, :] + w[..., 1, :], w[..., 2, :] + w[..., 3, :]


def _labels(ends: np.ndarray) -> np.ndarray:
    """Left/Right/Bulk labels, a str object array, of the vectors whose
    END_ROWS entries are the columns of ends, shape (..., 4, n).

    Left means the first-unit-cell weight exceeds EDGE_WEIGHT_MIN and
    the weight on the last cell; Right is the mirror rule; anything else
    is Bulk.
    """
    first, last = _end_weights(ends)
    left = (first > EDGE_WEIGHT_MIN) & (first > last)
    right = (last > EDGE_WEIGHT_MIN) & (last > first)
    return LABEL_NAMES[left + 2 * right]


def density_profile(v: np.ndarray) -> DensityProfile:
    """Entrywise squared magnitudes of normalized vectors (..., sites),
    one vector per last-axis row."""
    v = np.asarray(v)
    return DensityProfile(np.abs(v) ** 2)


def _rotate_end_localized(v1: np.ndarray, v2: np.ndarray):
    """Rotate a 2D subspace to extremize end-cell weight difference.

    Diagonalizes the (first-cell minus last-cell) projector restricted
    to span{v1, v2}; returns (left-leaning, right-leaning) combinations.
    Deterministic regardless of the arbitrary basis the solver picked.
    """
    vecs = np.column_stack([v1, v2])
    d = np.zeros(vecs.shape[0])
    d[:2] = 1.0
    d[-2:] -= 1.0
    m = vecs.T @ (d[:, None] * vecs)
    _, rot = np.linalg.eigh(m)
    out = vecs @ rot
    first, last = _end_weights(out[END_ROWS])
    if first[0] - last[0] >= first[1] - last[1]:
        return out[:, 0], out[:, 1]
    return out[:, 1], out[:, 0]


def _rotate_pairs(vals: np.ndarray, vecs: np.ndarray, window: float) -> None:
    """Replace the vectors of mirror-mixed +/-E pairs inside the window
    by their end-localized rotations, in place.

    The i-th smallest eigenvalue with |E| < window pairs with the i-th
    largest; for the chiral-symmetric chain these are the +/-E partners.
    """
    candidates = np.flatnonzero(np.abs(vals) < window)
    k = candidates.size
    for a in range(k // 2):
        i, j = candidates[a], candidates[k - 1 - a]
        vecs[:, i], vecs[:, j] = _rotate_end_localized(vecs[:, i], vecs[:, j])


def _eigensystems(diags, offs, window: float):
    """Eigenvalues (..., n) and labeling-ready vectors (..., n, n) of the
    chains with bands diags (..., n) and offs (..., n - 1), which broadcast.

    One eigh_bands per chain; the vectors of chains with two or more
    states inside the window then get their +/-E pairs rotated.
    """
    shape = np.broadcast_shapes(diags.shape[:-1], offs.shape[:-1])
    n = diags.shape[-1]
    diags = np.broadcast_to(diags, shape + (n,))
    offs = np.broadcast_to(offs, shape + (n - 1,))
    vals, vecs = np.empty(shape + (n,)), np.empty(shape + (n, n))
    for k in np.ndindex(shape):
        vals[k], vecs[k] = eigh_bands(diags[k], offs[k])
    # argwhere, not nonzero: a single chain's count is a 0-d array.
    for k in np.argwhere(np.count_nonzero(np.abs(vals) < window, axis=-1) > 1):
        _rotate_pairs(vals[tuple(k)], vecs[tuple(k)], window)
    return vals, vecs


def diagonalize_chain(theta1, theta2, p: ModelParams):
    """Eigenvalues, labeling-ready eigenvectors, and labels of the chains
    at broadcastable angle arrays theta1 and theta2.

    Returns (values, vectors, labels) of shapes (..., n), (..., n, n)
    and (..., n), where ... is the angles' broadcast shape: eigenvalues
    ascending, vectors as columns, and labels a str object array.  The
    vectors of mirror-mixed near-zero +/-E pairs are replaced by their
    end-localized rotations; eigenvalues are reported unrotated.
    """
    diags, offs = chain_bands(theta1, theta2, p)
    vals, vecs = _eigensystems(
        diags.reshape(np.shape(theta2) + diags.shape[-1:]),
        offs.reshape(np.shape(theta1) + offs.shape[-1:]),
        PAIR_WINDOW * p.J,
    )
    return vals, vecs, _labels(vecs[..., END_ROWS, :])


def _distinct_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of a float64 band array (m, n) and the inverse index
    that rebuilds it, keyed on their bits, so 0.0 and -0.0 stay apart."""
    _, first, inverse = np.unique(
        a.view(np.uint64), axis=0, return_index=True, return_inverse=True
    )
    return a[first], inverse


def edge_spectrum(theta1_grid, theta2_grid, p: ModelParams):
    """Open-chain spectrum with localization labels over a surface grid.

    Returns (energies, labels), both of shape (T1, T2, n): entry [i, j]
    is the ascending spectrum of diagonalize_chain at (theta1_grid[i],
    theta2_grid[j]) and its labels, bit for bit, so theta2 runs fastest
    in C order.  A chain depends on its angles only through their
    cosines, so chain_bands' rows repeat; each distinct chain (distinct
    off-diagonal row times distinct diagonal row) is solved once, giving
    the same bits, and only the four END_ROWS of its vectors are kept.
    """
    if p.N < 2:
        raise ValueError("edge spectrum needs at least two unit cells")
    diags, offs = chain_bands(theta1_grid, theta2_grid, p)
    diags, col = _distinct_rows(diags)
    offs, row = _distinct_rows(offs)
    energies = np.empty((len(offs), len(diags), p.sites))
    ends = np.empty((len(offs), len(diags), 4, p.sites))
    for i, off in enumerate(offs):
        energies[i], vecs = _eigensystems(diags, off, PAIR_WINDOW * p.J)
        ends[i] = vecs[:, END_ROWS]
    every = np.ix_(row, col)
    return energies[every], _labels(ends)[every]


def arc_membership(
    theta2: float, theta1_grid, ztol: float, p: ModelParams
) -> np.ndarray:
    """Per-grid-point arc membership from direct diagonalization.

    True where some state of the edge_spectrum sheet at (theta1, theta2)
    has |E| < ztol * J and is labeled Left or Right.  A single-cell chain
    has no distinct end cells, so no point of it is a member.
    """
    grid = np.asarray(theta1_grid, dtype=float)
    if p.N < 2:
        return np.zeros(grid.shape, dtype=bool)
    energies, labels = edge_spectrum(grid, [theta2], p)
    return ((np.abs(energies) < ztol * p.J) & (labels != "Bulk")).any(axis=-1)[:, 0]


def max_symmetric_interval(theta1_grid, ok) -> ArcInterval:
    """Largest interval [-t, t] whose grid points all satisfy `ok`.

    Endpoints are reported at grid resolution; an all-false grid (or a
    disqualified center) gives an empty-arc result.
    """
    grid = np.asarray(theta1_grid, dtype=float)
    order = np.argsort(grid)
    grid, ok = grid[order], np.asarray(ok, dtype=bool)[order]
    eps = 1e-9
    best = None
    for t in grid[grid >= -eps]:
        if not np.any(np.abs(grid + t) < eps):
            continue
        if ok[np.abs(grid) <= t + eps].all():
            best = float(t)
    if best is None:
        return ArcInterval(np.nan, np.nan, empty=True)
    return ArcInterval(-best, best)


def arc_interval_oracle(
    theta2: float,
    theta1_grid,
    p: ModelParams,
    ztol: float = ZTOL_DEFAULT,
) -> ArcInterval:
    """Maximal symmetric theta1 interval carrying an edge-localized
    near-zero state, from direct diagonalization.

    A grid point qualifies per arc_membership; the returned endpoints
    are the extremes of the largest all-qualifying interval [-t, t],
    at grid resolution.
    """
    if ztol <= 0:
        raise ValueError("ztol must be positive")
    return max_symmetric_interval(
        theta1_grid, arc_membership(theta2, theta1_grid, ztol, p)
    )
