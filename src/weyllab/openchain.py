"""Open-boundary diagonalization of the resonator chain.

Edge-state sheets over the (theta1, theta2) surface zone, in their
distinct chains, per-state localization labels, site-density profiles,
and the oracle for the zero-energy arc endpoint that spectroscopy must
reproduce, which labels the near-zero states from single eigenvectors
by LAPACK bisection and inverse iteration, diagonalizing no chain.

At theta2 = +/-pi/2 the chain is mirror symmetric, so near-zero
eigenvectors come out of the solver as even/odd combinations with
equal weight on both ends.  Labeling is made basis-stable by rotating
each such +/-E pair to the combination that maximizes end-site weight
before classifying (the physical left/right quasi-modes); the pairs of
every chain of a stack are rotated together, as array operations.

A label reads only the two end cells of a vector, so one vectorised
rule (_labels) labels a single vector, one chain, or a whole sheet.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, chain_bands
from .numerics import eigh_bands, select_eigenvectors, sturm_count

__all__ = [
    "edge_spectrum",
    "density_profile",
    "arc_membership",
    "max_symmetric_interval",
    "diagonalize_chain",
]

# Most eigenvector entries that one group of edge_spectrum holds at once
# (1 MB).
BLOCK_ENTRIES = 2**17
# Zero-energy tolerance of arc detection and its oracle, in units of J.
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


def density_profile(v: np.ndarray) -> np.ndarray:
    """Site densities |v|^2 (..., sites) of normalized vectors v (...,
    sites), one vector per last-axis row.  A row whose densities do not
    sum to 1 within 1e-10 raises ValueError."""
    d = np.abs(np.asarray(v)) ** 2
    if np.any(np.abs(d.sum(axis=-1) - 1.0) > 1e-10):
        raise ValueError("densities must sum to 1")
    return d


def _eigensystems(diags, offs, window: float):
    """Eigenvalues (..., n) and labeling-ready vectors (..., n, n) of the
    chains with bands diags (..., n) and offs (..., n - 1), which broadcast.

    One stacked eigh_bands, then one stacked rotation of every +/-E pair
    inside the window.  A chain's in-window eigenvalues, ascending, are
    one run lo, ..., lo + count - 1; pair a is (lo + a, lo + count - 1 - a),
    the +/-E partners of the chiral-symmetric chain.  Each pair's span is
    rotated to the eigenvectors of the (first-cell minus last-cell)
    projector restricted to it, the left-leaning one first, so the labels
    do not depend on the arbitrary basis the solver picked.
    """
    vals, vecs = eigh_bands(diags, offs)
    n = vals.shape[-1]
    # Rotated in place; returned reshaped in case the reshape copied.
    flat = vecs.reshape(-1, n, n)
    inside = np.abs(vals.reshape(-1, n)) < window
    lo, count = np.argmax(inside, axis=-1), np.count_nonzero(inside, axis=-1)
    chain, a = np.nonzero(np.arange(n // 2) < count[:, None] // 2)
    i, j = lo[chain] + a, (lo + count - 1)[chain] - a
    d = np.zeros(n)
    d[:2] = 1.0
    d[-2:] -= 1.0
    v = np.stack([flat[chain, :, i], flat[chain, :, j]], axis=-1)
    out = v @ np.linalg.eigh(v.swapaxes(-1, -2) @ (d[:, None] * v))[1]
    first, last = _end_weights(out[:, END_ROWS])
    swap = ~(first[:, 0] - last[:, 0] >= first[:, 1] - last[:, 1])
    out[swap] = out[swap, :, ::-1]
    flat[chain, :, i], flat[chain, :, j] = out[..., 0], out[..., 1]
    return vals, flat.reshape(vecs.shape)


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
    """Distinct rows of a float64 band array (m, n), in the order they
    first occur, and the inverse index that rebuilds it, keyed on their
    bytes, so 0.0 and -0.0 stay apart.  A dict of the rows' bytes finds
    them in a fraction of the time np.unique(axis=0) takes to sort them."""
    index, first, inverse = {}, [], []
    for i, row in enumerate(a):
        key = row.tobytes()
        if key not in index:
            index[key] = len(first)
            first.append(i)
        inverse.append(index[key])
    return a[first], np.array(inverse, dtype=np.intp)


def edge_spectrum(theta1_grid, theta2_grid, p: ModelParams):
    """Open-chain spectrum with localization labels over a surface grid,
    in its distinct chains.

    Returns (energies, labels, row, col): energies and labels of shape
    (R, C, n), one entry per distinct off-diagonal row (R of them) times
    distinct diagonal row (C), and the index arrays row (T1,) and col
    (T2,) that map each grid angle to its distinct row.  Scattered
    through np.ix_(row, col), entry [i, j] is the ascending spectrum of
    diagonalize_chain at (theta1_grid[i], theta2_grid[j]) and its labels,
    bit for bit.  A chain depends on its angles only through their
    cosines, so chain_bands' rows repeat; each distinct chain is solved
    once and only the labels its four END_ROWS give are kept.  One stacked
    _eigensystems call takes every distinct off-diagonal row against a
    group of whole distinct diagonal rows, as many as fit BLOCK_ENTRIES
    vector entries (one at least), so its eigh_bands stack is large
    enough to split over the CPUs (numerics module docstring); each
    group is labeled before the next is solved.
    """
    if p.N < 2:
        raise ValueError("edge spectrum needs at least two unit cells")
    diags, offs = chain_bands(theta1_grid, theta2_grid, p)
    diags, col = _distinct_rows(diags)
    offs, row = _distinct_rows(offs)
    energies = np.empty((len(offs), len(diags), p.sites))
    labels = np.empty(energies.shape, dtype=object)
    group = max(1, BLOCK_ENTRIES // (len(offs) * p.sites**2))
    for k in range(0, len(diags), group):
        cols = slice(k, k + group)
        energies[:, cols], vecs = _eigensystems(diags[cols], offs[:, None], PAIR_WINDOW * p.J)
        labels[:, cols] = _labels(vecs[..., END_ROWS, :])
    return energies, labels, row, col


def _sublattice_labels(offs: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Labels of the mirror-rotated +/-E pair of singular triplet number
    index (T,) (0 the smallest) of each chain with couplings offs
    (T, n - 1), shape (2, T): the (u, 0) states first, then the (0, v)
    states.

    The chain is chiral: with J1 = offs[0::2] and J2 = offs[1::2], its
    A-site (a_k) and B-site (b_k) amplitudes couple through the N x N
    bidiagonal B with J1 on the diagonal and J2 below it (Golub and Kahan
    1965), and its diagonal is +m on A and -m on B.  A singular triplet
    (s, u, v) of B spans the pair at +/-sqrt(m^2 + s^2), and the pair
    rotation of _eigensystems, whose projector does not couple the two
    sublattices, returns (u, 0) and (0, v) exactly: eigenvector number
    index of the tridiagonals B B^T and B^T B, which have no +/- pairs of
    eigenvalues to resolve.  The couplings are first divided by the power
    of two above their largest.
    """
    k = -np.frexp(np.abs(offs).max(axis=-1))[1]
    j = np.ldexp(offs, k[:, None])
    j1, j2 = j[:, 0::2], j[:, 1::2]
    bbt, btb = j1**2, j1**2  # the diagonals of B B^T and B^T B
    bbt[:, 1:] += j2**2
    btb[:, :-1] += j2**2
    u = select_eigenvectors(bbt, j1[:, :-1] * j2, index)
    v = select_eigenvectors(btb, j2 * j1[:, 1:], index)
    ends = np.zeros((2, 4, len(offs)))  # END_ROWS a_0, b_0, a_{N-1}, b_{N-1}
    ends[0, 0::2], ends[1, 1::2] = u[:, [0, -1]].T, v[:, [0, -1]].T
    return _labels(ends)


def _arc_verdicts(diags: np.ndarray, offs: np.ndarray, window: float) -> np.ndarray:
    """Arc membership (m,) of the chains with bands diags (m, n) and offs
    (m, n - 1), n >= 4: True where some state has |E| < window and is
    labeled Left or Right, as diagonalize_chain labels it.

    Sturm counts at +/-window give each chain's number of states in the
    window, so a chain with none is outside; the others' states come in
    +/-E pairs, one per singular triplet of the chain's bidiagonal,
    labeled by _sublattice_labels.  O(n) per chain, with no n x n array.
    """
    below = sturm_count(diags, offs, [[window], [-window]])
    pairs = (below[0] - below[1] + 1) // 2
    chain, index = np.nonzero(np.arange(diags.shape[-1] // 2) < pairs[:, None])
    inside = np.zeros(len(diags), dtype=bool)
    if chain.size:
        edge = (_sublattice_labels(offs[chain], index) != "Bulk").any(axis=0)
        inside[chain[edge]] = True
    return inside


def arc_membership(theta2, theta1_grid, p: ModelParams) -> np.ndarray:
    """Per-grid-point arc membership of the open chain.

    theta2 is one angle or one per grid point.  True where some state of
    the chain at (theta1, theta2) has |E| < ZTOL_DEFAULT * J and is
    labeled Left or Right, as diagonalize_chain labels it.  Each distinct
    (theta1, theta2) chain is settled once, by _arc_verdicts, and its
    verdict scattered to every grid point of that chain.  A single-cell
    chain has no distinct end cells, so no point of it is a member.
    """
    grid, theta2 = np.broadcast_arrays(np.asarray(theta1_grid, dtype=float), theta2)
    if p.N < 2:
        return np.zeros(grid.shape, dtype=bool)
    bands, inverse = _distinct_rows(np.concatenate(chain_bands(grid, theta2, p), axis=-1))
    inside = _arc_verdicts(bands[:, : p.sites], bands[:, p.sites :], ZTOL_DEFAULT * p.J)
    return inside[inverse].reshape(grid.shape)


def max_symmetric_interval(theta1_grid, ok) -> float:
    """Endpoint t of the largest interval [-t, t] whose grid points all
    satisfy `ok`, at grid resolution.

    An all-false grid (or a disqualified center) has no arc and gives
    NaN.
    """
    grid = np.asarray(theta1_grid, dtype=float)
    order = np.argsort(grid)
    grid, ok = grid[order], np.asarray(ok, dtype=bool)[order]
    eps = 1e-9
    t = grid[grid >= -eps]
    # A candidate t needs a grid point within eps of -t (the nearest are
    # the two that enclose -t) and no failing point with |theta1| <= t +
    # eps; the largest such t is the endpoint.
    i = np.searchsorted(grid, -t)
    mirror = grid[np.stack([np.maximum(i - 1, 0), np.minimum(i, grid.size - 1)])]
    good = (np.abs(mirror + t) < eps).any(axis=0)
    good &= t + eps < np.abs(grid[~ok]).min(initial=np.inf)
    return float(t[good][-1]) if good.any() else np.nan
