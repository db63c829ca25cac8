import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from weyllab import numerics, openchain
from weyllab.cli import main
from weyllab.config import DEFAULTS
from weyllab.model import ModelParams, chain_bands
from weyllab.openchain import (
    EDGE_WEIGHT_MIN,
    END_ROWS,
    PAIR_WINDOW,
    ZTOL_DEFAULT,
    _distinct_rows,
    _eigensystems,
    _end_weights,
    _labels,
    arc_membership,
    density_profile,
    diagonalize_chain,
    edge_spectrum,
    max_symmetric_interval,
)
from weyllab.spectroscopy import detect_arc_endpoint, symmetric_grid

ARC_GRID = np.arange(-50, 51) * 0.01 * np.pi

# Paper-reported arc endpoints by resonator count, and the values this
# oracle actually produces on a 0.01 pi grid with ztol = 0.02 J (all
# within the 0.02 pi acceptance tolerance of the reported ones).
TABLE1_REPORTED = {4: 0.20, 6: 0.30, 8: 0.35, 12: 0.40, 20: 0.45, 36: 0.48}
TABLE1_ORACLE = {4: 0.20, 6: 0.28, 8: 0.34, 12: 0.39, 20: 0.44, 36: 0.47}


def arc_oracle(p: ModelParams) -> float:
    """The arc oracle's endpoint on ARC_GRID at theta2 =
    pi/2, as detect_arc_endpoint reports it in .oracle_theta1c."""
    return max_symmetric_interval(ARC_GRID, arc_membership(np.pi / 2, ARC_GRID, p))


def dense_membership(theta2, theta1_grid, p: ModelParams) -> np.ndarray:
    """arc_membership by diagonalization, its reference: True where some
    state has |E| < ZTOL_DEFAULT J and edge_spectrum labels it Left or
    Right.  One sheet for one theta2, one chain per point otherwise."""
    grid = np.asarray(theta1_grid, dtype=float)
    if np.ndim(theta2):
        return np.array([dense_membership(t2, [t1], p)[0] for t1, t2 in zip(grid, theta2)])
    energies, labels, row, col = edge_spectrum(grid, [theta2], p)
    inside = ((np.abs(energies) < ZTOL_DEFAULT * p.J) & (labels != "Bulk")).any(axis=-1)
    return inside[row, col[0]]


def scattered_sheet(theta1s, theta2s, p: ModelParams):
    """edge_spectrum's (T1, T2, n) energies and labels: its distinct
    chains scattered through np.ix_(row, col)."""
    energies, labels, row, col = edge_spectrum(theta1s, theta2s, p)
    every = np.ix_(row, col)
    return energies[every], labels[every]


def chain(sites: int, **kw) -> ModelParams:
    return ModelParams(N=sites // 2, **kw)


def classify_localization(v) -> str:
    """The label _labels gives one normalized vector."""
    return str(_labels(np.asarray(v, dtype=float)[END_ROWS, None])[0])


def rotated_pairs_reference(vals, vecs, window):
    """One chain's vectors with each +/-E pair inside the window rotated
    to its end-localized combinations, one pair at a time: the i-th
    smallest in-window eigenvalue pairs with the i-th largest."""
    vecs = vecs.copy()
    inside = np.flatnonzero(np.abs(vals) < window)
    d = np.zeros(vals.size)
    d[:2] = 1.0
    d[-2:] -= 1.0
    for a in range(inside.size // 2):
        i, j = inside[a], inside[-1 - a]
        v = np.column_stack([vecs[:, i], vecs[:, j]])
        out = v @ np.linalg.eigh(v.T @ (d[:, None] * v))[1]
        first, last = _end_weights(out[END_ROWS])
        if not first[0] - last[0] >= first[1] - last[1]:
            out = out[:, ::-1]
        vecs[:, i], vecs[:, j] = out[:, 0], out[:, 1]
    return vecs


class TestClassifyLocalization:
    def test_decoupled_end_state(self):
        v = np.zeros(8)
        v[0] = 1.0
        assert classify_localization(v) == "Left"

    def test_uniform_is_bulk(self):
        n = 16
        assert classify_localization(np.full(n, 1 / np.sqrt(n))) == "Bulk"

    def test_mirror_reversal_swaps_label(self, rng):
        v = rng.normal(size=12)
        v[0] = 4.0
        v /= np.linalg.norm(v)
        label = classify_localization(v)
        assert label == "Left"
        assert classify_localization(v[::-1]) == "Right"

    def test_tie_is_bulk(self):
        v = np.zeros(8)
        v[0] = v[-1] = 1 / np.sqrt(2)
        assert classify_localization(v) == "Bulk"

    def test_weights_match_scalar_squares(self, rng):
        # About one square in a thousand rounds differently under an
        # exact multiply than under the scalar v ** 2.
        ends = rng.normal(size=(4, 5000))
        first, last = _end_weights(ends)
        for k, v in enumerate(ends.T):
            assert first[k] == v[0] ** 2 + v[1] ** 2
            assert last[k] == v[2] ** 2 + v[3] ** 2

    def test_mirror_tie_follows_scalar_rule(self):
        # At theta2 = -pi/2 the first- and last-cell weights of some states
        # agree to the last bit, so their labels depend on how the squares
        # round; they must be those of the scalar v ** 2 rule.
        def scalar_label(v):
            first, last = v[0] ** 2 + v[1] ** 2, v[-2] ** 2 + v[-1] ** 2
            if first > EDGE_WEIGHT_MIN and first > last:
                return "Left"
            if last > EDGE_WEIGHT_MIN and last > first:
                return "Right"
            return "Bulk"

        _, vecs, labels = diagonalize_chain(-2.553637113442417, -np.pi / 2, chain(6))
        assert labels.tolist() == [scalar_label(v) for v in vecs.T]


class TestDensityProfile:
    def test_basis_vector(self):
        v = np.zeros(6)
        v[0] = 1.0
        assert density_profile(v) == pytest.approx(
            [1, 0, 0, 0, 0, 0]
        )

    def test_normalization(self, rng):
        v = rng.normal(size=10) + 1j * rng.normal(size=10)
        v /= np.linalg.norm(v)
        assert density_profile(v).sum() == pytest.approx(1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            density_profile(np.ones(4))

    def test_stacked_vectors(self, rng):
        v = rng.normal(size=(2, 3, 5))
        v /= np.linalg.norm(v, axis=-1, keepdims=True)
        got = density_profile(v)
        assert got.shape == (2, 3, 5)
        for k in np.ndindex(2, 3):
            assert np.array_equal(got[k], density_profile(v[k]))

    def test_checks_every_stacked_vector(self):
        v = np.eye(4)
        v[2] *= 2.0
        with pytest.raises(ValueError):
            density_profile(v)


class TestEdgeSpectrum:
    def test_two_zero_modes_at_arc_center(self):
        # 20-resonator chain: exactly two eigenvalues inside 0.02 J of
        # zero, one on each edge.
        vals, _, labels = diagonalize_chain(0.0, np.pi / 2, chain(20))
        near = np.abs(vals) < 0.02
        assert near.sum() == 2
        assert sorted(labels[i] for i in np.nonzero(near)[0]) == ["Left", "Right"]

    def test_gapped_line_theta2_zero(self):
        vals, _, labels = diagonalize_chain(0.0, 0.0, chain(20))
        hits = [
            i
            for i in range(vals.size)
            if abs(vals[i]) < 0.5 and labels[i] in ("Left", "Right")
        ]
        assert hits == []

    def test_decoupled_site_eigenpair(self):
        p = chain(16)
        theta2 = 0.9
        vals, vecs, labels = diagonalize_chain(0.0, theta2, p)
        target = p.Je * np.cos(theta2)
        i = int(np.argmin(np.abs(vals - target)))
        assert vals[i] == pytest.approx(target, abs=1e-12)
        assert abs(vecs[0, i]) == pytest.approx(1.0, abs=1e-10)
        assert labels[i] == "Left"

    @given(st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
    @settings(max_examples=25)
    def test_even_in_theta1(self, theta1, theta2):
        p = chain(12)
        a, _, _ = diagonalize_chain(theta1, theta2, p)
        b, _, _ = diagonalize_chain(-theta1, theta2, p)
        assert a == pytest.approx(b, abs=1e-10)

    def test_grid_ordering(self):
        energies, labels = scattered_sheet([0.0, 0.3], [0.1, 0.2], chain(8))
        assert energies.shape == labels.shape == (2, 2, 8)
        # C order runs theta2 fastest: flat point k is the k-th pair below.
        points = [(0.0, 0.1), (0.0, 0.2), (0.3, 0.1), (0.3, 0.2)]
        for got, (theta1, theta2) in zip(energies.reshape(-1, 8), points):
            want = diagonalize_chain(theta1, theta2, chain(8))[0]
            assert got.tobytes() == want.tobytes()

    @given(
        st.integers(2, 12),
        st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4),
        st.lists(
            st.one_of(
                st.sampled_from([np.pi / 2, -np.pi / 2]), st.floats(-np.pi, np.pi)
            ),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=60)
    def test_sheet_equals_per_point_chain(self, cells, theta1s, theta2s):
        # Includes the mirror-symmetric rows theta2 = +/-pi/2, where the
        # +/-E pairs are rotated and end-cell weights tie to the last bit.
        p = chain(2 * cells)
        energies, labels = scattered_sheet(theta1s, theta2s, p)
        for i, theta1 in enumerate(theta1s):
            for j, theta2 in enumerate(theta2s):
                vals, _, want = diagonalize_chain(theta1, theta2, p)
                assert energies[i, j].tobytes() == vals.tobytes()
                assert labels[i, j].tolist() == want.tolist()

    def test_sheet_on_the_cli_grid(self):
        grid = np.linspace(-np.pi, np.pi, 21)
        energies, labels = scattered_sheet(grid, grid, chain(10))
        for i, j in np.ndindex(grid.size, grid.size):
            vals, _, want = diagonalize_chain(float(grid[i]), float(grid[j]), chain(10))
            assert energies[i, j].tobytes() == vals.tobytes()
            assert labels[i, j].tolist() == want.tolist()

    @pytest.mark.parametrize(
        "theta1,theta2",
        [(0.3, np.pi / 2), (ARC_GRID[::10], np.pi / 2), (0.2, [-np.pi / 2, 0.4]),
         ([[0.0], [0.7]], [np.pi / 2, -np.pi / 2, 1.1])],
    )
    def test_stacked_chains_equal_single_chains(self, theta1, theta2):
        # Broadcast angles, the 0-d case included, give the single chains
        # bit for bit.
        p = chain(10)
        vals, vecs, labels = diagonalize_chain(theta1, theta2, p)
        shape = np.broadcast_shapes(np.shape(theta1), np.shape(theta2))
        assert vals.shape == labels.shape == shape + (10,)
        assert vecs.shape == shape + (10, 10)
        t1s, t2s = np.broadcast_arrays(theta1, theta2)
        for k in np.ndindex(shape):
            one = diagonalize_chain(float(t1s[k]), float(t2s[k]), p)
            assert vals[k].tobytes() == one[0].tobytes()
            assert vecs[k].tobytes() == one[1].tobytes()
            assert labels[k].tolist() == one[2].tolist()

    @staticmethod
    def assert_stack_is_per_chain(sites, theta1s, theta2s):
        # Every chain of one stacked _eigensystems call gets the bits of
        # a call on that chain alone, and of the per-pair rotation rule.
        p = chain(sites)
        window = PAIR_WINDOW * p.J
        diags, offs = chain_bands(theta1s, theta2s, p)
        vals, vecs = _eigensystems(diags[:, None], offs, window)
        assert vecs.shape == (len(diags), len(offs), sites, sites)
        rotated = 0
        for j, i in np.ndindex(vals.shape[:-1]):
            one = _eigensystems(diags[j], offs[i], window)
            assert vals[j, i].tobytes() == one[0].tobytes()
            assert vecs[j, i].tobytes() == one[1].tobytes()
            plain = numerics.eigh_bands(diags[j], offs[i])
            ref = rotated_pairs_reference(*plain, window)
            assert vecs[j, i].tobytes() == ref.tobytes()
            rotated += ref.tobytes() != plain[1].tobytes()
        return rotated

    @pytest.mark.parametrize("sites", [4, 12, 36])
    def test_stacked_rotation_is_per_chain(self, sites):
        # theta2 = +/-pi/2 has mirror pairs; pi/2 + 0.05 still has pairs
        # in the window, and 1.0 has none.
        theta2s = [np.pi / 2, -np.pi / 2, np.pi / 2 + 0.05, 1.0]
        assert self.assert_stack_is_per_chain(sites, ARC_GRID[::5], theta2s) > 0

    @given(
        st.integers(2, 18),
        st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=4),
        st.lists(
            st.one_of(
                st.sampled_from([np.pi / 2, -np.pi / 2]), st.floats(-np.pi, np.pi)
            ),
            min_size=1,
            max_size=3,
        ),
    )
    @settings(max_examples=30)
    def test_stacked_rotation_is_per_chain_anywhere(self, cells, theta1s, theta2s):
        self.assert_stack_is_per_chain(2 * cells, theta1s, theta2s)

    def test_needs_two_cells(self):
        with pytest.raises(ValueError):
            edge_spectrum([0.0], [0.0], ModelParams(N=1))

    @pytest.mark.parametrize(
        "theta1s,theta2s",
        [(np.linspace(-np.pi, np.pi, 21),) * 2, (ARC_GRID, [np.pi / 2]),
         ([0.3, -0.3, 0.3], [0.0, -0.0, np.pi / 2, -np.pi / 2])],
    )
    def test_one_solve_per_distinct_chain(self, monkeypatch, theta1s, theta2s):
        p = chain(8)
        chains, solve = [], numerics.dstev

        def counted(d, e, z):
            chains.extend(zip(map(bytes, d), map(bytes, e)))
            return solve(d, e, z)

        monkeypatch.setattr(numerics, "dstev", counted)
        energies, _ = scattered_sheet(theta1s, theta2s, p)
        diags, offs = chain_bands(theta1s, theta2s, p)
        distinct_diags = {row.tobytes() for row in diags}
        distinct_offs = {row.tobytes() for row in offs}
        assert len(chains) == len(set(chains))
        assert len(chains) == len(distinct_diags) * len(distinct_offs)
        assert energies.shape == (len(theta1s), len(theta2s), p.sites)

    @pytest.mark.parametrize(
        "sites,points,budget,calls",
        # 6 x 6 distinct chains in column groups of 4 and 2; 55 x 55 in
        # groups of 12 (the default budget at 14 sites), the last one of 7.
        [(8, 7, 4 * 6 * 64, 2), (14, 81, openchain.BLOCK_ENTRIES, 5)],
    )
    def test_ragged_column_groups_give_the_per_column_sheet(
        self, monkeypatch, sites, points, budget, calls
    ):
        grid = np.linspace(-np.pi, np.pi, points)
        solves, solve = [], openchain._eigensystems

        def counted(diags, offs, window):
            solves.append(diags.shape)
            return solve(diags, offs, window)

        monkeypatch.setattr(openchain, "_eigensystems", counted)
        monkeypatch.setattr(openchain, "BLOCK_ENTRIES", 1)
        per_column = edge_spectrum(grid, grid, chain(sites))
        columns = per_column[0].shape[1]
        assert solves == [(1, sites)] * columns
        solves.clear()
        monkeypatch.setattr(openchain, "BLOCK_ENTRIES", budget)
        grouped = edge_spectrum(grid, grid, chain(sites))
        assert len(solves) == calls and solves[-1][0] < solves[0][0]
        assert sum(shape[0] for shape in solves) == columns
        assert grouped[0].tobytes() == per_column[0].tobytes()
        assert grouped[1].tolist() == per_column[1].tolist()
        for a, b in zip(grouped[2:], per_column[2:]):
            assert a.tobytes() == b.tobytes()

    def test_symmetric_arc_grid_has_51_distinct_chains(self):
        _, offs = chain_bands(ARC_GRID, np.pi / 2, chain(8))
        assert len(_distinct_rows(offs)[0]) == 51

    def test_grid81_sheet_has_55_by_55_distinct_chains(self):
        grid = np.linspace(-np.pi, np.pi, 81)
        energies, labels, row, col = edge_spectrum(grid, grid, chain(6))
        assert energies.shape == labels.shape == (55, 55, 6)
        assert row.shape == col.shape == (81,)

    @given(
        st.integers(2, 8),
        *[st.lists(st.one_of(st.sampled_from([0.0, -0.0, np.pi / 2, -np.pi / 2]),
                             st.floats(-np.pi, np.pi)), min_size=1, max_size=4)] * 2,
    )
    @settings(max_examples=40)
    def test_sheet_is_the_distinct_form_scattered(self, cells, theta1s, theta2s):
        # Mirrored angles repeat chains, so the distinct form is smaller;
        # scattered, it is the stacked solve of every grid point.
        theta1s, theta2s = theta1s + [-t for t in theta1s], theta2s + [-t for t in theta2s]
        p = chain(2 * cells)
        distinct, distinct_labels, row, col = edge_spectrum(theta1s, theta2s, p)
        energies, _, labels = diagonalize_chain(
            np.array(theta1s)[:, None], np.array(theta2s)[None, :], p
        )
        every = np.ix_(row, col)
        assert energies.tobytes() == distinct[every].tobytes()
        assert labels.tolist() == distinct_labels[every].tolist()
        diags, offs = chain_bands(theta1s, theta2s, p)
        assert distinct.shape == (
            len({r.tobytes() for r in offs}), len({r.tobytes() for r in diags}), p.sites
        )

    @pytest.mark.parametrize("points", [21, 41, 81])
    def test_sheet_is_even_where_cosines_match(self, points):
        # linspace(-pi, pi) is not exactly symmetric, but wherever the
        # mirror points' cosines agree bit for bit their chains are one.
        grid = np.linspace(-np.pi, np.pi, points)
        energies, labels = scattered_sheet(grid, grid, chain(6))
        cos = [math.cos(t) for t in grid]
        mirror = [k for k in range(points) if cos[k] == cos[-1 - k]]
        assert len(mirror) > points // 2
        for k in mirror:
            for a, b in ((energies[k], energies[-1 - k]),
                         (energies[:, k], energies[:, -1 - k])):
                assert a.tobytes() == b.tobytes()
            assert labels[k].tolist() == labels[-1 - k].tolist()
            assert labels[:, k].tolist() == labels[:, -1 - k].tolist()

    def test_distinct_rows_keep_signed_zeros_apart(self):
        a = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [-0.0, 1.0], [2.0, 1.0]])
        rows, inverse = _distinct_rows(a)
        assert len(rows) == 3
        assert rows[inverse].tobytes() == a.tobytes()
        assert inverse[0] == inverse[2] != inverse[1] == inverse[3]

    def test_penetration_grows_toward_projection(self):
        # The arc-center edge state sits entirely on the first cell; at
        # theta1 = 0.45 pi it has leaked most of its weight inward.
        p = chain(20)

        def left_first_cell_weight(theta1):
            vals, vecs, labels = diagonalize_chain(theta1, np.pi / 2, p)
            idx = [
                i
                for i in range(vals.size)
                if labels[i] == "Left" and abs(vals[i]) < 0.1
            ]
            d = density_profile(vecs[:, idx[0]])
            return d[0] + d[1]

        w_center = left_first_cell_weight(0.0)
        w_edge = left_first_cell_weight(0.45 * np.pi)
        assert w_center == pytest.approx(1.0, abs=1e-10)
        assert w_edge == pytest.approx(0.473851, abs=1e-4)
        assert w_center > w_edge

    def test_chiral_pairing_of_zero_modes(self):
        # At theta2 = pi/2 the spectrum is symmetric and the rotated
        # near-zero pair is one Left and one Right state.
        for theta1 in (0.1 * np.pi, 0.3 * np.pi):
            vals, _, labels = diagonalize_chain(theta1, np.pi / 2, chain(12))
            assert vals == pytest.approx(-vals[::-1], abs=1e-10)
            near = [i for i in range(vals.size) if abs(vals[i]) < 0.02]
            assert sorted(labels[i] for i in near) == ["Left", "Right"]


class TestArcIntervalOracle:
    @pytest.mark.parametrize("sites", sorted(TABLE1_REPORTED))
    def test_table_endpoints(self, sites):
        arc = arc_oracle(chain(sites))
        got = arc / np.pi
        assert got == pytest.approx(TABLE1_ORACLE[sites], abs=1e-9)
        assert abs(got - TABLE1_REPORTED[sites]) <= 0.02 + 1e-9
        # The arc's other end, -arc, is a grid point too.
        assert np.abs(ARC_GRID + arc).min() < 1e-9

    def test_endpoints_nondecreasing_in_size(self):
        ends = [arc_oracle(chain(s)) for s in sorted(TABLE1_REPORTED)]
        assert all(b >= a - 1e-12 for a, b in zip(ends, ends[1:]))

    def test_splitting_decays_with_size(self):
        es = {}
        for sites in (4, 12):
            vals, _, _ = diagonalize_chain(0.1 * np.pi, np.pi / 2, chain(sites))
            es[sites] = np.abs(vals).min()
        assert es[12] < es[4]
        vals4, _, _ = diagonalize_chain(0.0, np.pi / 2, chain(4))
        vals12, _, _ = diagonalize_chain(0.0, np.pi / 2, chain(12))
        assert np.abs(vals12).min() <= np.abs(vals4).min() + 1e-14

    def test_trivial_chain_is_empty(self):
        # A single cell has no distinct end cells, so nothing is ever
        # labeled Left or Right.
        assert math.isnan(arc_oracle(ModelParams(N=1)))


class TestArcMembershipIsTheDenseVerdict:
    """arc_membership against dense_membership at every grid point, with
    theta2 = pi/2, theta2 uniform per point, and theta2 per point within
    about 0.01 of +/-pi/2, where |Je cos theta2| crosses the window.
    ARC_GRID holds theta1 = 0, where J1 = 0 and B is singular."""

    @staticmethod
    def angles(rng, size):
        return [
            np.pi / 2,
            rng.uniform(-np.pi, np.pi, size),
            rng.choice([-1.0, 1.0], size) * (np.pi / 2 + rng.normal(0.0, 0.01, size)),
        ]

    @pytest.mark.parametrize("sites", [*range(4, 41, 2), 100])
    @pytest.mark.parametrize("je", [0.5, 1.0, 2.0])
    def test_every_grid_point(self, sites, je):
        p = chain(sites, Je=je)
        for theta2 in self.angles(np.random.default_rng(sites), ARC_GRID.size):
            got = arc_membership(theta2, ARC_GRID, p)
            assert got.tolist() == dense_membership(theta2, ARC_GRID, p).tolist()

    @given(
        st.integers(2, 15),
        st.floats(0.1, 10.0),
        st.floats(0.01, 5.0),
        st.lists(st.tuples(st.floats(-np.pi, np.pi), st.floats(-0.05, 0.05)), min_size=1, max_size=12),
    )
    def test_random_chains(self, cells, j, je, points):
        p = ModelParams(N=cells, J=j, Je=je)
        theta1, offset = np.array(points).T
        theta2 = np.pi / 2 + offset
        assert arc_membership(theta2, theta1, p).tolist() == dense_membership(theta2, theta1, p).tolist()

    @pytest.mark.parametrize(
        "scales", [{"J": 1e-307, "Je": 1e-307}, {"J": 1e200, "Je": 1e200}, {"J": 1e-200}, {"Je": 1e-15}]
    )
    def test_every_grid_point_at_extreme_scales(self, scales):
        # Bands near the ends of the float range, and hoppings and on-site
        # terms far apart, where only the power-of-two scaling keeps the
        # squared couplings in range.
        p = chain(12, **scales)
        for theta2 in self.angles(np.random.default_rng(12), ARC_GRID.size):
            got = arc_membership(theta2, ARC_GRID, p)
            assert got.tolist() == dense_membership(theta2, ARC_GRID, p).tolist()

    @pytest.mark.parametrize("je", [0.5, 1.0, 2.0])
    def test_every_point_of_coarse_grids_at_400_sites(self, je):
        # ARC_GRID at 5 and 10 times its step keeps 0 and +/-pi/2; the
        # dense reference takes about 0.1 s per chain here.
        p = chain(400, Je=je)
        grid = ARC_GRID[::5]
        got = arc_membership(np.pi / 2, grid, p)
        assert got.tolist() == dense_membership(np.pi / 2, grid, p).tolist()
        grid = ARC_GRID[::10]
        theta2 = self.angles(np.random.default_rng(400), grid.size)[2]
        assert arc_membership(theta2, grid, p).tolist() == dense_membership(theta2, grid, p).tolist()


def _ssh_edge_energy(v: float, w: float, cells: int) -> float:
    """Closed-form edge-pair energy of an SSH chain of `cells` cells with
    intra-cell hopping v and inter-cell hopping w, for cells w > (cells
    + 1) v (Asboth, Oroszlany and Palyi, Lect. Notes Phys. 919, ch. 1).

    The open-chain condition v sin((N+1)k) + w sin(Nk) = 0 at
    k = pi + iq reads v sinh((N+1)q) = w sinh(Nq); its root q > 0 is
    bracketed by (0, ln(w/v) + 2] and found by bisection.  Every sinh is
    written as e^(kq) (1 - e^(-2kq)) / 2 and the growing factors cancel,
    so only factors e^(-q) remain and nothing overflows at any size.
    """
    n = cells

    def f(q):  # v sinh((n+1)q) - w sinh(nq), divided by e^((n+1)q) / 2
        return v * -math.expm1(-2 * (n + 1) * q) + w * math.exp(-q) * math.expm1(-2 * n * q)

    lo, hi = 0.0, math.log(w / v) + 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    q = 0.5 * (lo + hi)
    # e^(-(n+1)q) sinh(q) / sinh((n+1)q)
    decay = math.exp(-(2 * n + 1) * q) * math.expm1(-2 * q) / math.expm1(-2 * (n + 1) * q)
    return math.sqrt(w * decay * (w * math.exp(q) - v))


class TestSSHClosedForm:
    @pytest.mark.parametrize("cells", range(2, 21))
    def test_edge_pair_energy(self, cells):
        # At theta2 = pi/2 the on-site terms vanish (to cos(pi/2) ~ 6e-17)
        # and the chain is an SSH chain with v = J(1 - cos theta1) and
        # w = J(1 + cos theta1).  Where the edge pair exists, it is the
        # sheet's smallest |E|.
        p = ModelParams(N=cells, J=1.0)
        energies, _ = scattered_sheet(ARC_GRID, [np.pi / 2], p)
        smallest = np.abs(energies[:, 0]).min(axis=-1)
        checked = 0
        for theta1, got in zip(ARC_GRID, smallest):
            v, w = p.J * (1 - math.cos(theta1)), p.J * (1 + math.cos(theta1))
            if not cells * w > (cells + 1) * v or v == 0:
                continue
            expect = _ssh_edge_energy(v, w, cells)
            if expect >= 1e-10 * p.J:
                assert got == pytest.approx(expect, rel=1e-4)
                checked += 1
        assert checked >= 10


def _closed_form_inside(theta1: float, p: ModelParams) -> bool:
    """Arc membership at theta2 = pi/2 from the SSH closed form: an edge
    pair below ZTOL_DEFAULT J whose geometric profile, ratio r = v/w per
    cell, puts more than EDGE_WEIGHT_MIN on the first cell.  At v = 0 the
    edge states are exact zero modes on the end sites."""
    v, w = p.J * (1 - math.cos(theta1)), p.J * (1 + math.cos(theta1))
    if v == 0:
        return True
    if not p.N * w > (p.N + 1) * v:
        return False
    r = v / w
    weight = (1 - r**2) / (1 - r ** (2 * p.N))
    return _ssh_edge_energy(v, w, p.N) < ZTOL_DEFAULT * p.J and weight > EDGE_WEIGHT_MIN


class TestTable1ThreeLegs:
    @pytest.mark.parametrize("sites", [*range(4, 41, 2), 100, 400, 1000])
    def test_detector_oracle_and_closed_form_agree(self, sites):
        # A third leg beside criterion 6: the reflection detector, the
        # open-chain oracle and the closed form pick the same points.
        p = chain(sites)
        det = detect_arc_endpoint(np.pi / 2, ARC_GRID, p)
        assert not det.flagged and det.disagreements == 0
        closed = [_closed_form_inside(t, p) for t in ARC_GRID]
        assert arc_membership(np.pi / 2, ARC_GRID, p).tolist() == closed
        ends = max_symmetric_interval(ARC_GRID, closed)
        assert not math.isnan(ends)
        assert (det.theta1c, det.oracle_theta1c) == (ends, ends)

    def test_membership_reads_each_points_theta2(self):
        # One theta2 per grid point: each point's verdict is the one at
        # its own angles.
        p = chain(6)
        theta2 = np.resize([np.pi / 2, 0.3, -np.pi / 2], ARC_GRID.size)
        got = arc_membership(theta2, ARC_GRID, p)
        want = [arc_membership(t2, [t1], p)[0] for t1, t2 in zip(ARC_GRID, theta2)]
        assert got.tolist() == want and any(want) and not all(want)

    def test_membership_settles_each_distinct_chain_once(self, monkeypatch):
        # One theta2 per point: the 101 points are 101 distinct chains,
        # where a sheet of the 51 distinct theta1 rows by the 101 theta2
        # values would be 5,151, and no chain is diagonalized.
        p = chain(12)
        theta2 = np.pi / 2 + np.random.default_rng(12).normal(0.0, 0.01, ARC_GRID.size)
        want = dense_membership(theta2, ARC_GRID, p)
        counted, labeled, solved = [], [], []
        count, label = openchain.sturm_count, openchain._sublattice_labels
        monkeypatch.setattr(
            openchain, "sturm_count", lambda d, e, x: counted.append(d) or count(d, e, x)
        )
        monkeypatch.setattr(
            openchain, "_sublattice_labels", lambda e, *a: labeled.append(e) or label(e, *a)
        )
        monkeypatch.setattr(numerics, "dstev", lambda *a: solved.append(a))
        got = arc_membership(theta2, ARC_GRID, p)
        assert [len(d) for d in counted] == [ARC_GRID.size]
        assert len(labeled) == 1 and len(_distinct_rows(labeled[0])[0]) <= ARC_GRID.size
        assert solved == []
        assert got.tolist() == want.tolist() and any(want) and not all(want)


    def test_table1_csv_is_the_closed_form_endpoint(self, tmp_path):
        # The endpoints as the CLI writes them, read back from table1.csv,
        # are those the closed-form rule picks on the CLI's own grid.
        sizes = [4, 6, 8, 12]
        args = ["--set", "table1.sizes=" + ",".join(map(str, sizes))]
        assert main(["table1", "--out", str(tmp_path), *args]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "N,theta1c"
        grid = symmetric_grid(DEFAULTS["fermi_arc.span"] * math.pi,
                              DEFAULTS["fermi_arc.grid_step"] * math.pi)
        for sites, line in zip(sizes, lines[1:], strict=True):
            p = chain(sites)
            ends = max_symmetric_interval(grid, [_closed_form_inside(t, p) for t in grid])
            assert not math.isnan(ends)
            assert line == f"{sites},{ends!r}"


class TestMaxSymmetricInterval:
    def test_simple(self):
        grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        res = max_symmetric_interval(grid, [False, True, True, True, False])
        assert res == 1.0

    def test_hole_at_center(self):
        grid = np.array([-1.0, 0.0, 1.0])
        res = max_symmetric_interval(grid, [True, False, True])
        assert math.isnan(res)

    def test_all_false(self):
        res = max_symmetric_interval(np.array([-1.0, 0.0, 1.0]), [False] * 3)
        assert isinstance(res, float)
        assert math.isnan(res)

    @given(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 5e-10, 0.3, -0.3]),
                st.integers(-12, 12).map(lambda k: k * 0.01 * np.pi),
                st.floats(-1.0, 1.0),
            ),
            max_size=30,
        ),
        st.data(),
    )
    def test_matches_per_candidate_loop(self, grid, data):
        # The per-candidate loop it replaced: the largest t >= -eps that
        # has a grid point within eps of -t and no failing point with
        # |theta1| <= t + eps.
        ok = data.draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
        g = np.asarray(grid, dtype=float)
        order = np.argsort(g)
        g, flags = g[order], np.asarray(ok, dtype=bool)[order]
        eps, best = 1e-9, None
        for t in g[g >= -eps]:
            if np.any(np.abs(g + t) < eps) and flags[np.abs(g) <= t + eps].all():
                best = float(t)
        res = max_symmetric_interval(grid, ok)
        assert isinstance(res, float)
        if best is None:
            assert math.isnan(res)
        else:
            assert res == best
