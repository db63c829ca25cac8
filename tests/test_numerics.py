import ctypes
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from weyllab import numerics
from weyllab.model import ModelParams, chain_bands
from weyllab.numerics import (
    SOLVE_TOL,
    EigenNonConvergenceError,
    SingularMatrixError,
    UndersampledLoopError,
    corner_resolvent,
    eigh_bands,
    reduce_angle,
    solid_angle_batch,
    solve_shifted,
    sturm_count,
    unwrap_winding,
)
from weyllab.spectroscopy import DELTA0_STEP, FIT_WINDOW, detuning_grid

# Residual / orthonormality bound of an eigendecomposition, relative to
# max(1, ||H||_inf).
EIG_TOL = 1e-10


def bands(d, e):
    return np.asarray(d, dtype=float), np.asarray(e, dtype=float)


def random_tridiag(rng, n):
    return bands(rng.normal(size=n), rng.normal(size=n - 1) if n > 1 else [])


def dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def inf_norm(d, e):
    """Largest absolute row sum of the tridiagonal matrix."""
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    return float(rows.max())


def check_eig(h):
    vals, vecs = eigh_bands(*h)
    scale = max(1.0, inf_norm(*h))
    resid = np.abs(dense(*h) @ vecs - vecs * vals).max()
    ortho = np.abs(vecs.T @ vecs - np.eye(h[0].size)).max()
    assert np.all(np.diff(vals) >= 0)
    assert resid <= EIG_TOL * scale
    assert ortho <= EIG_TOL
    return vals, vecs


class TestEighTridiagonal:
    def test_two_site_closed_form(self):
        vals, _ = eigh_bands(*bands([0.0, 0.0], [2.0]))
        assert vals == pytest.approx([-2.0, 2.0], abs=1e-12)

    def test_one_by_one(self):
        vals, vecs = eigh_bands(*bands([3.7], []))
        assert vals == pytest.approx([3.7])
        assert vecs.shape == (1, 1)

    def test_flat_limit_zero_modes(self):
        # 4 sites with hoppings (0, 2, 0): two exact zero modes from the
        # decoupled end sites plus a dimer at +/-2.
        vals, _ = check_eig(bands([0.0] * 4, [0.0, 2.0, 0.0]))
        assert vals == pytest.approx([-2.0, 0.0, 0.0, 2.0], abs=1e-12)

    def test_matches_dense_solver(self, rng):
        h = random_tridiag(rng, 24)
        vals, _ = check_eig(h)
        assert vals == pytest.approx(np.linalg.eigvalsh(dense(*h)), abs=1e-10)

    def test_random_trials_up_to_72(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 73))
            check_eig(random_tridiag(rng, n))

    @given(
        st.integers(1, 48).flatmap(
            lambda n: st.tuples(
                st.sampled_from(["chain", "stacks", "diag row", "off row"]),
                hnp.arrays(float, (3, n), elements=st.floats(-1e3, 1e3)),
                hnp.arrays(float, (3, n - 1), elements=st.floats(-1e3, 1e3)),
            )
        )
    )
    # monkeypatch sets the same dstev for every example.
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @pytest.mark.parametrize("path", ["bundled", "scipy"])
    def test_bitwise_equal_to_scipy_stev(self, monkeypatch, path, case):
        # Both dstev paths: numpy's bundled LAPACK, and the scipy fallback
        # that numpy builds without the symbol use.  A stack is one chain
        # (a 0-d stack), three, or one band row broadcast against three of
        # the other; every chain must come out as scipy solves it alone.
        if path == "bundled":
            if numerics._LAPACK_DSTEV is None:
                pytest.skip("this numpy build exports no dstev")
            monkeypatch.setattr(numerics, "dstev", numerics._bundled_dstev)
        else:
            monkeypatch.setattr(numerics, "dstev", numerics._scipy_dstev)
        layout, d, e = case
        if layout in ("chain", "diag row"):
            d = d[0]
        if layout in ("chain", "off row"):
            e = e[0]
        vals, vecs = eigh_bands(d, e)
        stack = vals.shape[:-1]
        assert stack == (() if layout == "chain" else (3,))
        d, e = np.broadcast_to(d, vals.shape), np.broadcast_to(e, stack + e.shape[-1:])
        for k in np.ndindex(stack):
            ref_vals, ref_vecs = scipy.linalg.eigh_tridiagonal(d[k], e[k], lapack_driver="stev")
            assert vals[k].tobytes() == ref_vals.tobytes()
            assert vecs[k].tobytes() == ref_vecs.tobytes()

    @pytest.mark.parametrize("path", ["bundled", "scipy"])
    def test_eigenvalues_alone_are_eigvalsh_bits(self, rng, monkeypatch, path):
        # solve_shifted's exact condition number rests on these: JOBZ = "N"
        # runs dsterf, as eigvalsh does on the dense chain, at any scale.
        if path == "bundled" and numerics._LAPACK_DSTEV is None:
            pytest.skip("this numpy build exports no dstev")
        monkeypatch.setattr(numerics, "dstev", getattr(numerics, f"_{path}_dstev"))
        for n in (1, 2, 7, 13, 40):
            d, e = random_bands(rng, (5,), n)
            scale = 10.0 ** rng.uniform(-300, 300, size=(5, 1))
            d, e = d * scale, e * scale
            vals = numerics._dstev_bands(d, e, vectors=False)[0]
            assert vals.tobytes() == np.linalg.eigvalsh(dense_stack(d, e)).tobytes()

    def test_missing_symbol_means_no_binding(self, monkeypatch):
        class NoSymbols:
            def __init__(self, path):
                pass

        monkeypatch.setattr(numerics.ctypes, "CDLL", NoSymbols)
        assert numerics._bundled_lapack_dstev() is None

    def test_threads_of_one_size_keep_their_results(self, rng):
        # The bundled path releases the interpreter lock inside LAPACK;
        # threads that shared one workspace per size would read each
        # other's eigenpairs.
        chains = [random_tridiag(rng, 16) for _ in range(6)]
        expected = [eigh_bands(*h) for h in chains]
        wrong = []

        def solve(h, ref):
            for _ in range(300):
                vals, vecs = eigh_bands(*h)
                if vals.tobytes() != ref[0].tobytes() or vecs.tobytes() != ref[1].tobytes():
                    wrong.append(1)

        threads = [threading.Thread(target=solve, args=pair) for pair in zip(chains, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    def test_eigh_bands_rejects_mismatched_bands(self):
        # A length-1 offdiag row would broadcast against the chain unnoticed.
        with pytest.raises(ValueError):
            eigh_bands(np.zeros(5), np.zeros(1))

    @pytest.mark.parametrize("info", [1, -2])
    def test_lapack_failure_raises(self, monkeypatch, info):
        def failing(d, e, z):
            return info

        monkeypatch.setattr(numerics, "dstev", failing)
        error = EigenNonConvergenceError if info > 0 else ValueError
        with pytest.raises(error):
            eigh_bands(*bands([0.0, 0.0], [1.0]))


needs_bundled = pytest.mark.skipif(
    numerics._LAPACK_DSTEV is None, reason="this numpy build exports no dstev"
)


def set_cpus(monkeypatch, cpus):
    """Make the process's affinity mask read as `cpus` CPUs."""
    monkeypatch.setattr(numerics.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def count_threads(monkeypatch):
    """The list that every numerics thread constructed from now on joins."""
    made = []

    class Counted(threading.Thread):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(numerics.threading, "Thread", Counted)
    return made


class TestSplitDstev:
    # A chain's work is n^2 with vectors and n^2 // 2 without; a stack
    # splits where each chain has numerics.SPLIT_CHAIN = 100 and the stack
    # twice numerics.SPLIT_WORK = 8192.  (55, 4), (12, 30) and (300, 8)
    # stay whole, (300, 10), (200, 12) and (84, 14) split with vectors
    # only; a stack has work for `ranges` ranges (with vectors, without),
    # and gets one per CPU up to that.
    @needs_bundled
    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize(
        "m,n,ranges",
        [
            (55, 4, (1, 1)),
            (12, 30, (1, 1)),
            (300, 8, (1, 1)),
            (300, 10, (3, 1)),
            (200, 12, (3, 1)),
            (84, 14, (2, 1)),
            (140, 16, (4, 2)),
            (55, 30, (6, 3)),
            (3, 100, (3, 1)),
        ],
    )
    def test_split_is_the_serial_loop_bit_for_bit(self, rng, monkeypatch, vectors, cpus, m, n, ranges):
        ranges = ranges[0] if vectors else ranges[1]
        set_cpus(monkeypatch, cpus)
        made = count_threads(monkeypatch)
        d, e = random_bands(rng, (m,), n)
        ref_d, ref_e = d.copy(), e.copy()
        z, ref_z = (np.full((m, n, n), np.nan) for _ in range(2)) if vectors else (None, None)
        for k in range(m):  # one chain at a time: a stack of one is never split
            one = slice(k, k + 1)
            assert numerics._bundled_dstev(ref_d[one], ref_e[one], ref_z if z is None else ref_z[one]) == 0
        assert not made
        assert numerics._bundled_dstev(d, e, z) == 0
        assert len(made) == min(cpus, ranges) - 1
        assert not any(thread.is_alive() for thread in made)
        assert d.tobytes() == ref_d.tobytes()
        assert z is None or z.tobytes() == ref_z.tobytes()

    @needs_bundled
    def test_eigh_bands_of_a_split_stack_is_scipy_per_chain(self, rng, monkeypatch):
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(numerics, "dstev", numerics._bundled_dstev)
        made = count_threads(monkeypatch)
        d, e = random_bands(rng, (4, 30), 16)
        vals, vecs = eigh_bands(d, e)
        assert len(made) == 1
        for k in np.ndindex(4, 30):
            ref_vals, ref_vecs = scipy.linalg.eigh_tridiagonal(d[k], e[k], lapack_driver="stev")
            assert vals[k].tobytes() == ref_vals.tobytes()
            assert vecs[k].tobytes() == ref_vecs.tobytes()

    @pytest.mark.parametrize("failures,info", [({80: 2}, 2), ({40: 7, 80: 2}, 7)])
    @pytest.mark.parametrize("cpus", [2, 3])
    def test_failure_in_a_later_range_names_the_lowest_failing_chain(
        self, monkeypatch, cpus, failures, info
    ):
        # 100 chains of 20 sites split at chain 50, or at 33 and 66; chain
        # k's first diagonal entry is k, so the fake LAPACK knows which
        # chain it has.  Chain 80 fails in the last range and chain 40 in
        # the first or the second.
        set_cpus(monkeypatch, cpus)
        made = count_threads(monkeypatch)

        def fake(jobz, size, d, e, z, ldz, work, info_p, length):
            chain = int(ctypes.c_double.from_address(d).value)
            ctypes.c_int64.from_address(info_p).value = failures.get(chain, 0)

        monkeypatch.setattr(numerics, "_LAPACK_DSTEV", fake)
        monkeypatch.setattr(numerics, "dstev", numerics._bundled_dstev)
        d = np.zeros((100, 20))
        d[:, 0] = np.arange(100)
        with pytest.raises(EigenNonConvergenceError, match=f"^tridiagonal eigensolver: {info} off"):
            eigh_bands(d, np.ones((100, 19)))
        assert len(made) == cpus - 1
        assert not any(thread.is_alive() for thread in made)

    @pytest.mark.parametrize("chain", [10, 80])
    def test_an_exception_in_any_range_reaches_the_caller(self, monkeypatch, chain):
        # Chain 10 is in the calling thread's range, chain 80 in the other.
        set_cpus(monkeypatch, 2)
        made = count_threads(monkeypatch)

        def fake(jobz, size, d, e, z, ldz, work, info_p, length):
            if int(ctypes.c_double.from_address(d).value) == chain:
                raise RuntimeError(f"chain {chain}")

        monkeypatch.setattr(numerics, "_LAPACK_DSTEV", fake)
        monkeypatch.setattr(numerics, "dstev", numerics._bundled_dstev)
        d = np.zeros((100, 20))
        d[:, 0] = np.arange(100)
        with pytest.raises(RuntimeError, match=f"^chain {chain}$"):
            eigh_bands(d, np.ones((100, 19)))
        assert len(made) == 1
        assert not made[0].is_alive()

    @needs_bundled
    def test_a_thread_that_cannot_start_leaves_none_running(self, rng, monkeypatch):
        # Three ranges; the second thread fails to start, so the first is
        # joined before the error reaches the caller.
        set_cpus(monkeypatch, 3)
        made = count_threads(monkeypatch)
        start = threading.Thread.start

        def flaky(thread):
            if thread is made[1]:
                raise RuntimeError("can't start new thread")
            start(thread)

        monkeypatch.setattr(numerics.threading.Thread, "start", flaky)
        with pytest.raises(RuntimeError, match="can't start new thread"):
            numerics._bundled_dstev(*random_bands(rng, (90,), 20), np.empty((90, 20, 20)))
        assert len(made) == 2 and made[0].ident is not None
        assert not made[0].is_alive()

    @pytest.mark.parametrize("affinity", ["one CPU", "unreadable"])
    def test_one_cpu_starts_no_thread(self, rng, monkeypatch, affinity):
        if affinity == "one CPU":
            set_cpus(monkeypatch, 1)
        else:
            def unreadable(pid):
                raise OSError("no affinity here")

            monkeypatch.setattr(numerics.os, "sched_getaffinity", unreadable, raising=False)
            monkeypatch.setattr(numerics.os, "cpu_count", lambda: 1)
        made = count_threads(monkeypatch)
        monkeypatch.setattr(numerics, "dstev", numerics._bundled_dstev)
        monkeypatch.setattr(numerics, "_LAPACK_DSTEV", lambda *args: None)
        eigh_bands(*random_bands(rng, (200,), 40))
        assert not made


def random_bands(rng, shape, n):
    """Random bands (shape + (n,), shape + (n - 1,)) of a chain stack."""
    return rng.normal(size=shape + (n,)), rng.normal(size=shape + (n - 1,))


def dense_stack(d, e):
    """Dense matrices (..., n, n) of stacked bands, built entry by entry."""
    n = d.shape[-1]
    t = np.zeros(d.shape + (n,))
    for i in range(n):
        t[..., i, i] = d[..., i]
        if i + 1 < n:
            t[..., i, i + 1] = t[..., i + 1, i] = e[..., i]
    return t


class TestSolveShifted:
    def test_identity(self):
        b = np.array([1.0, 1.0j, -2.0])
        assert solve_shifted(np.zeros(3), np.zeros(2), 1.0, b) == pytest.approx(b)

    def test_scalar_division(self):
        x = solve_shifted(np.zeros(1), np.zeros(0), -0.5j, np.array([1.0]))
        assert x == pytest.approx([2.0j])

    def test_two_by_two_adjugate(self):
        # T + z = [[i, 1], [1, i]] has det = -2 and adjugate
        # [[i, -1], [-1, i]], so (T + z) x = (1, 0) gives x = (-i/2, 1/2).
        x = solve_shifted(np.zeros(2), np.ones(1), 1.0j, np.array([1.0, 0.0]))
        assert x == pytest.approx([-0.5j, 0.5], abs=1e-12)

    def test_singular_raises(self):
        # [[1, 2], [2, 4]]
        with pytest.raises(SingularMatrixError):
            solve_shifted(np.array([1.0, 4.0]), np.array([2.0]), 0.0, np.array([1.0, 0.0]))

    def test_one_singular_shift_fails_the_stack(self):
        # T has eigenvalues +/-1; only the shift z = 1 is singular.
        d, e = np.zeros(2), np.ones(1)
        shifts = np.array([0.5, 1.0, 1.5])
        with pytest.raises(SingularMatrixError):
            solve_shifted(d, e, shifts, np.array([1.0, 0.0]))
        assert solve_shifted(d, e, shifts[[0, 2]], np.array([1.0, 0.0])).shape == (2, 2)

    def test_stacked_matrices_share_a_shift(self):
        # [[0, 1], [1, 0]] and 2 I
        d, e = np.array([[0.0, 0.0], [2.0, 2.0]]), np.array([[1.0], [0.0]])
        x = solve_shifted(d, e, 1.0j, np.array([1.0, 0.0]))
        ref = np.array([[-0.5j, 0.5], [1 / (2 + 1j), 0.0]])
        assert x == pytest.approx(ref, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_shifted(np.zeros(3), np.zeros(2), 1.0, np.ones(2))
        with pytest.raises(ValueError):
            solve_shifted(np.zeros((4, 3)), np.zeros((4, 2)), np.ones(5), np.ones(3))
        with pytest.raises(ValueError):  # bands of no chain
            solve_shifted(np.zeros(3), np.zeros(3), 1.0, np.ones(3))

    def test_rejects_nonfinite_and_complex_matrices(self):
        with pytest.raises(ValueError):
            solve_shifted(np.zeros(2), np.zeros(1), np.nan, np.ones(2))
        with pytest.raises(ValueError):
            solve_shifted(1j * np.ones(2), np.zeros(1), 1.0, np.ones(2))

    @given(st.integers(1, 4), st.integers(2, 20), st.integers(0, 2**32 - 1))
    def test_residual_bound_random(self, k, n, seed):
        rng = np.random.default_rng(seed)
        d, e = random_bands(rng, (k,), n)
        z = rng.normal(size=k) + 1j * (0.5 + rng.random(size=k))
        b = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
        x = solve_shifted(d, e, z, b)
        assert x.shape == (k, n)
        for ti, zi, bi, xi in zip(dense_stack(d, e), z, b, x):
            a = ti + zi * np.eye(n)
            norm_a = np.abs(a).sum(axis=1).max()
            scale = norm_a * np.linalg.norm(xi) + np.linalg.norm(bi)
            assert np.linalg.norm(a @ xi - bi) <= SOLVE_TOL * scale

    @given(st.integers(1, 36), st.integers(0, 2**32 - 1))
    def test_matches_dense_reference_bit_for_bit(self, n, seed):
        # The stack must give exactly what a per-shift solve of the dense
        # T + z * I gives, since every dataset digest rests on those bits.
        rng = np.random.default_rng(seed)
        d, e = random_bands(rng, (), n)
        t = dense_stack(d, e)
        z = rng.normal(size=7) - 0.5j * (0.1 + rng.random())
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = [np.linalg.solve(t + zi * np.eye(n), b) for zi in z]
        assert np.array_equal(solve_shifted(d, e, z, b), ref)

    @given(st.integers(1, 24), st.integers(0, 2**32 - 1), st.floats(1e-3, 10.0))
    def test_condition_number_matches_svd(self, n, seed, im):
        # The exact condition number, which solve_shifted takes from the
        # chain's eigenvalues alone where its bound cannot vouch.
        rng = np.random.default_rng(seed)
        d, e = random_bands(rng, (), n)
        z = complex(rng.normal(), im * rng.choice([-1.0, 1.0]))
        sv = np.abs(numerics._dstev_bands(d, e, vectors=False)[0] + z)
        ref = np.linalg.cond(dense_stack(d, e) + z * np.eye(n))
        assert sv.max() / sv.min() == pytest.approx(ref, rel=1e-10)

    @given(
        st.integers(1, 24),
        st.integers(0, 2**32 - 1),
        st.floats(1e-6, 10.0),
        st.floats(-10.0, 10.0),
    )
    def test_bounds_bracket_the_exact_norms(self, n, seed, im, re):
        # The inf-norm bounds the 2-norm, and so over |Im z| the condition
        # number, from above: neither loosens the solve's rule.  Both are
        # |t + z| when n = 1: a few ulps of slack allow for their rounding.
        rng = np.random.default_rng(seed)
        d, e = random_bands(rng, (), n)
        z = complex(re, im * rng.choice([-1.0, 1.0]))
        m = dense_stack(d, e) + z * np.eye(n)
        norm = numerics._inf_norm(d + z, e)
        assert norm >= np.linalg.norm(m, 2) * (1 - 4 * np.finfo(float).eps)
        assert norm / abs(z.imag) >= np.linalg.cond(m)

    @pytest.mark.parametrize(
        "shape", [(1, 1), (7, 7), (3, 2, 12, 12), (101, 1, 36, 36), (512, 1, 12, 1)]
    )
    def test_residual_scale_is_largest_column_norm(self, rng, shape):
        # T + z is symmetric, so its largest column sum is its inf-norm.
        shape, n = shape[:-2], shape[-2]  # a stack of chains of n sites
        d, e = random_bands(rng, shape, n)
        dz = d + 1j * rng.normal(size=d.shape)
        scale = 10.0 ** rng.uniform(-3, 3, size=shape)
        dz, e = dz * scale[..., None], e * scale[..., None]
        m = dense_stack(dz.real, e) + 1j * dense_stack(dz.imag, np.zeros_like(e))
        want = np.abs(m).sum(axis=-2).max(axis=-1)
        got = numerics._inf_norm(dz, e)
        assert got.shape == want.shape
        assert (np.abs(got - want) <= 1e-15 * want).all()
        for k in (1000, -1000):  # no square to over- or underflow
            scaled = numerics._inf_norm(dz * 2.0**k, e * 2.0**k)
            assert np.array_equal(scaled, got * 2.0**k)

    def test_huge_shift_is_not_refused(self):
        # x is about 2e-200 and T + z about 5e199, a well-conditioned
        # system: unscaled, ||x||^2 underflows to 0 and the column norms
        # of T + z overflow, so the residual scale is NaN.
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        z, b = -0.1 - 0.5e200j, np.array([1.0, 0.0])
        x = solve_shifted(np.zeros(2), np.ones(1), z, b)
        assert np.array_equal(x, np.linalg.solve(t + z * np.eye(2), b))
        assert abs(x[0]) == pytest.approx(2e-200)

    @pytest.mark.parametrize("size", [5e-324, 1e-310, 2.0**-901, 1e300])
    def test_extreme_right_hand_side_is_solved_scaled(self, rng, size):
        # b is divided by a power of two before the LU and x multiplied by
        # it after, exactly: x is the solve of the unit-sized b, scaled.
        d, e = random_bands(rng, (), 6)
        z = 0.3 - 0.2j
        unit = rng.normal(size=6) + 1j * rng.normal(size=6)
        unit /= np.abs(unit).max()
        b = size * unit
        k = np.frexp(np.abs(np.concatenate([b.real, b.imag])).max())[1]
        x = solve_shifted(d, e, z, b)
        assert np.array_equal(x, times_2_to(solve_shifted(d, e, z, times_2_to(b, -k)), k))
        assert np.abs(x).max() > 0

    def test_solution_at_the_top_of_the_range_is_accepted(self):
        # x = -1e308j is exact and the system perfectly conditioned; no
        # norm of the guard may overflow on an entry at or above 2**1023.
        x = solve_shifted(np.zeros(1), np.zeros(0), 1e-38j, np.array([1e270]))
        assert np.array_equal(x, [-1e308j])

    def test_overflowing_solution_is_refused(self):
        # x = b / z overflows once b is scaled back.
        with pytest.raises(SingularMatrixError):
            solve_shifted(np.zeros(1), np.zeros(0), 1e-10j, np.array([1e300]))

    def test_singular_message_says_cond_bound(self, monkeypatch):
        # A well-conditioned system whose residual check fails reports
        # the bound, the only condition number it computed.
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: 2.0 * solve(a, b))
        with pytest.raises(SingularMatrixError, match=r"\(cond bound \d") as err:
            solve_shifted(np.array([1.0, -1.0]), np.zeros(1), [0.5j, 1.0 + 2j], np.ones(2))
        # max(|1 + 0.5i| / 0.5, |2 + 2i| / 2) = sqrt 5
        assert "(cond bound 2.236e+00, " in str(err.value)

    @pytest.mark.parametrize(
        "k,kb",
        [
            (-1000, 0), (-920, 0), (920, 0), (1000, 0), (-1000, -1000), (1000, 1000),
            (-600, 0), (-1, 0), (1, 0), (600, 0),
        ],
    )
    def test_extreme_matrix_is_solved_scaled(self, rng, k, kb):
        # Beyond LU_EXPONENT, T + z is divided by its power of two before
        # the LU, as b is, and x multiplied back after, exactly; within it
        # the LU itself commutes with a power of two: either way x is the
        # unit system's solve.
        d, e = random_bands(rng, (2,), 6)
        z = np.array([0.3 - 0.2j, -0.7 + 0.5j])
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        x = solve_shifted(np.ldexp(d, k), np.ldexp(e, k), times_2_to(z, k), times_2_to(b, kb))
        assert np.array_equal(x, times_2_to(solve_shifted(d, e, z, b), kb - k))


def times_2_to(c, k):
    """Complex c times 2**k, part by part, which is exact."""
    return np.ldexp(np.real(c), k) + 1j * np.ldexp(np.imag(c), k)


def dense_corner(d, e, z):
    """[(T + z)^-1]_00 of stacked bands and shifts from one dense LU per
    system, each T + z divided first by the power of two above its
    largest entry: a zgesv of entries near 1e-307 meets exact zero pivots."""
    m = dense_stack(d, e) + np.asarray(z)[..., None, None] * np.eye(d.shape[-1])
    k = np.frexp(np.abs(m).max(axis=(-2, -1)))[1]
    m = times_2_to(m, -k[..., None, None])
    unit = np.broadcast_to(np.eye(d.shape[-1])[:, :1], m.shape[:-1] + (1,))
    return times_2_to(np.linalg.solve(m, unit)[..., 0, 0], -k)


class TestCornerResolvent:
    @given(
        st.integers(1, 36),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0, 664, -1000, -1019]),
        st.sampled_from(["chain", "rows x shifts", "shared bands"]),
    )
    def test_matches_dense_oracle(self, n, seed, k, layout):
        # To 1e-12 relative, also with bands and shifts scaled by 2**k to
        # about 1e200, 1e-301 and 1e-307.
        rng = np.random.default_rng(seed)
        shape = {"chain": (), "rows x shifts": (3, 1), "shared bands": ()}[layout]
        d, e = random_bands(rng, shape, n)
        size = () if layout == "chain" else (4,)
        z = rng.normal(size=size) + 1j * rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.0, size)
        g = corner_resolvent(np.ldexp(d, k), np.ldexp(e, k), times_2_to(z, k))
        assert g.shape == np.broadcast_shapes(shape, size)
        ref = times_2_to(dense_corner(d, e, z), -k)
        assert (np.abs(g - ref) <= 1e-12 * np.abs(ref)).all()

    @given(
        st.sampled_from(
            [
                {},
                {"J": 1e200, "Je": 1e200, "kappa": 2e199},
                {"kappa": 1e200},
                {"J": 1e-307, "Je": 1e-307, "kappa": 2e-308},
            ]
        ),
        st.integers(2, 20),
        st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_detection_systems_match_dense_oracle(self, params, cells, theta1s):
        # The chains and fit detunings of an arc detection, at the defaults
        # and in the extremes that need the scaling.
        p = ModelParams(N=cells, **params)
        d, e = chain_bands(*np.broadcast_arrays(theta1s, np.pi / 2), p)
        z = detuning_grid(FIT_WINDOW, DELTA0_STEP, p) - 0.5j * p.kappa
        g = corner_resolvent(d[:, None], e[:, None], z)
        ref = dense_corner(d[:, None], e[:, None], z)
        assert (np.abs(g - ref) <= 1e-12 * np.abs(ref)).all()

    def test_closed_forms(self):
        assert corner_resolvent(np.array([0.5]), np.zeros(0), 0.5j) == 1 / (0.5 + 0.5j)
        # [[i, 1], [1, i]]^-1 has corner i / (i^2 - 1) = -i/2.
        assert corner_resolvent(np.zeros(2), np.ones(1), 1.0j) == pytest.approx(-0.5j)

    def test_refuses_what_solve_shifted_refuses(self):
        # One conditioning rule on both paths: z = +/-1 lies on the
        # eigenvalues of T, exactly (the LU fails) or 1e-16 and 1e-20 off.
        d, e, b = np.zeros(2), np.ones(1), np.array([1.0, 0.0])
        for z in ([0.5, 1.0, 1.5], [0.5, 1 + 1e-16j], [-1.0 + 1e-20j]):
            with pytest.raises(SingularMatrixError) as lu:
                solve_shifted(d, e, z, b)
            with pytest.raises(SingularMatrixError, match=r"\(cond ") as cf:
                corner_resolvent(d, e, z)
            if 1.0 not in z:
                cond = re.search(r"\((cond [^,]*),", str(lu.value)).group(1)
                assert str(cf.value) == f"system singular to working precision ({cond})"
        z = [0.5, 1.5, 1.0 + 0.1j]
        assert corner_resolvent(d, e, z) == pytest.approx(solve_shifted(d, e, z, b)[:, 0])

    def test_zero_denominator_is_refused(self):
        # The trailing 1 x 1 block of [[0, 1], [1, 1]] is singular at z = -1,
        # although T + z = [[-1, 1], [1, 0]] is not: the sweep divides by 0.
        with pytest.raises(SingularMatrixError):
            corner_resolvent(np.array([0.0, 1.0]), np.ones(1), -1.0)

    def test_rejects_what_solve_shifted_rejects(self):
        for d, e, z in [
            (np.zeros(3), np.zeros(3), 1.0),
            (np.zeros(2), np.zeros(1), np.nan),
            (1j * np.ones(2), np.zeros(1), 1.0),
            (np.zeros((4, 3)), np.zeros((4, 2)), np.ones(5)),
        ]:
            with pytest.raises(ValueError):
                corner_resolvent(d, e, z)


class TestResolventConditionBound:
    def test_detection_systems_skip_the_exact_rule(self, monkeypatch):
        # The default detection's systems are within the real bound, so
        # the inf-norm and _condition are never formed.
        calls = []
        monkeypatch.setattr(numerics, "_condition", lambda *a: calls.append(a))
        p = ModelParams(N=18)
        d, e = chain_bands(np.linspace(-1.5, 1.5, 31), np.pi / 2, p)
        z = detuning_grid(FIT_WINDOW, DELTA0_STEP, p) - 0.5j * p.kappa
        corner_resolvent(d[:, None], e[:, None], z)
        assert calls == []

    @given(st.floats(1e-3, 1e3), st.floats(1e-17, 1e-11))
    def test_refusals_name_the_exact_rule(self, scale, damping):
        # Where the real bound exceeds COND_MAX, the system is accepted
        # or refused, and its message written, exactly as the rule reads it.
        d, e = scale * np.array([0.5, -0.5, 0.5, -0.5]), scale * np.array([1.0, 2.0, 1.0])
        z = np.array([0.3, 0.0, -0.2]) * scale - 1j * damping * scale
        cond, exact = numerics._condition(d, e, z, numerics._inf_norm(d + z[..., None], e))
        if (cond <= numerics.COND_MAX).all():
            assert np.isfinite(corner_resolvent(d, e, z)).all()
        else:
            with pytest.raises(SingularMatrixError) as err:
                corner_resolvent(d, e, z)
            assert str(err.value) == str(numerics._singular(cond, exact))


def dense_count(d, e, x):
    """Eigenvalues below x from np.linalg.eigvalsh of the dense chain."""
    return int((np.linalg.eigvalsh(dense(d, e)) < x).sum())


class TestSturmCount:
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.sampled_from([0, 664, -1000, -1019]))
    def test_matches_dense_eigenvalues(self, n, seed, k):
        # Also with bands and shifts scaled by 2**k to about 1e200, 1e-301
        # and 1e-307; shifts 1e-6 or more from every eigenvalue.
        rng = np.random.default_rng(seed)
        d, e = random_tridiag(rng, n)
        vals = np.linalg.eigvalsh(dense(d, e))
        x = rng.uniform(vals[0] - 1, vals[-1] + 1, 6)
        x = x[np.abs(x[:, None] - vals).min(axis=1) > 1e-6]
        got = sturm_count(np.ldexp(d, k), np.ldexp(e, k), np.ldexp(x, k))
        assert got.tolist() == [dense_count(d, e, t) for t in x]

    def test_stack_broadcasts_bands_and_shifts(self, rng):
        d, e = random_bands(rng, (3, 1), 7)
        x = np.array([-0.5, 0.0, 0.5, 1.5])
        got = sturm_count(d, e, x)
        assert got.shape == (3, 4)
        assert got.tolist() == [[dense_count(d[i, 0], e[i, 0], t) for t in x] for i in range(3)]

    @pytest.mark.parametrize(
        "d, e",
        [([1.0, 0.0, 2.0, 1.0], [0.0, 1.0, 0.0]), ([0.0, 0.0, 0.0], [0.0, 0.0]), ([0.5, -0.5], [0.0])],
    )
    def test_split_chains_on_their_eigenvalues(self, d, e):
        # Zero couplings and shifts on an eigenvalue, where pivots are
        # exactly zero: the count is a number between those of the
        # eigenvalues below and not above the shift, and exact off them.
        d, e = bands(d, e)
        vals = np.linalg.eigvalsh(dense(d, e))
        for x in [*vals, -0.0, 0.0, 0.25, 3.0, -3.0]:
            got = sturm_count(d, e, x)
            assert (vals < x).sum() <= got <= (vals <= x).sum()

    def test_holds_no_pivot_array(self):
        # A long stack, 64 chains of 5,000 sites at two shifts, is counted
        # within twice the bands' bytes: one copy of the bands and a few
        # stack-sized arrays.  Stored pivots with the shifted bands they
        # come from, each (2, 64, 5000), would take about four times.
        rng = np.random.default_rng(3)
        d, e = rng.uniform(-1.0, 1.0, (64, 5000)), rng.uniform(-1.0, 1.0, (64, 4999))
        tracemalloc.start()
        sturm_count(d, e, [[-0.1], [0.2]])
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 * (d.nbytes + e.nbytes)

    @pytest.mark.parametrize("n", [*range(4, 41, 2), 100, 400, 1000, 4000])
    def test_blocked_sweep_is_the_per_site_sweep(self, n):
        # Blocks of sites scaled and shifted at once give the per-site
        # recurrence's counts bit for bit: on the arc oracle's chains
        # (theta2 = pi/2, where the diagonal is about 6e-17, at the Table-1
        # theta1 grid; 20 sites a block) at its window and at zero, and on
        # random bands with zero couplings at shifts on their diagonal
        # (409 sites a block).
        def per_site(d, e, x):
            d, e, x, k = numerics._chain_system(d, e, x)
            xk = np.ldexp(x.real, k)
            q = np.ldexp(d[..., -1], k) - xk
            count = np.signbit(q).astype(np.intp)
            with np.errstate(divide="ignore"):
                for i in range(n - 2, -1, -1):
                    f2 = np.maximum(np.ldexp(e[..., i], k) ** 2, numerics.COUPLING_FLOOR)
                    q = np.ldexp(d[..., i], k) - xk - f2 / q
                    count += np.signbit(q)
            return count

        theta1 = np.linspace(-np.pi / 2, np.pi / 2, 101)
        d, e = chain_bands(theta1, np.pi / 2, ModelParams(N=n // 2))
        rng = np.random.default_rng(n)
        dr, er = rng.normal(size=(4, n)), rng.normal(size=(4, n - 1))
        er[:, ::7] = 0.0
        for d, e, x in [(d, e, [[0.02], [-0.02], [0.0], [-0.0]]), (dr, er, dr[:, :5].T)]:
            assert np.array_equal(sturm_count(d, e, x), per_site(d, e, x))

    def test_rejects_what_corner_resolvent_rejects(self):
        for d, e, x in [
            (np.zeros(3), np.zeros(3), 1.0),
            (np.zeros(2), np.zeros(1), np.nan),
            (np.zeros(2), np.zeros(1), 1.0j),
            (1j * np.ones(2), np.zeros(1), 1.0),
        ]:
            with pytest.raises(ValueError):
                sturm_count(d, e, x)


@pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
def test_chain_kernels_divide_by_the_same_power_of_two(rng, k):
    # Both O(n) kernels divide each system by the power of two of
    # _chain_system, so a system 2**k times another gives the same bits:
    # the corner element scaled by 2**-k and the same Sturm counts.
    d, e = random_bands(rng, (3, 1), 8)
    z = rng.normal(size=4) + 1j * rng.uniform(0.1, 1.0, size=4)
    g = corner_resolvent(np.ldexp(d, k), np.ldexp(e, k), times_2_to(z, k))
    assert np.array_equal(g, times_2_to(corner_resolvent(d, e, z), -k))
    x = np.linspace(-3.0, 3.0, 13)
    counts = sturm_count(np.ldexp(d, k), np.ldexp(e, k), np.ldexp(x, k))
    assert np.array_equal(counts, sturm_count(d, e, x))


class TestBisectionAndInverseIteration:
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_eigenpairs_match_eigh(self, n, seed):
        # Bands of magnitude at most 1; every eigenvalue within SEPARATION
        # of its gap and every vector within 1e-6 where the gap is 1e-4 or
        # more.
        rng = np.random.default_rng(seed)
        d, e = rng.uniform(-1, 1, n), rng.uniform(-1, 1, n - 1)
        vals, vecs = np.linalg.eigh(dense(d, e))
        index = np.arange(n)
        x = numerics._bisect(
            np.repeat(d[:, None], n, axis=1), np.repeat(e[:, None], n, axis=1), index,
            np.full(n, -3.0), np.full(n, 3.0),
        )
        gap = np.abs(vals[:, None] - vals + np.diag(np.full(n, np.inf))).min(axis=1)
        assert (np.abs(x - vals) <= numerics.SEPARATION * gap + numerics.SCALED_TOL).all()
        got = numerics._inverse_iteration(
            np.repeat(d[:, None], n, axis=1), np.repeat(e[:, None], n, axis=1), x
        )
        clear = gap >= 1e-4
        assert np.allclose(np.abs((got * vecs).sum(axis=0))[clear], 1.0, atol=1e-6)

    def test_sweeps_count_as_sturm_count(self, rng, monkeypatch):
        # Each multisection sweep divides every system by the power of two
        # that sturm_count's validation gives it, bands and shift alike:
        # the shifts, up to 3, outgrow bands of magnitude at most 1.
        sweeps, sweep = [], numerics._sturm_sweep
        monkeypatch.setattr(numerics, "_sturm_sweep", lambda *args: sweeps.append(args) or sweep(*args))
        d, e = rng.uniform(-1, 1, (12, 5)), rng.uniform(-1, 1, (11, 5))
        numerics._bisect(d, e, np.arange(5), np.full(5, -3.0), np.full(5, 3.0))
        monkeypatch.undo()
        assert sweeps
        for d, e, x, k in sweeps:
            assert np.array_equal(k, numerics._chain_system(d, e, x)[3])
            assert np.array_equal(sweep(d, e, x, k), sturm_count(d, e, x))

    def test_exponentially_close_end_modes(self):
        # The 100-site chain at theta1 = 0.031, theta2 = pi/2 has its end
        # pair at +/-6e-17 J; its bidiagonal's smallest singular vectors
        # u and v sit on the first and the last site.
        e = chain_bands(0.031, np.pi / 2, ModelParams(N=50))[1][0]
        j1, j2 = e[0::2], e[1::2]
        bbt, btb = j1**2 + np.r_[0.0, j2**2], j1**2 + np.r_[j2**2, 0.0]
        s2 = numerics._bisect(
            bbt[:, None] / 4, (j1[:-1] * j2)[:, None] / 4, np.array([0]), np.zeros(1), np.ones(1)
        )
        u, v = numerics._inverse_iteration(
            np.c_[bbt, btb] / 4, np.c_[j1[:-1] * j2, j2 * j1[1:]] / 4, np.r_[s2, s2]
        ).T
        # The uniform chain's B^T B is B B^T reversed, so v is u reversed,
        # both to within inverse iteration's error.
        assert u[0] ** 2 > 0.99 and v[-1] ** 2 > 0.99
        np.testing.assert_allclose(np.abs(u), np.abs(v[::-1]), rtol=0, atol=1e-6)


class TestUnwrapWinding:
    def test_quarter_steps(self):
        assert unwrap_winding([0, np.pi / 2, np.pi, 3 * np.pi / 2]).winding == 1

    def test_constant(self):
        assert unwrap_winding(np.full(16, 0.4)).winding == 0

    def test_reversed_loop(self):
        assert unwrap_winding([0, 3 * np.pi / 2, np.pi, np.pi / 2]).winding == -1

    def test_residual_reported(self):
        res = unwrap_winding(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        assert res.winding == 1
        assert abs(res.residual) < 1e-12

    def test_undersampled_rejected(self):
        with pytest.raises(UndersampledLoopError):
            unwrap_winding([0.0, np.pi - 0.05, 0.1])

    @given(
        st.integers(-3, 3),
        st.floats(-10, 10),
        st.integers(0, 63),
    )
    @settings(max_examples=60)
    def test_offset_and_rotation_invariance(self, w, shift, rot):
        n = 64
        base = w * 2 * np.pi * np.arange(n) / n
        phases = np.angle(np.exp(1j * base))
        ref = unwrap_winding(phases).winding
        assert ref == w
        assert unwrap_winding(phases + shift).winding == w
        assert unwrap_winding(np.roll(phases, rot)).winding == w


class TestReduceAngle:
    finite = st.floats(-1e3, 1e3, allow_nan=False)

    @given(st.lists(finite, min_size=1, max_size=16))
    def test_principal_branch_and_cosine(self, xs):
        x = np.array(xs)
        got = reduce_angle(x)
        assert np.all((-np.pi < got) & (got <= np.pi))
        assert np.abs(np.cos(got) - np.cos(x)).max() <= 1e-12

    @given(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=16))
    def test_bits_of_the_fmod_form_up_to_pi(self, xs):
        # The recorded datasets were reduced with pi - fmod(pi - x, 2 pi),
        # which np.mod matches bit for bit wherever pi - x >= 0.
        x = np.array(xs)
        old = np.pi - np.fmod(np.pi - x, 2.0 * np.pi)
        assert reduce_angle(x).tobytes() == old.tobytes()
        assert all(float(reduce_angle(v)) == float(o) for v, o in zip(xs, old))


class TestSolidAngle:
    def test_octant(self):
        x, y, z = np.eye(3)
        assert solid_angle_batch(x, y, z) == pytest.approx(np.pi / 2)

    def test_orientation_flip(self):
        x, y, z = np.eye(3)
        assert solid_angle_batch(y, x, z) == pytest.approx(-np.pi / 2)

    def test_degenerate(self):
        x, _, z = np.eye(3)
        assert solid_angle_batch(x, x, z) == 0.0

    def test_coplanar_through_origin(self):
        v1 = np.array([1.0, 0.0, 0.0])
        v2 = np.array([np.cos(2.9), np.sin(2.9), 0.0])
        v3 = np.array([np.cos(3.4), np.sin(3.4), 0.0])
        assert solid_angle_batch(v1, v2, v3) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        v1, v2, v3 = rng.normal(size=(3, 3))
        v1, v2, v3 = (v / np.linalg.norm(v) for v in (v1, v2, v3))
        assert solid_angle_batch(v1, v2, v3) == pytest.approx(
            -solid_angle_batch(v2, v1, v3), abs=1e-12
        )

    def test_octahedron_tiles_sphere(self):
        # Eight consistently oriented octants cover the sphere once; the
        # octants go in as one stack.
        signs = np.array(np.meshgrid([1, -1], [1, -1], [1, -1])).reshape(3, -1).T
        x, y, z = (signs[:, [k]] * np.eye(3)[k] for k in range(3))
        total = (solid_angle_batch(x, y, z) * signs.prod(axis=1)).sum()
        assert total == pytest.approx(4 * np.pi, abs=1e-8)
