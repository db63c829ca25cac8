"""Numerical kernels.

Symmetric tridiagonal eigensolver, shifted complex solves (T + z) x = b,
the corner resolvent [(T + z)^-1]_00, Sturm counts and selected
eigenvectors, all on stacks of a chain's two bands, angle reduction,
phase-loop winding extraction, and signed spherical solid angles.
Everything here is a pure function of its inputs.  The shifted solve
factors the dense T + z in chunks of at most LU_ENTRIES entries, one
buffer per call; the corner resolvent and the Sturm count read
one far-end pivot sweep of T + z, _pivot_blocks, O(n) per system, and
the selected eigenvectors are O(n) per chain.  _chain_system validates
every system and gives its power-of-two exponent; the pivot sweep
always divides by that power, which is exact, and the shifted solve
only beyond LU_EXPONENT.  The two resolvents refuse a system by one
conditioning rule, _condition, read from the bands in their inf-norm.

numpy is the only third-party import.  The eigensolver calls LAPACK
dstev, and select_eigenvectors LAPACK's bisection and inverse iteration,
dstebz and dstein, through ctypes from one source, _LAPACK: the ILP64
OpenBLAS bundled in numpy's wheels, with 64-bit integers
(_bundled_lapack), else, where numpy's build lacks a routine (conda, MKL
and distro builds), scipy's LP64 LAPACK, with C ints, from the function
pointers of scipy.linalg.cython_lapack (_scipy_lapack), imported on the
first call.  Either way each call solves its chains in arrays that call
allocates, so calls share no state.  A dstev call releases the
interpreter lock, so a stack is split into contiguous ranges over the
CPUs the process may use (its affinity mask, else os.cpu_count()): one
range per CPU at most, each of at least SPLIT_WORK units of work, and
only for chains of at least SPLIT_CHAIN units each.  The calling thread
solves the first range and a threading.Thread each other one, with its
own work array and INFO, and every thread is joined before the call
returns; on one CPU none starts.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from collections import namedtuple
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericsError",
    "SingularMatrixError",
    "EigenNonConvergenceError",
    "UndersampledLoopError",
    "WindingResult",
    "eigh_bands",
    "corner_resolvent",
    "sturm_count",
    "select_eigenvectors",
    "reduce_angle",
    "solve_shifted",
    "unwrap_winding",
]

# Most dense matrix entries that one chunk of solve_shifted's stacked LU
# holds at once (512 kB complex).
LU_ENTRIES = 2**15
# A dstev stack's work is counted per chain as n^2 with vectors and
# n^2 / 2 without, each unit about 0.1 us of one solve for 10 to 20 sites.
# Least work that one range of a split stack must carry to be worth a
# thread start (about 90 us).
SPLIT_WORK = 2**13
# Least work of each chain in a split stack: a shorter solve (under about
# 10 us) does not outlast the interpreter-lock handoff that each call
# costs when two threads take turns.  Against one thread, two solved
# stacks of 8 sites with vectors, or of 12 without, about 1.6 times as
# slowly, of 10 with vectors or of 14 without about as fast, and of 12
# with vectors or of 16 without 1.3 to 1.5 times as fast.
SPLIT_CHAIN = 100
# Solve residual bound, relative to ||A|| ||x|| + ||b||.
SOLVE_TOL = 1e-10
# Largest exponent magnitude at which solve_shifted solves a system as
# given: dividing by a power of two rounds subnormal entries.
LU_EXPONENT = 900
# Largest condition number of T + z that a resolvent accepts.
COND_MAX = 1e14
# Floor of a scaled squared coupling in the pivot sweep: no 0 / 0
# arises, and no eigenvalue moves by more than 2**-500 of the scale.
COUPLING_FLOOR = 2.0**-1000
# Most entries (systems times sites) that one block of the pivot sweep
# scales and shifts at once: 64 kB an array, 128 kB complex.
SWEEP_ENTRIES = 2**13
# Any principal-value phase step at or beyond this magnitude is
# considered undersampled; winding cannot be trusted past pi.
PHASE_STEP_LIMIT = np.pi - 0.1


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class SingularMatrixError(NumericsError):
    """Linear system is singular to working precision."""


class EigenNonConvergenceError(NumericsError):
    """A tridiagonal eigensolver (QL/QR, bisection or inverse iteration) failed."""


class UndersampledLoopError(NumericsError):
    """Phase loop sampled too coarsely to unwrap reliably."""


class WindingResult(NamedTuple):
    winding: int
    residual: float


# One LAPACK's dstev, dstebz and dstein as ctypes functions, each taking
# its arguments by address, in LAPACK's order, then `lengths` once for
# each of its strings; `int` is the ctypes integer they take.
_Lapack = namedtuple("_Lapack", "dstev dstebz dstein int lengths")
# The number of addresses and of strings that each routine takes.
_ROUTINES = {"dstev": (8, 1), "dstebz": (18, 2), "dstein": (13, 0)}


def _bundled_lapack() -> _Lapack | None:
    """numpy's bundled ILP64 LAPACK, or None where it lacks a routine.

    dlsym on the handle of a numpy extension module also searches the
    libraries it links, which include the bundled OpenBLAS; it exports
    each routine as scipy_<name>_64_ (numpy 2) or <name>_64_ (numpy 1.x),
    with 64-bit integers and a length after the other arguments for each
    string."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    routines = []
    for name, (addresses, strings) in _ROUTINES.items():
        fn = getattr(lib, f"scipy_{name}_64_", None) or getattr(lib, f"{name}_64_", None)
        if fn is None:
            return None
        fn.argtypes = (ctypes.c_void_p,) * addresses + (ctypes.c_size_t,) * strings
        fn.restype = None
        routines.append(fn)
    return _Lapack(*routines, ctypes.c_int64, (1,))


@functools.cache
def _scipy_lapack() -> _Lapack:
    """scipy's LP64 LAPACK: the C functions whose pointers the capsules
    of scipy.linalg.cython_lapack.__pyx_capi__ hold, with C ints and no
    string lengths."""
    from scipy.linalg.cython_lapack import __pyx_capi__ as capsules

    py, api = ctypes.py_object, ctypes.pythonapi
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, py)(("PyCapsule_GetName", api))
    ptr = ctypes.PYFUNCTYPE(ctypes.c_void_p, py, ctypes.c_char_p)(("PyCapsule_GetPointer", api))
    routines = []
    for r, (addresses, _) in _ROUTINES.items():
        address = ptr(capsules[r], name(capsules[r]))
        routines.append(ctypes.CFUNCTYPE(None, *(ctypes.c_void_p,) * addresses)(address))
    return _Lapack(*routines, ctypes.c_int, ())


# The LAPACK that every routine here calls: numpy's, and scipy's where
# numpy's build lacks a routine, or where this is set to None.
_LAPACK = _bundled_lapack()


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where it can be
    read, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def dstev(d: np.ndarray, e: np.ndarray, z: np.ndarray | None) -> int:
    """LAPACK dstev in place on each chain of C-contiguous float stacks d
    (m, n), e (m, n - 1) and z (m, n, n), n >= 2, through _LAPACK: d[k]
    becomes chain k's eigenvalues and z[k] its eigenvectors in
    column-major order, e[k] is destroyed.  z None asks for the
    eigenvalues only (JOBZ = "N").  Returns the INFO of the first chain
    that fails, or 0.

    The stack is split into contiguous ranges as the module docstring
    says; a range stops at its first failing chain, and an exception
    raised in a range is raised here once every thread is joined.
    """
    m, n = d.shape
    if e.shape != (m, n - 1) or z is not None and z.shape != (m, n, n) or not all(
        a.dtype == np.float64 and a.flags.c_contiguous for a in (d, e, z) if a is not None
    ):
        raise ValueError("dstev needs C-contiguous float stacks (m, n), (m, n - 1), (m, n, n)")
    lapack = _LAPACK or _scipy_lapack()
    jobz, size = ctypes.c_char(b"N" if z is None else b"V"), lapack.int(n)
    chain = n * n if z is not None else n * n // 2
    count = 1
    if chain >= SPLIT_CHAIN and m * chain >= 2 * SPLIT_WORK:
        count = min(m, _cpus(), m * chain // SPLIT_WORK)
    # Range r is chains bounds[r] to bounds[r + 1], with its own work
    # array and INFO.
    bounds = [m * r // count for r in range(count + 1)]
    works = [np.empty(2 * n - 2) for _ in range(count)]
    infos = [lapack.int() for _ in range(count)]
    errors = [None] * count

    def solve(r):
        # Every pointer is read here, so each buffer LAPACK uses stays
        # referenced while a thread runs.
        jobz_p, size_p, info_p = map(ctypes.addressof, (jobz, size, infos[r]))
        d_p, e_p, work_p = d.ctypes.data, e.ctypes.data, works[r].ctypes.data
        z_p, z_step = (work_p, 0) if z is None else (z.ctypes.data, 8 * n * n)
        # The arguments in LAPACK's order; those of D, E and Z (0 here)
        # move per chain.
        args = [jobz_p, size_p, 0, 0, 0, size_p, work_p, info_p, *lapack.lengths]
        try:
            for k in range(bounds[r], bounds[r + 1]):
                args[2], args[3] = d_p + 8 * n * k, e_p + 8 * (n - 1) * k
                args[4] = z_p + z_step * k
                lapack.dstev(*args)
                if infos[r].value:
                    return
        except BaseException as exc:  # raised again in the calling thread
            errors[r] = exc

    threads = [threading.Thread(target=solve, args=(r,)) for r in range(1, count)]
    try:
        for thread in threads:
            thread.start()
        solve(0)
    finally:
        for thread in threads:
            if thread.ident is not None:  # started
                thread.join()
    for error in errors:
        if error is not None:
            raise error
    return next((info.value for info in infos if info.value), 0)


def eigh_bands(diags: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of the real symmetric tridiagonal chains with
    bands diags (..., n) and offs (..., n - 1), which broadcast.

    Returns eigenvalues (..., n), ascending, and eigenvectors (..., n, n)
    as orthonormal columns.  The bands come validated: float, n >= 1 and
    finite, as model.chain_bands checks every chain's.  LAPACK dstev, the
    driver of scipy.linalg.eigh_tridiagonal(lapack_driver="stev"), so bit
    for bit its results, solves every chain in place in one C-ordered copy
    of the bands and one eigenvector stack, from numpy's bundled OpenBLAS
    with 64-bit integers, else scipy's cython_lapack with C ints (module
    docstring).  ValueError if the band lengths do not form a chain;
    EigenNonConvergenceError if a chain does not converge.
    """
    return _dstev_bands(diags, offs, vectors=True)


def _dstev_bands(diags: np.ndarray, offs: np.ndarray, vectors: bool):
    """eigh_bands, or with vectors False the eigenvalues alone, from dstev
    with JOBZ = "N": dsterf, which np.linalg.eigvalsh runs on the dense
    chain, so its values bit for bit (JOBZ = "V" rounds them otherwise)."""
    n = diags.shape[-1]
    if offs.shape[-1] != n - 1:
        raise ValueError(f"bands of lengths {n} and {offs.shape[-1]} do not form a chain")
    shape = np.broadcast_shapes(diags.shape[:-1], offs.shape[:-1])
    # order="C": the default "K" keeps a broadcast's stride order, and
    # dstev needs each chain's bands contiguous and in stack order.
    vals = np.array(np.broadcast_to(diags, shape + (n,)), dtype=float, order="C")
    if n == 1:
        return vals, np.ones(shape + (1, 1))
    e = np.array(np.broadcast_to(offs, shape + (n - 1,)), dtype=float, order="C")
    # Chain k's vectors, column-major, fill z[k]; the swapped view has
    # them as columns.
    z = np.empty((vals.size // n, n, n)) if vectors else None
    info = dstev(vals.reshape(-1, n), e.reshape(-1, n - 1), z)
    if info > 0:
        raise EigenNonConvergenceError(
            f"tridiagonal eigensolver: {info} off-diagonal entries did not converge"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dstev")
    return vals, z if z is None else np.swapaxes(z.reshape(shape + (n, n)), -1, -2)


def select_eigenvectors(diags, offs, index) -> np.ndarray:
    """Unit eigenvector number index (m,) (0 the lowest) of each of the m
    real symmetric tridiagonal chains with bands diags (m, n) and offs
    (m, n - 1), n >= 2, as the rows of an (m, n) array, in O(n) a chain:
    dstebz bisects for the eigenvalue (RANGE = "I", IL = IU = index + 1,
    ABSTOL = 0; of M > 1 tied ones the lowest) and dstein iterates for its
    vector, one chain at a time on C-ordered copies of the bands, with
    every pointer built once, from eigh_bands' source: its integer arrays
    are 64-bit for numpy's OpenBLAS and C ints for scipy's cython_lapack.
    EigenNonConvergenceError if either returns INFO != 0; ValueError if
    the bands and the indices do not fit one another."""
    d, e = (np.array(b, dtype=float, order="C") for b in (diags, offs))
    if d.ndim != 2 or e.shape != (len(d), d.shape[1] - 1) or len(index) != len(d) or not all(
            0 <= j < d.shape[1] for j in index):
        raise ValueError(f"bands {d.shape} and {e.shape} do not fit the indices {np.ravel(index)}")
    z = np.empty(d.shape)
    lapack, n = _LAPACK or _scipy_lapack(), d.shape[1]
    size, il, found, nsplit, one, info = (lapack.int(v) for v in (n, 0, 0, 0, 1, 0))
    at, zero = ctypes.addressof, ctypes.c_double(0.0)
    w, work = np.empty(n), np.empty(5 * n)  # WORK: dstebz needs 4 n, dstein 5 n
    ints = np.empty(5 * n + 1, lapack.int)  # IBLOCK, ISPLIT, IWORK (3 n for dstebz) and IFAIL
    iblock, isplit, iwork, ifail = (a.ctypes.data for a in np.split(ints, [n, 2 * n, 5 * n]))
    w_p, work_p, d_p, e_p, z_p = (a.ctypes.data for a in (w, work, d, e, z))
    # Each routine's arguments in LAPACK's order; those of D, E and Z (0 here) move per chain.
    stebz = [b"I", b"E", at(size), at(zero), at(zero), at(il), at(il), at(zero), 0, 0, at(found),
             at(nsplit), w_p, iblock, isplit, work_p, iwork, at(info), *lapack.lengths * 2]
    stein = [at(size), 0, 0, at(one), w_p, iblock, isplit, 0, at(size), work_p, iwork,
             ifail, at(info)]
    calls = [("dstebz", lapack.dstebz, stebz), ("dstein", lapack.dstein, stein)]
    for k, j in enumerate(index):
        il.value = j + 1
        stebz[8] = stein[1] = d_p + 8 * n * k
        stebz[9] = stein[2] = e_p + 8 * (n - 1) * k
        stein[7] = z_p + 8 * n * k
        for name, routine, args in calls:
            routine(*args)
            if info.value:
                raise EigenNonConvergenceError(f"{name} failed with INFO = {info.value}")
    return z


def _inf_norm(dz: np.ndarray, offs: np.ndarray) -> np.ndarray:
    """Inf-norm max_i |dz_i| + |e_{i-1}| + |e_i| of the tridiagonal stacks
    with diagonal dz (..., n) and off-diagonal offs (..., n - 1)."""
    e = np.abs(offs)
    rows = np.abs(dz) + np.zeros(e.shape[:-1] + (1,))
    rows[..., 1:] += e
    rows[..., :-1] += e
    return rows.max(axis=-1)


def _ldexp(c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """c * 2**k for complex c and integer k, which broadcast, with no
    complex product: exact unless a part over- or underflows."""
    out = np.empty(np.broadcast_shapes(c.shape, k.shape), complex)
    out.real, out.imag = np.ldexp(c.real, k), np.ldexp(c.imag, k)
    return out


def _chain_system(diags, offs, z):
    """Bands d (..., n) and e (..., n - 1) and shifts z (...) of the
    systems T + z, which broadcast, as float, float and complex arrays,
    and each system's exponent k, of their broadcast stack shape: 2**k
    times its largest band magnitude or part of z lies in [0.5, 1), so
    dividing by 2**-k is exact and leaves no square of an entry able to
    over- or underflow.  Adding 0.0 turns each -0.0 of the bands into
    0.0, as in z I + T for a dense T.  Complex or mis-shaped bands, or
    non-finite input: ValueError."""
    d, e, z = np.asarray(diags), np.asarray(offs), np.asarray(z, dtype=complex)
    if d.dtype.kind == "c" or e.dtype.kind == "c" or d.ndim < 1 or e.ndim < 1:
        raise ValueError(f"need real bands, got {d.dtype} {d.shape} and {e.dtype} {e.shape}")
    if e.shape[-1] != d.shape[-1] - 1:
        raise ValueError(f"bands of lengths {d.shape[-1]} and {e.shape[-1]} do not form a chain")
    if not all(np.isfinite(a).all() for a in (d, e, z)):
        raise ValueError("non-finite entries in linear system")
    big = np.maximum(np.abs(d).max(axis=-1), np.abs(e).max(axis=-1, initial=0.0))
    k = -np.frexp(np.maximum(big, np.maximum(np.abs(z.real), np.abs(z.imag))))[1]
    return d + 0.0, e + 0.0, z, k


def _condition(d, e, z, norm):
    """Condition numbers of the systems T + z, whose inf-norms norm holds,
    in norm's shape, and where each one is exact.

    T + z is complex symmetric and normal, so norm / |Im z| bounds its
    condition number; where the bound exceeds COND_MAX or is not finite
    (Im z = 0), the exact max |lam + z| / min |lam + z| comes from the
    eigenvalues lam of T, once per chain."""
    with np.errstate(all="ignore"):
        cond = np.array(norm / np.abs(z.imag))
        exact = ~(cond <= COND_MAX)
        if exact.any():
            sv = np.abs(_dstev_bands(d, e, vectors=False)[0] + z[..., None])
            sv = np.broadcast_to(sv, cond.shape + sv.shape[-1:])[exact]
            cond[exact] = sv.max(axis=-1) / sv.min(axis=-1)
    return cond, exact


def _singular(cond: np.ndarray, exact: np.ndarray, detail: str = "") -> SingularMatrixError:
    """The refusal of a stack of systems, naming its worst condition
    number (the first NaN, if any) and whether that one is exact."""
    worst = np.argmax(cond)
    kind = "cond" if exact.flat[worst] else "cond bound"
    return SingularMatrixError(
        f"system singular to working precision ({kind} {cond.flat[worst]:.3e}{detail})"
    )


def solve_shifted(diags, offs, z, b) -> np.ndarray:
    """Solve (T + z) x = b for real symmetric tridiagonal chains T and
    complex shifts z.

    T has bands diags (..., n) and offs (..., n - 1); they, z (...) and
    b (..., n) broadcast, like eigh_bands' bands.  A pivoted LU solves
    the dense T + z built from _chain_system's bands, stacked in chunks
    of at most LU_ENTRIES matrix entries (one system at least) in one
    zeroed buffer, whose off-band zeros every chunk keeps; each system's
    LU is its own, so its bits do not depend on the chunks.  A system,
    or a b, whose power-of-two exponent exceeds LU_EXPONENT in magnitude
    is divided by that power first and x multiplied back once; the others
    are solved as given, bit for bit the dense LU.  Each system is
    checked on its bands in O(n), in the inf-norm ||T + z|| = max_i
    |d_i + z| + |e_{i-1}| + |e_i|: SingularMatrixError when the LU fails,
    x is not finite, the residual exceeds SOLVE_TOL (||T + z|| ||x|| +
    ||b||) or the condition number exceeds COND_MAX, as _condition reads
    it (the message says "cond bound" or, where it is exact, "cond").
    Mis-shaped, complex-banded or non-finite input: ValueError.
    """
    d, e, z, k = _chain_system(diags, offs, z)
    b = np.asarray(b, dtype=complex)
    n = d.shape[-1]
    if b.shape[-1:] != (n,) or not np.isfinite(b).all():
        raise ValueError(f"right-hand side {b.shape} does not fit bands of length {n}")
    shape = np.broadcast_shapes(k.shape, b.shape[:-1])
    kb = -np.frexp(np.maximum(np.abs(b.real), np.abs(b.imag)).max(axis=-1, initial=0.0))[1]
    k, kb = (np.where(np.abs(a) > LU_EXPONENT, a, 0) for a in (k, kb[..., None]))
    if k.any():  # scaled bands take the whole stack's shape
        d, e, z = np.ldexp(d, k[..., None]), np.ldexp(e, k[..., None]), _ldexp(z, k)
    if kb.any():
        b = _ldexp(b, kb)
    dz = d + z[..., None]
    # Each system's diagonal, couplings and b as rows, and its x.
    dzs, es, bs = (np.broadcast_to(a, shape + a.shape[-1:]).reshape(math.prod(shape), a.shape[-1])
                   for a in (dz, e, b))
    x = np.empty(dzs.shape, complex)
    step = max(1, LU_ENTRIES // (n * n))
    dense = np.zeros((min(step, len(x)), n * n), complex)  # T + z, row by row
    for s in range(0, len(x), step):
        m, rows = min(step, len(x) - s), slice(s, s + step)
        dense[:m, :: n + 1] = dzs[rows]
        dense[:m, 1 :: n + 1] = dense[:m, n :: n + 1] = es[rows]
        try:  # b as a column
            x[rows] = np.linalg.solve(dense[:m].reshape(m, n, n), bs[rows, :, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(str(exc)) from exc
    x = x.reshape(shape + (n,))
    del dense, dzs, es, bs  # the checks read only the bands
    # A backward-stable LU happily "solves" a singular system with a
    # huge x and a tiny residual, so check conditioning as well.
    norm = np.broadcast_to(_inf_norm(dz, e), shape)
    cond, exact = _condition(d, e, z, norm)
    with np.errstate(all="ignore"):  # singular systems give inf and NaN
        r = dz * x - b  # the residual (T + z) x - b as a band product
        r[..., 1:] += e * x[..., :-1]
        r[..., :-1] += e * x[..., 1:]
        resid = np.abs(r).max(axis=-1)
        scale = norm * np.abs(x).max(axis=-1) + np.abs(b).max(axis=-1)
        if k.any() or kb.any():  # a zero exponent leaves x as it is
            x = _ldexp(x, k[..., None] - kb)
        ok = (cond <= COND_MAX).all() and (resid <= SOLVE_TOL * scale).all()
        ok = ok and np.isfinite(x).all()
    if not ok:
        raise _singular(cond, exact, f", residual {np.max(resid):.3e}")
    return x


def _pivot_blocks(d, e, z, k):
    """Pivots p_i = z + d_i - e_i^2 / p_{i+1} of T + z from the far end,
    for _chain_system's d, e and k and a real or complex z broadcasting to k:
    p_{n-1}, then blocks of at most SWEEP_ENTRIES entries, one row a site,
    the farthest first, each row the stack's systems flattened.  Each
    system is divided by its 2**-k, exactly, and each squared coupling
    raised to at least COUPLING_FLOOR: a zero pivot gives an infinite one,
    never 0 / 0 (the caller sets np.errstate).  Holds one block at a time."""
    zk = np.ldexp(z, k) if z.dtype.kind == "f" else _ldexp(z, k)
    p = np.ravel(np.ldexp(d[..., -1], k) + zk)  # the stack's systems, flattened
    yield p[None]
    step = max(SWEEP_ENTRIES // max(p.size, 1), 1)
    # Bands with as many stack axes as k, so that sites moved first broadcast.
    d, e = (b.reshape((1,) * (k.ndim + 1 - b.ndim) + b.shape) for b in (d, e))
    for stop in range(d.shape[-1] - 1, 0, -step):
        start = max(stop - step, 0)
        a, f2 = (np.ldexp(np.moveaxis(b[..., start:stop], -1, 0)[::-1], k, order="C")
                 for b in (d, e))
        a = (a + zk).reshape(stop - start, p.size)
        f2 = np.maximum(np.square(f2, out=f2), COUPLING_FLOOR, out=f2).reshape(a.shape)
        for ai, fi in zip(a, f2.astype(a.dtype, copy=False)):
            p = np.subtract(ai, np.divide(fi, p, out=fi), out=ai)
        yield a


def corner_resolvent(diags, offs, z) -> np.ndarray:
    """Corner element [(T + z)^-1]_00 of real symmetric tridiagonal chains
    T shifted by complex z, in O(n) per system.

    T has bands diags (..., n) and offs (..., n - 1); they and z (...)
    broadcast, like solve_shifted's, and the result has their broadcast
    stack shape: 1 / p_0 of _pivot_blocks (Haydock's continued fraction),
    scaled back.  The system is refused as solve_shifted refuses it:
    SingularMatrixError when the condition number, as _condition reads
    it, exceeds COND_MAX, or when g is not finite (a zero pivot needs a
    real z).  Where the real bound (max |d| + |z| + 2 max |e|) / |Im z|,
    which is at least the inf-norm's, is within COND_MAX for every
    system, _condition is skipped.  Mis-shaped, complex-banded or
    non-finite input: ValueError.
    """
    d, e, z, k = _chain_system(diags, offs, z)
    with np.errstate(all="ignore"):  # a zero pivot gives inf and NaN
        for p in _pivot_blocks(d, e, z, k):  # only the last block is kept
            pass
        g = _ldexp((1.0 / p[-1]).reshape(k.shape), k)
        # 1 + 2**-40 absorbs the rounding that could put this bound an ulp
        # below the inf-norm's.
        quick = (np.abs(d).max(axis=-1) + np.abs(z) + 2.0 * np.abs(e).max(axis=-1, initial=0.0))
        quick = quick * (1.0 + 2.0**-40) / np.abs(z.imag)
    if np.isfinite(g).all() and (quick <= COND_MAX).all():
        return g
    cond, exact = _condition(d, e, z, _inf_norm(d + z[..., None], e))
    if not (np.isfinite(g).all() and (cond <= COND_MAX).all()):
        raise _singular(cond, exact)
    return g


def sturm_count(diags, offs, x) -> np.ndarray:
    """Number of eigenvalues below the real shift x of each real symmetric
    tridiagonal chain T, in O(n) per system.

    T has bands diags (..., n) and offs (..., n - 1); they and x (...)
    broadcast, like corner_resolvent's bands and z, and the result has
    their broadcast stack shape: the number of negative pivots of T - x
    (Sylvester's law of inertia), _pivot_blocks' at z = -x by their sign
    bits, so a zero pivot of either sign counts once with the infinite
    pivot after it (Barth, Martin and Wilkinson, Numer. Math. 9, 386
    (1967)).  Mis-shaped, complex or non-finite input: ValueError.
    """
    d, e, x, k = _chain_system(diags, offs, x)
    if x.imag.any():
        raise ValueError("a Sturm count needs a real shift")
    with np.errstate(divide="ignore"):
        count = sum(np.signbit(p).sum(axis=0) for p in _pivot_blocks(d, e, -x.real, k))
    return count.reshape(k.shape)[()]  # [()]: a scalar for one system


def reduce_angle(x):
    """Reduce an angle, or an array of angles, to (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def unwrap_winding(phases: np.ndarray) -> WindingResult:
    """Integer winding of a phase list sampled once around a closed loop.

    The first sample corresponds to loop parameter 0 and the loop closes
    back onto it; the closing step is included in the sum.  Consecutive
    principal-value differences must stay below pi in magnitude
    (UndersampledLoopError otherwise), so the winding is unambiguous.
    """
    phi = np.asarray(phases, dtype=float)
    if phi.ndim != 1 or phi.size < 2:
        raise ValueError("need a one-dimensional list of at least two phases")
    if not np.all(np.isfinite(phi)):
        raise ValueError("non-finite phases")
    steps = reduce_angle(np.diff(phi, append=phi[:1]))
    worst = np.abs(steps).max()
    if worst >= PHASE_STEP_LIMIT:
        raise UndersampledLoopError(
            f"phase step of {worst:.3f} rad detected; sample the loop more finely"
        )
    raw = steps.sum() / (2.0 * np.pi)
    winding = int(np.rint(raw))
    return WindingResult(winding, float(raw - winding))


def solid_angle_batch(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angles over stacked unit vectors of shape (..., 3).

    Callers must pass already-normalized vertices.  The sign follows the
    orientation of the vertex order; triples coplanar with the origin
    are degenerate and come out as 0.
    """
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return np.where(np.abs(num) < 1e-14, 0.0, 2.0 * np.arctan2(num, den))
