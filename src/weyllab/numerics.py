"""Numerical kernels.

Symmetric tridiagonal eigensolver, shifted complex solves (T + z) x = b,
the corner resolvent [(T + z)^-1]_00, Sturm counts and single
eigenvectors by bisection and inverse iteration, all on broadcastable
stacks of a chain's two bands, angle reduction, phase-loop winding
extraction, and signed spherical solid angles.  Everything here is a
pure function of its inputs.  The shifted solve factors the dense T + z;
the corner resolvent, the Sturm count and the single eigenvectors are
O(n) per system and shift.  One helper, _chain_system, validates every
system and gives its power-of-two exponent; the corner resolvent and
the Sturm count always divide by that power, which is exact, and the
shifted solve only beyond LU_EXPONENT.  The two resolvents refuse a
system by one conditioning rule, _condition, read from the bands in
their inf-norm.

numpy is the only third-party import.  The eigensolver calls LAPACK dstev through
ctypes from the OpenBLAS that numpy's wheels bundle, which exports it as
scipy_dstev_64_ (numpy 2) or dstev_64_ (numpy 1.x), with 64-bit
integers.  Where numpy's build exports neither (conda, MKL and distro
builds), dstev is scipy.linalg.lapack.dstev, imported on its first call.
Either way one eigh_bands call solves a whole stack of chains in place
in arrays that call allocates, so calls share no state.  The bundled
call releases the interpreter lock, so a stack is split into contiguous
ranges over the CPUs the process may use (its affinity mask, else
os.cpu_count()): one range per CPU at most, each of at least SPLIT_WORK
units of work, and only for chains of at least SPLIT_CHAIN units each.
The calling thread solves the first range and a threading.Thread each
other one, with its own work array and INFO, and every thread is joined
before the call returns; on one CPU none starts.  The scipy fallback
holds the lock, so it stays one loop.
"""

from __future__ import annotations

import ctypes
import os
import threading
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
    "reduce_angle",
    "solve_shifted",
    "unwrap_winding",
]

# Most matrix entries that one block of a stacked kernel holds at once
# (2 MB of complex systems, 1 MB of real eigenvectors); it bounds the
# memory of spectroscopy.reflections and openchain.edge_spectrum.
BLOCK_ENTRIES = 2**17
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
# Floor of a scaled squared coupling in the Sturm recurrence: no 0 / 0
# arises, and no eigenvalue moves by more than 2**-500 of the scale.
COUPLING_FLOOR = 2.0**-1000
# Most entries (systems times sites) that one block of the Sturm sweep
# scales and shifts at once: 64 kB an array.
SWEEP_ENTRIES = 2**13
# Narrowest bracket of _bisect and smallest pivot of _inverse_iteration,
# in units of a system's scale.
SCALED_TOL = 2.0**-52
# Largest width of a bisected bracket relative to its distance from the
# neighbouring eigenvalues: _inverse_iteration's error per solve.
SEPARATION = 2.0**-6
# Shifts per bracket in each multisection sweep (4 bits per sweep).
MULTISECTION = 15
# A bracket's ends and its shifts, as fractions of its width.
_FRACTIONS = np.arange(MULTISECTION + 2) / (MULTISECTION + 1)
# Solves of inverse iteration from the bisected shift.
INVERSE_STEPS = 3
# Any principal-value phase step at or beyond this magnitude is
# considered undersampled; winding cannot be trusted past pi.
PHASE_STEP_LIMIT = np.pi - 0.1


class NumericsError(Exception):
    """Base class for numerical-kernel failures."""


class SingularMatrixError(NumericsError):
    """Linear system is singular to working precision."""


class EigenNonConvergenceError(NumericsError):
    """The tridiagonal QL/QR iteration did not converge."""


class UndersampledLoopError(NumericsError):
    """Phase loop sampled too coarsely to unwrap reliably."""


class WindingResult(NamedTuple):
    winding: int
    residual: float


def _bundled_lapack_dstev():
    """numpy's bundled ILP64 dstev as a ctypes function, or None.

    dlsym on the handle of a numpy extension module also searches the
    libraries it links, which include the bundled OpenBLAS."""
    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, OSError):
        return None
    for name in ("scipy_dstev_64_", "dstev_64_"):
        fn = getattr(lib, name, None)
        if fn is not None:
            # Addresses of JOBZ, N, D, E, Z, LDZ, WORK and INFO, where N,
            # LDZ and INFO are 64-bit integers, then JOBZ's length.
            fn.argtypes = (ctypes.c_void_p,) * 8 + (ctypes.c_size_t,)
            fn.restype = None
            return fn
    return None


_LAPACK_DSTEV = _bundled_lapack_dstev()


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where it can be
    read, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _bundled_dstev(d: np.ndarray, e: np.ndarray, z: np.ndarray | None) -> int:
    """LAPACK dstev in place on each chain of C-contiguous float stacks d
    (m, n), e (m, n - 1) and z (m, n, n), n >= 2, through numpy's bundled
    LAPACK: d[k] becomes chain k's eigenvalues and z[k] its eigenvectors
    in column-major order, e[k] is destroyed.  z None asks for the
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
    jobz, size = ctypes.c_char(b"N" if z is None else b"V"), ctypes.c_int64(n)
    chain = n * n if z is not None else n * n // 2
    count = 1
    if chain >= SPLIT_CHAIN and m * chain >= 2 * SPLIT_WORK:
        count = min(m, _cpus(), m * chain // SPLIT_WORK)
    # Range r is chains bounds[r] to bounds[r + 1], with its own work
    # array and INFO.
    bounds = [m * r // count for r in range(count + 1)]
    works = [np.empty(2 * n - 2) for _ in range(count)]
    infos = [ctypes.c_int64() for _ in range(count)]
    errors = [None] * count

    def solve(r):
        # Every pointer is read here, so each buffer LAPACK uses stays
        # referenced while a thread runs.
        jobz_p, size_p, info_p = map(ctypes.addressof, (jobz, size, infos[r]))
        d_p, e_p, work_p = d.ctypes.data, e.ctypes.data, works[r].ctypes.data
        z_p, z_step = (work_p, 0) if z is None else (z.ctypes.data, 8 * n * n)
        try:
            for k in range(bounds[r], bounds[r + 1]):
                _LAPACK_DSTEV(
                    jobz_p, size_p, d_p + 8 * n * k, e_p + 8 * (n - 1) * k,
                    z_p + z_step * k, size_p, work_p, info_p, 1,
                )
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


def _scipy_dstev(d: np.ndarray, e: np.ndarray, z: np.ndarray | None) -> int:
    """_bundled_dstev through scipy.linalg.lapack.dstev, imported on the
    first call."""
    from scipy.linalg.lapack import dstev as scipy_dstev

    for k in range(len(d)):
        d[k], vecs, info = scipy_dstev(d[k], e[k], compute_v=z is not None)
        if info:
            return info
        if z is not None:
            z[k] = vecs.T
    return 0


# The one dstev that eigh_bands calls.
dstev = _scipy_dstev if _LAPACK_DSTEV is None else _bundled_dstev


def eigh_bands(diags: np.ndarray, offs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of the real symmetric tridiagonal chains with
    bands diags (..., n) and offs (..., n - 1), which broadcast.

    Returns eigenvalues (..., n), ascending, and eigenvectors (..., n, n)
    as orthonormal columns.  The bands come validated: float, n >= 1 and
    finite, as model.chain_bands checks every chain's.  LAPACK dstev, the
    driver of scipy.linalg.eigh_tridiagonal(lapack_driver="stev"), so bit
    for bit its results, solves every chain in place in one C-ordered copy
    of the bands and one eigenvector stack (module docstring).  ValueError
    if the band lengths do not form a chain; EigenNonConvergenceError if
    a chain does not converge.
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
    return d + 0.0, e + 0.0, z, _exponent(d, e, np.maximum(np.abs(z.real), np.abs(z.imag)))


def _exponent(d, e, x) -> np.ndarray:
    """-frexp of the largest magnitude in each chain's bands d (..., n)
    and e (..., n - 1) and in x (...), which broadcast: the k for which
    that magnitude times 2**k lies in [0.5, 1)."""
    big = np.maximum(np.abs(d).max(axis=-1), np.abs(e).max(axis=-1, initial=0.0))
    return -np.frexp(np.maximum(big, x))[1]


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
    b (..., n) broadcast, like eigh_bands' bands.  One stacked pivoted LU
    solves the dense T + z built from _chain_system's bands.  A system,
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
    b, dz = _ldexp(b, kb), d + z[..., None]
    flat = np.zeros(shape + (n * n,), complex)  # the dense T + z, row by row
    flat[..., :: n + 1] = dz
    flat[..., 1 :: n + 1] = flat[..., n :: n + 1] = e
    try:
        x = np.linalg.solve(flat.reshape(shape + (n, n)), b[..., None])[..., 0]  # b as a column
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    del flat  # the checks read only the bands
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
        x = _ldexp(x, k[..., None] - kb)
        ok = (cond <= COND_MAX).all() and (resid <= SOLVE_TOL * scale).all()
        ok = ok and np.isfinite(x).all()
    if not ok:
        raise _singular(cond, exact, f", residual {np.max(resid):.3e}")
    return x


def corner_resolvent(diags, offs, z) -> np.ndarray:
    """Corner element [(T + z)^-1]_00 of real symmetric tridiagonal chains
    T shifted by complex z, in O(n) per system.

    T has bands diags (..., n) and offs (..., n - 1); they and z (...)
    broadcast, like solve_shifted's, and the result has their broadcast
    stack shape.  The continued fraction g <- 1 / (z + d_k - e_k^2 g)
    (Haydock's recursion) is swept from the far end, once for the whole
    stack, on each system divided by its power of two from _chain_system,
    and g is scaled back.  The system is refused as solve_shifted refuses
    it: SingularMatrixError when the condition number, as _condition
    reads it, exceeds COND_MAX, or when g is not finite (a zero
    denominator needs a real z).  Where the real bound (max |d| + |z| +
    2 max |e|) / |Im z|, which is at least the inf-norm's, is within
    COND_MAX for every system, _condition is skipped.  Mis-shaped,
    complex-banded or non-finite input: ValueError.
    """
    d, e, z, k = _chain_system(diags, offs, z)
    n = d.shape[-1]
    zk = _ldexp(z, k)
    with np.errstate(all="ignore"):  # a zero denominator gives inf and NaN
        g = 1.0 / (zk + np.ldexp(d[..., -1], k))
        for i in range(n - 2, -1, -1):
            g = 1.0 / (zk + np.ldexp(d[..., i], k) - np.ldexp(e[..., i], k) ** 2 * g)
        g = _ldexp(g, k)
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
    their broadcast stack shape.  The count is the number of negative
    pivots of T - x (Sylvester's law of inertia), swept from the far end
    as corner_resolvent sweeps T + z, with z = -x: a block of sites at a
    time, at most SWEEP_ENTRIES entries over the stack, is divided by the
    system's power of two, so only that block, the last pivot and the
    count are held.  A pivot counts as negative by its sign bit, and a
    squared coupling is raised to at least COUPLING_FLOOR, so a zero
    pivot of either sign counts once with the infinite pivot after it
    (Barth, Martin and Wilkinson, Numer. Math. 9, 386 (1967)).
    Mis-shaped, complex or non-finite input: ValueError.
    """
    d, e, x, k = _chain_system(diags, offs, x)
    if x.imag.any():
        raise ValueError("a Sturm count needs a real shift")
    return _sturm_sweep(d, e, x.real, k)


def _sturm_sweep(d, e, x, k) -> np.ndarray:
    """sturm_count of the validated bands d (..., n) and e (..., n - 1)
    at real shifts x (...), which broadcast, each system divided by 2**-k
    as _chain_system gives k.

    A block of sites, SWEEP_ENTRIES entries over the stack at most, is
    scaled, shifted and squared (with COUPLING_FLOOR) at once, site first,
    so that each site's step is a subtraction, a division and a sign bit:
    the block bounds the memory, not an (n, stack) pivot array."""
    xk = np.ldexp(x, k)
    q = np.ravel(np.ldexp(d[..., -1], k) - xk)  # the stack's systems, flattened
    count = np.signbit(q).astype(np.intp)
    step = max(SWEEP_ENTRIES // max(q.size, 1), 1)
    # Bands with as many stack axes as k, so that sites moved first broadcast.
    d, e = (b.reshape((1,) * (k.ndim + 1 - b.ndim) + b.shape) for b in (d, e))
    with np.errstate(divide="ignore"):
        for stop in range(d.shape[-1] - 1, 0, -step):
            start = max(stop - step, 0)
            # One row per site, the farthest first, each row's systems contiguous.
            a, f2 = (np.ldexp(np.moveaxis(b[..., start:stop], -1, 0)[::-1], k, order="C")
                     for b in (d, e))
            a = np.subtract(a, xk, out=a).reshape(stop - start, q.size)
            f2 = np.maximum(np.square(f2, out=f2), COUPLING_FLOOR, out=f2).reshape(a.shape)
            neg = np.empty(a.shape, dtype=bool)
            for ai, fi, ni in zip(a, f2, neg):
                q = np.subtract(ai, np.divide(fi, q, out=fi), out=ai)
                np.signbit(q, out=ni)
            count += neg.sum(axis=0)
    return count.reshape(k.shape)[()]  # [()]: a scalar for one system


def _bisect(diags, couplings, index, lo, hi) -> np.ndarray:
    """Eigenvalue number index (m,) (0 the lowest) of each of m real
    symmetric tridiagonal chains, given in [lo, hi] (m,), as far as
    _inverse_iteration needs it.

    The chains' bands are diags (n, m) and couplings (n - 1, m), site
    first, with magnitudes of at most about 1, their scale (every kernel
    here first divides a system by a power of two).  Each sweep takes
    the Sturm counts at MULTISECTION shifts spread evenly over every
    bracket, as one stack, and keeps the slot in which the count passes
    index: bisection (Barth, Martin and Wilkinson 1967, LAPACK dstebz) in
    a quarter of the sweeps.  The counts are sturm_count's bit for bit:
    its sweep, _sturm_sweep, runs with the exponent that _exponent gives
    each shift, as in _chain_system, on bands validated once, not once
    per sweep.  The same counts bound the distance from the bracket to
    the eigenvalues next to its own (none below number 0), and the sweeps
    stop once every bracket is narrower than SEPARATION times that
    distance, or than SCALED_TOL.
    """
    # Each bracket's shifts on the last axis; + 0.0 as in _chain_system.
    d, e = diags.T[:, None] + 0.0, couplings.T[:, None] + 0.0
    rows, j = np.arange(len(index)), index[:, None]
    # No eigenvalue but number index lies in [low, hi) or [hi, high).
    low, high = np.where(index == 0, -np.inf, lo), hi
    while (hi - lo > np.maximum(SEPARATION * np.minimum(lo - low, high - hi), SCALED_TOL)).any():
        x = lo[:, None] + (hi - lo)[:, None] * _FRACTIONS
        shifts = x[:, 1:-1]
        c = _sturm_sweep(d, e, shifts, _exponent(d, e, np.abs(shifts))) - j
        # Shifts below eigenvalue number index - 1, below number index and
        # below number index + 1; monotone counts make each a prefix.
        under, passed, within = (c < 0).sum(axis=1), (c < 1).sum(axis=1), (c < 2).sum(axis=1)
        low = np.where((under == 0) & (low < lo), low, x[rows, np.minimum(under + 1, passed)])
        high = np.where(
            (within == MULTISECTION) & (high > hi), high, x[rows, np.maximum(within, passed + 1)]
        )
        lo, hi = x[rows, passed], x[rows, passed + 1]
    return 0.5 * (lo + hi)


def _inverse_iteration(diags, offs, x) -> np.ndarray:
    """Unit eigenvectors (n, m) of m real symmetric tridiagonal chains for
    their eigenvalues nearest the shifts x (m,).

    The bands are diags (n, m) and offs (n - 1, m), site first, with
    magnitudes of at most about 1.  T - x = L D L^T is factored top down
    with every pivot moved SCALED_TOL away from zero, which changes T by
    no more than rounding does, and INVERSE_STEPS solves follow from one
    fixed pseudo-random start (LAPACK dstein).  With x from _bisect, the
    error of a vector is about SEPARATION^INVERSE_STEPS relative to the
    start's component along it.
    """
    n = len(diags)
    d, e2 = list(diags - x), list(offs**2)
    p = [d[0] + np.copysign(SCALED_TOL, d[0])]  # D
    for i in range(n - 1):
        pivot = d[i + 1] - e2[i] / p[i]
        p.append(pivot + np.copysign(SCALED_TOL, pivot))
    p = np.array(p)
    lower = list(offs / p[:-1])  # L's subdiagonal
    y = np.empty(p.shape)
    y[:] = np.random.default_rng(0).uniform(-1.0, 1.0, n)[:, None]
    rows = list(y)
    for _ in range(INVERSE_STEPS):
        for i in range(1, n):
            rows[i] -= lower[i - 1] * rows[i - 1]
        y /= p
        for i in range(n - 2, -1, -1):
            rows[i] -= lower[i] * rows[i + 1]
        y /= np.abs(y).max(axis=0)
    return y / np.linalg.norm(y, axis=0)


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
