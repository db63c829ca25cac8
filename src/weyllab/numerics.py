"""Dense numerical kernels.

Symmetric tridiagonal eigensolver, shifted complex solves (T + z) x = b,
phase-loop winding extraction, and signed spherical solid angles.
Everything here is a pure function of its inputs.

numpy is the only third-party import.  The eigensolver calls LAPACK dstev through
ctypes from the OpenBLAS that numpy's wheels bundle, which exports it as
scipy_dstev_64_ (numpy 2) or dstev_64_ (numpy 1.x), with 64-bit
integers.  Where numpy's build exports neither (conda, MKL and distro
builds), dstev is scipy.linalg.lapack.dstev, imported on its first call.
Either way one eigh_bands call solves a whole stack of chains in place
in arrays that call allocates, so calls share no state.
"""

from __future__ import annotations

import ctypes
from typing import NamedTuple

import numpy as np

__all__ = [
    "NumericsError",
    "SingularMatrixError",
    "EigenNonConvergenceError",
    "UndersampledLoopError",
    "WindingResult",
    "eigh_bands",
    "solve_shifted",
    "unwrap_winding",
]

# Residual / orthonormality bound, relative to max(1, ||H||_inf).
EIG_TOL = 1e-10
# Solve residual bound, relative to ||A|| ||x|| + ||b||.
SOLVE_TOL = 1e-10
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


def _bundled_dstev(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> int:
    """LAPACK dstev in place on each chain of C-contiguous float stacks d
    (m, n), e (m, n - 1) and z (m, n, n), n >= 2, through numpy's bundled
    LAPACK: d[k] becomes chain k's eigenvalues and z[k] its eigenvectors
    in column-major order, e[k] is destroyed.  Returns the first nonzero
    INFO, or 0."""
    m, n = d.shape
    if e.shape != (m, n - 1) or z.shape != (m, n, n) or not all(
        a.dtype == np.float64 and a.flags.c_contiguous for a in (d, e, z)
    ):
        raise ValueError("dstev needs C-contiguous float stacks (m, n), (m, n - 1), (m, n, n)")
    work = np.empty(2 * n - 2)
    jobz, size, info = ctypes.c_char(b"V"), ctypes.c_int64(n), ctypes.c_int64()
    jobz_p, size_p, info_p = map(ctypes.addressof, (jobz, size, info))
    d_p, e_p, z_p, work_p = (a.ctypes.data for a in (d, e, z, work))
    for k in range(m):
        _LAPACK_DSTEV(
            jobz_p, size_p, d_p + 8 * n * k, e_p + 8 * (n - 1) * k,
            z_p + 8 * n * n * k, size_p, work_p, info_p, 1,
        )
        if info.value:
            return info.value
    return 0


def _scipy_dstev(d: np.ndarray, e: np.ndarray, z: np.ndarray) -> int:
    """_bundled_dstev through scipy.linalg.lapack.dstev, imported on the
    first call."""
    from scipy.linalg.lapack import dstev as scipy_dstev

    for d_k, e_k, z_k in zip(d, e, z):
        vals, vecs, info = scipy_dstev(d_k, e_k)
        if info:
            return info
        d_k[:], z_k[:] = vals, vecs.T
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
    z = np.empty(shape + (n, n))
    info = dstev(vals.reshape(-1, n), e.reshape(-1, n - 1), z.reshape(-1, n, n))
    if info > 0:
        raise EigenNonConvergenceError(
            f"tridiagonal eigensolver: {info} off-diagonal entries did not converge"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dstev")
    return vals, np.swapaxes(z, -1, -2)


def _shifted_singular_values(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Singular values |lam + z| of T + z for stacked real symmetric T.

    T + z is normal, so they follow from the eigenvalues lam of T: one
    real eigvalsh per T, however many shifts, and no SVD.  solve_shifted
    needs them only where _cond_bound cannot vouch for a system, such as
    at Im z = 0.
    """
    return np.abs(np.linalg.eigvalsh(t) + z[..., None])


def _cond_bound(t: np.ndarray, z: np.ndarray) -> np.ndarray:
    """(||T||_inf + |z|) / |Im z| for stacked real symmetric T and shifts z.

    T + z is normal with singular values |lam + z|, and each of them lies
    between |Im z| and ||T||_inf + |z|, so this bounds the 2-norm
    condition number from above.  inf or NaN where Im z = 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        bound = (np.abs(t).sum(axis=-1).max(axis=-1) + np.abs(z)) / np.abs(z.imag)
    return np.asarray(bound)


def _max_column_norm(m: np.ndarray) -> np.ndarray:
    """Largest column 2-norm of stacked complex matrices m: a lower bound
    on ||m||_2, and the 2-norm of column vectors (..., n, 1).  Squares are
    summed over the float view, real and imaginary parts in alternate
    columns, with no conjugate product temporary, and rescaled only where
    a sum over- or underflows."""
    v = m.view(np.float64)
    sq = np.einsum("...ij,...ij->...j", v, v)
    norm2 = (sq[..., 0::2] + sq[..., 1::2]).max(axis=-1)
    if ((2.0**-900 < norm2) & (norm2 < np.inf)).all():
        return np.sqrt(norm2)
    # Dividing each matrix by the power of two just above its largest part
    # (1 for zeros) is exact, and then no square over- or underflows unless
    # it is negligible.
    s = np.ldexp(1.0, np.frexp(np.maximum(v.max(axis=(-2, -1)), -v.min(axis=(-2, -1))))[1])
    v = v / s[..., None, None]
    sq = np.einsum("...ij,...ij->...j", v, v)
    return s * np.sqrt((sq[..., 0::2] + sq[..., 1::2]).max(axis=-1))


def solve_shifted(t, z, b) -> np.ndarray:
    """Solve (T + z) x = b for stacked real symmetric T and complex shifts z.

    t is (..., n, n); z and b (..., n) broadcast against its stack.  One
    stacked pivoted LU solves every system, and each gets one rule:
    SingularMatrixError when the LU fails, x is not finite, the residual
    exceeds SOLVE_TOL (||T + z|| ||x|| + ||b||) or the condition number
    exceeds 1e14, all in the 2-norm.  Bounds settle it without a second
    factorization: ||T + z|| is taken as its largest column norm, which
    only tightens the residual test, and the condition number as
    _cond_bound, except where that exceeds 1e14 or is not finite (Im z =
    0): those systems get the exact value, and the message says "cond"
    rather than "cond bound".  Mis-shaped or non-finite input: ValueError.
    """
    t = np.asarray(t)
    z, b = np.asarray(z, dtype=complex), np.asarray(b, dtype=complex)
    if t.dtype.kind == "c" or t.ndim < 2 or t.shape[-1] != t.shape[-2]:
        raise ValueError(f"need real square matrices, got {t.dtype} {t.shape}")
    if not (np.isfinite(t).all() and np.isfinite(z).all() and np.isfinite(b).all()):
        raise ValueError("non-finite entries in linear system")
    # T + z I bit for bit, in one stack-sized allocation instead of two.
    m = np.empty(np.broadcast_shapes(t.shape[:-2], z.shape) + t.shape[-2:], complex)
    np.multiply(z[..., None, None], np.eye(t.shape[-1]), out=m)
    m += t
    b = b[..., None]  # x and b as columns (..., n, 1)
    try:
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(str(exc)) from exc
    # A backward-stable LU happily "solves" a singular system with a
    # huge x and a tiny residual, so check conditioning as well.
    cond = _cond_bound(t, z)
    exact = ~(cond <= 1e14)
    if exact.any():
        sv = _shifted_singular_values(
            np.broadcast_to(t, m.shape)[exact], np.broadcast_to(z, exact.shape)[exact]
        )
        with np.errstate(all="ignore"):  # singular systems give inf and NaN
            cond[exact] = sv.max(axis=-1) / sv.min(axis=-1)
    with np.errstate(all="ignore"):
        resid = _max_column_norm(m @ x - b)
        scale = _max_column_norm(m) * _max_column_norm(x) + _max_column_norm(b)
    if not ((resid <= SOLVE_TOL * scale).all() and (cond <= 1e14).all()):
        worst = np.argmax(cond)  # the first NaN, if any
        kind = "cond" if exact.flat[worst] else "cond bound"
        raise SingularMatrixError(
            f"system singular to working precision ({kind} {cond.flat[worst]:.3e}, "
            f"residual {np.max(resid):.3e})"
        )
    return x[..., 0]


def _principal(phi: np.ndarray) -> np.ndarray:
    """Wrap angles to the principal branch (-pi, pi]."""
    return np.pi - np.mod(np.pi - phi, 2.0 * np.pi)


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
    steps = _principal(np.diff(phi, append=phi[:1]))
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
