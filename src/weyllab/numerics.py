"""Dense numerical kernels.

Symmetric tridiagonal eigensolver, shifted complex solves (T + z) x = b,
phase-loop winding extraction, and signed spherical solid angles.
Everything here is a pure function of its inputs.

numpy is the only third-party import.  The eigensolver calls LAPACK dstev through
ctypes from the OpenBLAS that numpy's wheels bundle, which exports it as
scipy_dstev_64_ (numpy 2) or dstev_64_ (numpy 1.x), with 64-bit
integers.  Where numpy's build exports neither (conda, MKL and distro
builds), dstev is scipy.linalg.lapack.dstev, imported on its first call.
The ctypes path keeps one scratch workspace per chain size and thread;
every call overwrites it whole and returns copies, so no state passes
from one call to the next.
"""

from __future__ import annotations

import ctypes
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
            # Pointers to JOBZ, N, D, E, Z, LDZ, WORK and INFO, then JOBZ's
            # length.  All eight as c_void_p: ctypes converts those
            # fastest, and _DstevWorkspace fixes what they point to.
            fn.argtypes = (ctypes.c_void_p,) * 8 + (ctypes.c_size_t,)
            fn.restype = None
            return fn
    return None


class _DstevWorkspace:
    """Buffers and the ready argument tuple of dstev for one chain size n.

    Everything the arguments point to is owned here, so it outlives
    every call; N, LDZ and INFO are 64-bit integers, and z is
    Fortran-ordered with leading dimension n."""

    def __init__(self, n: int):
        self.d, self.e = np.empty(n), np.empty(n - 1)
        self.z, self.work = np.empty((n, n), order="F"), np.empty(max(2 * n - 2, 1))
        self.jobz = ctypes.create_string_buffer(b"V")
        self.n, self.info = ctypes.c_int64(n), ctypes.c_int64()
        addresses = (
            ctypes.addressof(self.jobz), ctypes.addressof(self.n), self.d.ctypes.data,
            self.e.ctypes.data, self.z.ctypes.data, ctypes.addressof(self.n),
            self.work.ctypes.data, ctypes.addressof(self.info),
        )
        self.args = tuple(map(ctypes.c_void_p, addresses)) + (ctypes.c_size_t(1),)


class _Workspaces(threading.local):
    """Each thread's dstev workspaces, by chain size."""

    def __init__(self):
        self.by_size: dict[int, _DstevWorkspace] = {}


_LAPACK_DSTEV = _bundled_lapack_dstev()
_workspaces = _Workspaces()


def _bundled_dstev(d: np.ndarray, e: np.ndarray):
    """scipy.linalg.lapack.dstev(d, e) through numpy's bundled LAPACK:
    (eigenvalues, Fortran-ordered eigenvectors, info) of 1-D float bands
    d (n,) and e (n - 1,), n >= 1."""
    n = d.size
    if d.ndim != 1 or e.shape != (n - 1,):
        raise ValueError(f"dstev needs bands of shapes (n,), (n - 1,); got {d.shape}, {e.shape}")
    work = _workspaces.by_size.get(n)
    if work is None:
        work = _workspaces.by_size[n] = _DstevWorkspace(n)
    work.d[:] = d
    work.e[:] = e
    _LAPACK_DSTEV(*work.args)
    return work.d.copy(), work.z.copy(order="F"), work.info.value


def _scipy_dstev(d: np.ndarray, e: np.ndarray):
    """scipy.linalg.lapack.dstev(d, e), imported on the first call."""
    from scipy.linalg.lapack import dstev as scipy_dstev

    return scipy_dstev(d, e)


# The one dstev that eigh_bands calls.
dstev = _scipy_dstev if _LAPACK_DSTEV is None else _bundled_dstev


def eigh_bands(
    diag: np.ndarray, offdiag: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the real symmetric tridiagonal matrix
    with bands diag and offdiag.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The bands come validated:
    float arrays of lengths n >= 1 and n - 1, finite, as
    model.chain_bands checks every chain's.  One LAPACK dstev call (the
    implicit-shift QL/QR iteration), the driver that scipy.linalg's
    tridiagonal eigensolver runs with lapack_driver="stev", so the
    results are bit for bit the same.  The call goes to numpy's bundled
    LAPACK, or to scipy's where numpy's build does not export dstev
    (module docstring).  EigenNonConvergenceError if it does not
    converge.
    """
    if diag.size == 1:
        return diag.copy(), np.ones((1, 1))
    vals, vecs, info = dstev(diag, offdiag)
    if info > 0:
        raise EigenNonConvergenceError(
            f"tridiagonal eigensolver: {info} off-diagonal entries did not converge"
        )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dstev")
    return vals, vecs


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


def _norm_lower_bound(m: np.ndarray) -> np.ndarray:
    """Largest column 2-norm of stacked complex matrices m, a lower bound on
    ||m||_2.  Squares are summed over the float view, real and imaginary
    parts in alternate columns, with no conjugate product temporary."""
    v = m.view(np.float64)
    s = np.einsum("...ij,...ij->...j", v, v)
    return np.sqrt((s[..., 0::2] + s[..., 1::2]).max(axis=-1))


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
    try:
        x = np.linalg.solve(m, b[..., None])[..., 0]
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
        resid = np.linalg.norm((m @ x[..., None])[..., 0] - b, axis=-1)
        norm_x, norm_b = np.linalg.norm(x, axis=-1), np.linalg.norm(b, axis=-1)
        scale = _norm_lower_bound(m) * norm_x + norm_b
    if not ((resid <= SOLVE_TOL * scale).all() and (cond <= 1e14).all()):
        worst = np.argmax(cond)  # the first NaN, if any
        kind = "cond" if exact.flat[worst] else "cond bound"
        raise SingularMatrixError(
            f"system singular to working precision ({kind} {cond.flat[worst]:.3e}, "
            f"residual {np.max(resid):.3e})"
        )
    return x


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
