"""Dense helpers for small symmetric problems (block sizes up to a few hundred).

Everything here works on plain float64 ndarrays.  The eigensolver is a
cyclic Jacobi iteration rather than a call into LAPACK's ``syevd`` because
the transform construction needs two behaviours LAPACK does not promise:
already-diagonal input must pass through untouched (so isotropic moments
reduce to the exact Hadamard transform), and eigenvector signs and the
ordering of repeated eigenvalues must be deterministic across platforms.
Cholesky and matrix inversion have no such requirements and simply wrap
``numpy.linalg``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _accel
from .errors import (
    InvalidSpec,
    NaNInput,
    NoConvergence,
    NotPositiveDefinite,
    NotPowerOfTwo,
    NotSymmetric,
    ShapeMismatch,
    Singular,
)

#: Jacobi sweep budget; 64 cyclic sweeps is far beyond what any symmetric
#: matrix of the sizes we handle needs (quadratic convergence kicks in at ~3).
MAX_JACOBI_SWEEPS = 64

#: Converged when the off-diagonal Frobenius norm drops below this multiple
#: of the diagonal's Frobenius norm.
JACOBI_REL_TOL = 1e-12

#: Condition-number estimate (1-norm) above which ``invert`` refuses.
MAX_CONDITION = 1e12


class SymEigen(NamedTuple):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvectors: np.ndarray  # columns are eigenvectors
    eigenvalues: np.ndarray


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name} must be square 2-D, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NaNInput(f"{name} contains non-finite values")
    return a


def _require_symmetric(a: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    skew = float(np.max(np.abs(a - a.T))) if a.size else 0.0
    if skew > 1e-8 * scale:
        raise NotSymmetric(
            f"{name} is not symmetric (max |m - m^T| = {skew:.3e})"
        )


def cholesky(m, damp: float = 0.0) -> np.ndarray:
    """Lower-triangular L with ``L @ L.T == m + damp * mean(diag(m)) * I``.

    ``damp`` is relative: the ridge added is scaled by the mean diagonal of
    ``m``, so the same setting works across layers with wildly different
    activation scales.  Raises :class:`NotPositiveDefinite` when a pivot
    fails even after damping, which is the caller's cue to raise ``damp``.
    """
    a = _as_square(m, "cholesky input")
    _require_symmetric(a, "cholesky input")
    if damp < 0.0:
        raise InvalidSpec(f"damp must be >= 0, got {damp}")
    a = 0.5 * (a + a.T)
    if damp > 0.0 and a.shape[0] > 0:
        ridge = damp * float(np.mean(np.diag(a)))
        a = a + ridge * np.eye(a.shape[0])
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            f"matrix is not positive definite at damp={damp}: {exc}"
        ) from None


def _jacobi_core(a, v, max_sweeps, rel_tol):
    """Cyclic Jacobi sweeps, scalar loops (numba-compilable).

    Mutates ``a`` towards diagonal and accumulates rotations into ``v``.
    Returns the number of sweeps used, or -1 if the budget ran out.
    """
    d = a.shape[0]
    tol_sq = rel_tol * rel_tol
    for sweep in range(max_sweeps + 1):
        off_sq = 0.0
        dia_sq = 0.0
        for i in range(d):
            dia_sq += a[i, i] * a[i, i]
            for j in range(i + 1, d):
                off_sq += 2.0 * a[i, j] * a[i, j]
        if off_sq <= tol_sq * dia_sq:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = 0.5 * (a[q, q] - a[p, p]) / apq
                if tau > 1e150:
                    t = 0.5 / tau
                elif tau < -1e150:
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                for k in range(d):
                    akp = a[k, p]
                    akq = a[k, q]
                    a[k, p] = c * akp - s * akq
                    a[k, q] = s * akp + c * akq
                for k in range(d):
                    apk = a[p, k]
                    aqk = a[q, k]
                    a[p, k] = c * apk - s * aqk
                    a[q, k] = s * apk + c * aqk
                a[p, q] = 0.0
                a[q, p] = 0.0
                for k in range(d):
                    vkp = v[k, p]
                    vkq = v[k, q]
                    v[k, p] = c * vkp - s * vkq
                    v[k, q] = s * vkp + c * vkq
    return -1


def _jacobi_core_np(a, v, max_sweeps, rel_tol):
    """Same sweep schedule as :func:`_jacobi_core`, vectorized row updates."""
    d = a.shape[0]
    tol_sq = rel_tol * rel_tol
    for sweep in range(max_sweeps + 1):
        # Summed in the same sequential order as the scalar core so both
        # backends take identical convergence decisions (and therefore
        # produce bit-identical output).  A vectorized sum would reassociate
        # and, via cancellation, could stop a sweep early.
        off_sq = 0.0
        dia_sq = 0.0
        for i in range(d):
            dia_sq += a[i, i] * a[i, i]
            for j in range(i + 1, d):
                off_sq += 2.0 * a[i, j] * a[i, j]
        if off_sq <= tol_sq * dia_sq:
            return sweep
        if sweep == max_sweeps:
            return -1
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = 0.5 * (a[q, q] - a[p, p]) / apq
                if abs(tau) > 1e150:
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    return -1


_jacobi_core_nb = _accel.jit(_jacobi_core)
_jacobi = _accel.dispatch(_jacobi_core_np, _jacobi_core_nb)


def sym_eigen(m) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    Eigenvalues come back in descending order; ties keep their original
    diagonal index (stable sort), so a scalar matrix ``c * I`` returns the
    identity as its eigenvector matrix exactly.  Each eigenvector is signed
    so its largest-magnitude entry is positive.  Input that is already
    diagonal short-circuits before any rotation, hence passes through with
    its values bit-for-bit intact.
    """
    a = _as_square(m, "sym_eigen input")
    _require_symmetric(a, "sym_eigen input")
    d = a.shape[0]
    work = a.copy()
    vecs = np.eye(d)
    sweeps = _jacobi(work, vecs, MAX_JACOBI_SWEEPS, JACOBI_REL_TOL)
    if sweeps < 0:
        raise NoConvergence(
            f"Jacobi eigensolver did not converge in {MAX_JACOBI_SWEEPS} sweeps"
        )
    vals = np.diag(work).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(d):
        k = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[k, j] < 0.0:
            vecs[:, j] = -vecs[:, j]
    return SymEigen(eigenvectors=np.ascontiguousarray(vecs), eigenvalues=vals)


def hadamard(d: int) -> np.ndarray:
    """Orthonormal Sylvester-Hadamard matrix, entries all ``+-d**-0.5``.

    Only powers of two are constructible; anything else raises
    :class:`NotPowerOfTwo`.
    """
    if not isinstance(d, (int, np.integer)) or d < 1 or (d & (d - 1)) != 0:
        raise NotPowerOfTwo(f"Hadamard size must be a positive power of 2, got {d}")
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    while h.shape[0] < d:
        h = np.kron(h, block)
    return h / math.sqrt(d)


def random_rotation(d: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix, a pure function of ``(d, seed)``.

    Fills a square with seeded standard Gaussians and orthonormalizes the
    columns by modified Gram-Schmidt with one re-orthogonalization pass.
    The implicit R factor has positive diagonal by construction, which is
    exactly the sign convention that makes the Q factor Haar-distributed,
    so no sign fix-up is needed afterwards.
    """
    if d < 1:
        raise ShapeMismatch(f"rotation size must be >= 1, got {d}")
    rng = np.random.default_rng(seed)
    q = np.empty((d, d))
    for j in range(d):
        v = rng.standard_normal(d)
        while True:
            for _ in range(2):
                if j:
                    v = v - q[:, :j] @ (q[:, :j].T @ v)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                break
            v = rng.standard_normal(d)  # essentially dependent draw; retry
        q[:, j] = v / n
    return q


def invert(t) -> np.ndarray:
    """Inverse of a general square matrix (LU with partial pivoting).

    Refuses matrices whose 1-norm condition estimate exceeds
    ``MAX_CONDITION``; the transform pipeline treats that as a signal that
    eigenvalue clamping upstream went wrong.
    """
    a = _as_square(m=t, name="invert input")
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise Singular("matrix is singular") from None
    if not np.isfinite(inv).all():
        raise Singular("inverse overflowed; matrix is numerically singular")
    norm1 = float(np.max(np.abs(a).sum(axis=0))) if a.size else 0.0
    inv_norm1 = float(np.max(np.abs(inv).sum(axis=0))) if inv.size else 0.0
    cond = norm1 * inv_norm1
    if cond > MAX_CONDITION:
        raise Singular(
            f"condition estimate {cond:.3e} exceeds {MAX_CONDITION:.1e}"
        )
    return inv
