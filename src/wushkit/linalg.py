"""Dense helpers for small symmetric problems (block sizes up to a few hundred).

Everything here works on plain float64 ndarrays and wraps ``numpy.linalg``
(LAPACK).  The eigensolver adds the rules the transform construction relies
on and LAPACK does not promise, as explicit code around ``eigh``:
already-diagonal input passes through untouched (so isotropic moments reduce
to the exact Hadamard transform), eigenvalues are sorted descending with a
stable sort, and each eigenvector's sign is fixed by its largest entry.
Results are deterministic for a given LAPACK build; across builds and
platforms they may differ in the last bits.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

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


def sym_eigen(m) -> SymEigen:
    """Full eigendecomposition of a symmetric matrix (LAPACK ``syevd``).

    Eigenvalues come back in descending order by a stable sort.  Each
    eigenvector is signed so its largest-magnitude entry (the first one, on
    exact ties) is positive.  Input that is already diagonal (every
    off-diagonal entry exactly zero) short-circuits before LAPACK: its values
    pass through bit for bit and ties keep their diagonal index, so a scalar
    matrix ``c * I`` returns the identity as its eigenvector matrix exactly.
    LAPACK reads only the lower triangle; the symmetry check bounds how far
    the upper one may differ.  A LAPACK failure raises :class:`NoConvergence`.
    """
    a = _as_square(m, "sym_eigen input")
    _require_symmetric(a, "sym_eigen input")
    d = a.shape[0]
    if np.count_nonzero(a) == np.count_nonzero(np.diagonal(a)):
        vals, vecs = np.diagonal(a).copy(), np.eye(d)
    else:
        try:
            vals, vecs = np.linalg.eigh(a)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"symmetric eigensolver failed: {exc}") from None
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if d:
        peak = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)]
        vecs[:, peak < 0.0] *= -1.0
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
