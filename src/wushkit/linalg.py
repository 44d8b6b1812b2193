"""Dense helpers for small symmetric problems (block sizes up to a few hundred).

Everything here works on plain float64 ndarrays and wraps ``numpy.linalg``
(LAPACK).  ``cholesky`` and ``invert`` also take ``(..., d, d)`` stacks and
apply their checks to each matrix of the stack; ``sym_eigen`` takes exactly
one matrix.  The eigensolver adds the rules the transform construction relies
on and LAPACK does not promise, as explicit code around ``eigh``:
already-diagonal input passes through untouched (so isotropic moments reduce
to the exact Hadamard transform), eigenvalues are sorted descending with a
stable sort, and each eigenvector's sign is fixed by its largest entry.
Results are deterministic for a given LAPACK build; across builds and
platforms they may differ in the last bits.

The private ``_want`` is the package's one scalar check: every public entry
reads its integer, real, string and list parameters through it, a
dataclass through ``_want_fields`` (its annotations are its schema), and a
seed through ``_check_seed``, which adds only the sign rule; a refusal
prints the value through ``_show``, which can print any integer.
``_as_float64`` is the one conversion of an input array (float64, dimension
count, an integer past the float range refused as non-finite), and
``_as_finite`` adds the finite-entries check.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import NamedTuple, Optional, Union, get_args, get_origin, get_type_hints

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

#: Element cap of any array the package reads or draws (``tensorio`` files,
#: ``d x d`` rotations and moments).
MAX_ELEMENTS = 1 << 32


class SymEigen(NamedTuple):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""

    eigenvectors: np.ndarray  # columns are eigenvectors
    eigenvalues: np.ndarray


def _as_float64(m, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """``m`` as float64 (not copied if it is already) with ``ndim``
    dimensions (any, if None); an integer past the float range is refused as
    non-finite."""
    try:
        a = np.asarray(m, dtype=np.float64)
    except OverflowError:  # a Python integer past the float range
        raise NaNInput(f"{name} contains an integer past the float range") from None
    if ndim is not None and a.ndim != ndim:
        raise ShapeMismatch(f"{name} must be {ndim}-D, got shape {a.shape}")
    return a


def _as_finite(m, name: str, ndim: Optional[int] = None) -> np.ndarray:
    """:func:`_as_float64`, with non-finite entries refused."""
    a = _as_float64(m, name, ndim)
    if not np.isfinite(a).all():
        raise NaNInput(f"{name} contains non-finite values")
    return a


def _show(value) -> str:
    """``repr(value)``, or the bit length of an integer too long to print."""
    try:
        return repr(value)
    except ValueError:  # past sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def _want(name: str, value, kind, error=InvalidSpec, low=None):
    """``value`` as ``kind``, or ``error`` naming ``name``.  ``int`` is any
    integral number, ``float`` any real one, neither a bool (numpy's
    included) and both at least ``low`` if it is given; ``tuple[item, ...]``
    is a list, tuple or 1-D array of items; ``bool`` (numpy's stored as
    ``bool``), a ``Union`` of classes and other kinds are ``isinstance``."""
    if type(value) is kind and kind is not int and kind is not float:
        return value  # the common case, kept cheap for per-block entry checks
    if get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple, np.ndarray)):
            raise error(f"{name}: expected list, got {type(value).__name__}")
        item = get_args(kind)[0]
        return tuple(_want(f"{name}[{i}]", v, item, error, low) for i, v in enumerate(value))
    if kind is int or kind is float:
        ok = isinstance(value, numbers.Integral if kind is int else numbers.Real)
        if isinstance(value, bool) or not ok or not (low is None or value >= low):
            what = "an integer" if kind is int else "a number"
            at_least = "" if low is None else f" >= {low}"
            raise error(f"{name}: expected {what}{at_least}, got {_show(value)}")
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            raise error(f"{name}: expected a number, got an integer past the float range") from None
    if kind is bool and isinstance(value, np.bool_):
        value = bool(value)
    classes = get_args(kind) if get_origin(kind) is Union else (kind,)
    if not isinstance(value, classes):
        want = " or ".join(c.__name__ for c in classes)
        raise error(f"{name}: expected {want}, got {type(value).__name__}")
    return value


_hints = lru_cache(maxsize=None)(get_type_hints)  # a class's resolved annotations


def _want_fields(obj) -> None:
    """Pass each field of the dataclass ``obj`` annotated ``int``, ``float``,
    ``str``, ``bool``, ``tuple[item, ...]`` or a ``Union`` of classes through
    ``_want`` and store the result (None passes under ``Optional``)."""
    for name, kind in _hints(type(obj)).items():
        value = getattr(obj, name)
        if type(None) in get_args(kind):
            if value is None:
                continue
            kind = get_args(kind)[0]
        if kind in (int, float, str, bool) or get_origin(kind) in (tuple, Union):
            object.__setattr__(obj, name, _want(name, value, kind))


def _check_seed(seed, name: str = "seed") -> int:
    """A seed numpy accepts: a non-negative integer, returned as ``int``."""
    return _want(name, seed, int, low=0)


def _as_square(m, name: str = "matrix", stacked: bool = False) -> np.ndarray:
    """``m`` as float64: one square matrix, or with ``stacked`` a
    ``(..., d, d)`` stack of them; non-finite entries are refused."""
    a = _as_float64(m, name)
    if a.ndim < 2 or (a.ndim > 2 and not stacked) or a.shape[-1] != a.shape[-2]:
        want = "a (..., d, d) stack" if stacked else "square 2-D"
        raise ShapeMismatch(f"{name} must be {want}, got shape {a.shape}")
    return _as_finite(a, name)


def _norm1(a: np.ndarray) -> np.ndarray:
    """1-norm (largest absolute column sum) of each matrix in a stack."""
    return np.abs(a).sum(axis=-2).max(axis=-1, initial=0.0)


def _require_symmetric(a: np.ndarray, name: str) -> None:
    """Each matrix's skew is judged against that matrix's own scale."""
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    skew = np.abs(a - np.swapaxes(a, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(skew > 1e-8 * scale):
        raise NotSymmetric(
            f"{name} is not symmetric (max |m - m^T| = {float(skew.max()):.3e})"
        )


def cholesky(m) -> np.ndarray:
    """Lower-triangular ``L`` with ``L @ L.T == m``, for one matrix or each
    matrix of a ``(..., d, d)`` stack.

    The input is symmetrized first; the symmetry check bounds how far it may
    be from symmetric.  Raises :class:`NotPositiveDefinite` when a pivot of
    any matrix fails; moments are damped before they get here (see
    ``transforms.second_moments``), so that is the caller's cue to raise
    ``damp``.
    """
    a = _as_square(m, "cholesky input", stacked=True)
    _require_symmetric(a, "cholesky input")
    a = 0.5 * (a + np.swapaxes(a, -1, -2))
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"matrix is not positive definite: {exc}") from None


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
    :class:`NotPowerOfTwo`.  The matrix is built once per size and shared,
    so it is read-only.
    """
    d = _want("Hadamard size", d, int, NotPowerOfTwo)
    if d < 1 or (d & (d - 1)) != 0:
        raise NotPowerOfTwo(f"Hadamard size must be a positive power of 2, got {_show(d)}")
    return _hadamard(d)


@lru_cache(maxsize=8)
def _hadamard(d: int) -> np.ndarray:
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    while h.shape[0] < d:
        h = np.kron(h, block)
    h /= math.sqrt(d)
    h.setflags(write=False)
    return h


def random_rotation(d: int, seed: int) -> np.ndarray:
    """Haar-distributed orthogonal matrix, a pure function of ``(d, seed)``.

    QR-factorizes a square of seeded standard Gaussians (LAPACK Householder)
    and flips each column of Q to make R's diagonal positive.  Without that
    sign fix the Householder signs leak into Q and it is not Haar (Mezzadri,
    arXiv:math-ph/0609050).
    """
    d = _want("rotation size", d, int, ShapeMismatch, low=1)
    if d * d > MAX_ELEMENTS:
        raise ShapeMismatch(f"rotation size {_show(d)}: d * d exceeds the cap {MAX_ELEMENTS}")
    seed = _check_seed(seed)
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)


def invert(t) -> np.ndarray:
    """Inverse of a general square matrix, or of each matrix of a
    ``(..., d, d)`` stack (LU with partial pivoting).

    Refuses a matrix whose 1-norm condition estimate exceeds
    ``MAX_CONDITION``, judged matrix by matrix; the transform pipeline treats
    that as a signal that eigenvalue clamping upstream went wrong.
    """
    a = _as_square(t, "invert input", stacked=True)
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise Singular("matrix is singular") from None
    if not np.isfinite(inv).all():
        raise Singular("inverse overflowed; matrix is numerically singular")
    cond = _norm1(a) * _norm1(inv)
    if np.any(cond > MAX_CONDITION):
        raise Singular(
            f"condition estimate {float(np.max(cond)):.3e} exceeds {MAX_CONDITION:.1e}"
        )
    return inv
