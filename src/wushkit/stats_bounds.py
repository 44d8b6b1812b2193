"""Dimension-free bounds on E[max_k X_k^2] and their Monte Carlo checks.

For any centered Gaussian vector (no independence assumed):

    E max_k X_k^2  <=  min(d, 2 ln(2 d) + 2) * max_k E X_k^2

and for any vector with Laplacian marginals:

    E max_k X_k^2  <=  (ln(d)^2 / 2 + ln d + 1) * max_k E X_k^2.

Both proofs split the survival-function identity
``E G(X) = integral g(t) P(|X| >= t) dt`` (for ``G(x) = x^2``, ``g(t) = 2 t``)
at a dimension-dependent threshold and union-bound the tail, which is why
correlations cannot break them; the Monte Carlo harness therefore exercises
correlated families (equicorrelated Gaussians, common-factor Laplacians
built as a shared exponential variance mixing a Gaussian) alongside i.i.d.
ones.

``mc_max_sq`` never draws the d coordinates.  ``max_k X_k^2`` is
``(max_k |X_k|)^2``, and the largest of d variables has a closed-form law,
so each sample is a few uniforms ``U, V, W`` on (0, 1) pushed through it
(unit variance shown; ``1 - U^{1/d}`` is always formed as
``-expm1(log(U) / d)`` so the upper tail does not cancel):

* i.i.d. Laplacian, scale ``b = 1/sqrt(2)``: ``|X_k|`` is exponential, so
  ``max_k |X_k| = -b log(1 - U^{1/d})``.
* i.i.d. Gaussian: ``P(max_k |z_k| <= t) = (2 Phi(t) - 1)^d``, so
  ``max_k |z_k| = Phi^{-1}((1 + U^{1/d}) / 2)``.
* common-factor Laplacian: ``X_k = sqrt(E) z_k`` with one exponential
  ``E = -log(V)`` per sample, so the max square is ``E`` times the i.i.d.
  Gaussian one.
* equicorrelated Gaussian: ``X_k = sqrt(rho) g + sqrt(1 - rho) z_k`` is
  convex-squared in ``z_k``, so its max square is the larger of its squares
  at ``z_max`` and ``z_min``.  ``Phi(z_max) = p_max = U^{1/d}``; given
  ``z_max`` the other d - 1 normals are truncated below it, so ``Phi(z_min)``
  is the least of d - 1 uniforms on (0, p_max),
  ``p_min = p_max (1 - (1 - V)^{1/(d-1)})``, with ``1 - V`` drawn as ``V``
  since it is uniform too.  ``g = Phi^{-1}(W)``.  At d = 1 there is no min.

The uniforms do not depend on d, so ``mc_max_sq_dims`` draws each chunk of
them once and pushes it through every requested d as one ``(n_dims, rows)``
array, the dimensions split into groups small enough that a group holds at
most about ``_CHUNK_SCALARS`` live float64 values; ``mc_max_sq`` is its
one-dimension call.  Every d reads the same draws, so each estimate is
bit for bit the one-dimension one, and their errors are correlated across d.

``Phi^{-1}`` is Wichura's AS241, vectorized (``_ndtri``).  The tests check
the estimates against references in ``tests/_oracles.py``: a sampler that
draws every coordinate, and the survival identity itself by adaptive
Simpson quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InvalidCovariance, InvalidSpec
from .linalg import _check_seed, _show, _want

FAMILIES = ("gaussian", "laplacian")

#: Largest ``d`` for ``mc_max_sq``: the samples take ``log(U) / d`` in float64,
#: which holds every integer up to it exactly.
MAX_EXACT_DIMENSION = 2 ** 53
COV_STRUCTURES = ("iid", "correlated")


def _check_bound_args(d: float, max_var: float) -> None:
    if not 1 <= _want("dimension", d, float) < math.inf:
        raise InvalidSpec(f"dimension must be finite and >= 1, got {d}")
    if not 0 <= _want("max_var", max_var, float, InvalidCovariance) < math.inf:
        raise InvalidCovariance(f"variance must be finite and nonnegative, got {max_var}")


def gaussian_max_bound(d: float, max_var: float = 1.0) -> float:
    """``min(d, 2 ln(2 d) + 2) * max_var``; holds for any centered Gaussian."""
    _check_bound_args(d, max_var)
    return min(float(d), 2.0 * math.log(2.0 * d) + 2.0) * max_var


def laplacian_max_bound(d: float, max_var: float = 1.0) -> float:
    """``(ln(d)^2 / 2 + ln d + 1) * max_var`` for Laplacian marginals."""
    _check_bound_args(d, max_var)
    ln_d = math.log(d)
    return (0.5 * ln_d * ln_d + ln_d + 1.0) * max_var


class MaxSqEstimate(NamedTuple):
    empirical: float
    se: float
    bound: float
    d: int
    family: str
    correlated: bool

    def consistent(self) -> bool:
        """True unless the estimate exceeds the bound by more than 3 SE."""
        return self.empirical - 3.0 * self.se <= self.bound


#: Coefficients of AS241 (Wichura 1988, "The percentage points of the normal
#: distribution", Applied Statistics 37), highest power first, as in
#: ``statistics.NormalDist.inv_cdf``: the central rational function in
#: ``r = 0.180625 - q^2`` and the two tail ones in ``r = sqrt(-log(min(p, 1-p)))``
#: (minus 1.6 up to r = 5, minus 5 beyond).
_CENTRAL_NUM = (
    2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
    4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
    1.3314166789178437745e2, 3.3871328727963666080e0,
)
_CENTRAL_DEN = (
    5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
    2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
    4.2313330701600911252e1, 1.0,
)
_NEAR_NUM = (
    7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
    1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
    4.6303378461565452959e0, 1.4234371107496835773e0,
)
_NEAR_DEN = (
    1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
    1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
    2.0531916266377588219e0, 1.0,
)
_FAR_NUM = (
    2.0103343992922881327e-7, 2.7115555687434875781e-5, 1.2426609473880784386e-3,
    2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
    5.4637849111641143699e0, 6.6579046435011037772e0,
)
_FAR_DEN = (
    2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
    7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
    5.9983220655588793769e-1, 1.0,
)

#: float64 values per sample and dimension that one chunk of ``mc_max_sq_dims``
#: holds at its peak, uniforms included (measured with tracemalloc: 17.6 for
#: the equicorrelated Gaussian at d > 1, the largest cell; 4 for the i.i.d.
#: Laplacian).
_LIVE_PER_SAMPLE = 18

#: Live float64 values one chunk of ``mc_max_sq_dims`` may hold (128 MiB); the
#: chunking does not change the result beyond summation order, and the
#: grouping of dimensions not at all.
_CHUNK_SCALARS = 1 << 24

#: Uniforms per sample: ``U`` always, ``V`` for the second variable of the
#: correlated laws, ``W`` for the equicorrelated Gaussian's common factor.
_N_UNIFORMS = {
    ("gaussian", "iid"): 1,
    ("laplacian", "iid"): 1,
    ("laplacian", "correlated"): 2,
    ("gaussian", "correlated"): 3,
}


def _horner(coeffs: tuple, r: np.ndarray) -> np.ndarray:
    acc = np.full_like(r, coeffs[0])
    for c in coeffs[1:]:
        acc *= r
        acc += c
    return acc


def _ndtri(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile ``Phi^{-1}(p)`` for ``p`` in (0, 1), elementwise.

    AS241 with the operations in the order of ``statistics.NormalDist.inv_cdf``,
    which runs the same algorithm on scalars; the tails go through
    ``min(p, 1 - p)``, so ``p`` down to the smallest subnormal is finite.
    """
    p = np.asarray(p, dtype=np.float64)
    q = p - 0.5
    z = np.empty_like(q)
    central = np.abs(q) <= 0.425
    qc = q[central]
    r = 0.180625 - qc * qc
    z[central] = qc * _horner(_CENTRAL_NUM, r) / _horner(_CENTRAL_DEN, r)
    tail = ~central
    lower = q[tail] < 0.0
    r = np.sqrt(-np.log(np.where(lower, p[tail], 1.0 - p[tail])))
    x = np.empty_like(r)
    near = r <= 5.0
    rn = r[near] - 1.6
    x[near] = _horner(_NEAR_NUM, rn) / _horner(_NEAR_DEN, rn)
    far = ~near
    rf = r[far] - 5.0
    x[far] = _horner(_FAR_NUM, rf) / _horner(_FAR_DEN, rf)
    z[tail] = np.where(lower, -x, x)
    return z


def _ndtri_split(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``Phi^{-1}(p)`` from ``p`` and ``q = 1 - p``, each computed accurately.

    The quantile is taken of the smaller of the two, so neither tail rounds
    to 0 or 1.
    """
    z = _ndtri(np.minimum(p, q))
    return np.where(p <= q, z, -z)


def _open_uniforms(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms on the open interval (0, 1), never 0 or 1.

    The lattice ``(k + 1/2) 2^-52`` for ``k < 2^52`` is exact in float64; it
    runs from ``2^-53`` to ``1 - 2^-53``, so no log or quantile of a draw is
    infinite.
    """
    u = rng.integers(0, 1 << 52, size=shape).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -52
    return u


def _max_sq_from_uniforms(
    u: np.ndarray, d, family: str, cov: str, rho: float, var: float
) -> np.ndarray:
    """``max_k X_k^2`` for each row of ``u`` and each dimension ``d``, from
    its order-statistic law.

    ``u`` has shape ``(rows, _N_UNIFORMS[family, cov])`` with entries in
    (0, 1): column 0 is ``U``, column 1 ``V`` and column 2 ``W`` of the module
    docstring.  ``d`` is one dimension, giving ``(rows,)`` values, or an
    ``(n_dims, 1)`` column of them, giving ``(n_dims, rows)``; each entry is
    computed by the same operations either way.  Finite for any such entries.
    """
    d = np.asarray(d, dtype=np.float64)
    lu = np.log(u[:, 0]) / d
    if cov == "iid" and family == "laplacian":
        # -max|X_k| / b, with b^2 = var / 2
        m = np.log(-np.expm1(lu))
        m *= m
        m *= var / 2.0
        return m
    if family == "laplacian" or cov == "iid":
        # -max|z|, the quantile at (1 - U^{1/d}) / 2 <= 1/2
        m = _ndtri(-0.5 * np.expm1(lu))
        m *= m
        m *= -var * np.log(u[:, 1]) if family == "laplacian" else var
        return m
    # equicorrelated Gaussian: the larger square at z_max and at z_min
    g = _ndtri(u[:, 2])
    g *= math.sqrt(rho)
    c = math.sqrt(1.0 - rho)
    p_max = np.exp(lu)
    q_max = np.expm1(lu, out=lu)
    q_max *= -1.0
    m = _ndtri_split(p_max, q_max)
    m *= c
    m += g
    m *= m
    has_min = d > 1
    if has_min.any():
        # at d = 1 the divisor is replaced by 1 and the result left unused
        lv = np.log(u[:, 1]) / np.maximum(d - 1.0, 1.0)
        r = -np.expm1(lv)
        # p_min = p_max r; its complement (1 - r) + r q_max has no cancellation
        q_max *= r
        q_max += np.exp(lv, out=lv)
        r *= p_max
        lo = _ndtri_split(r, q_max)
        lo *= c
        lo += g
        lo *= lo
        np.maximum(m, lo, out=m, where=has_min)
    m *= var
    return m


def mc_max_sq_dims(
    family: str,
    dims,
    cov: str = "iid",
    n_samples: int = 100000,
    seed: int = 0,
    rho: float = 0.5,
    var: float = 1.0,
) -> tuple:
    """:func:`mc_max_sq` at each dimension of ``dims``, from one draw.

    Returns one ``MaxSqEstimate`` per entry of ``dims``, each equal bit for
    bit to ``mc_max_sq`` at that dimension with the same other arguments.
    The uniforms do not depend on ``d``, so each chunk of them is drawn once
    and pushed through every dimension as one ``(n_dims, rows)`` array, the
    dimensions split into groups so that a group holds at most about
    ``_CHUNK_SCALARS`` live float64 values.  All dimensions read the same
    uniforms (common random numbers), so their errors are correlated.
    Every argument, each dimension included, is checked before any draw.
    """
    if family not in FAMILIES:
        raise InvalidSpec(f"family must be one of {FAMILIES}, got {_show(family)}")
    if cov not in COV_STRUCTURES:
        raise InvalidSpec(f"cov must be one of {COV_STRUCTURES}, got {_show(cov)}")
    dims = _want("dims", dims, tuple[int, ...], low=1)
    for d in dims:
        if d > MAX_EXACT_DIMENSION:
            raise InvalidSpec(f"dimension {_show(d)} exceeds 2**53, past exact float64 integers")
    _want("n_samples", n_samples, int, low=2)
    _check_seed(seed)
    if not 0.0 <= _want("rho", rho, float, InvalidCovariance) < 1.0:
        raise InvalidCovariance(f"rho must lie in [0, 1), got {rho}")
    if not 0.0 < _want("var", var, float, InvalidCovariance) < math.inf:
        raise InvalidCovariance(f"var must be positive and finite, got {var}")
    if not dims:
        return ()
    rng = np.random.default_rng(seed)
    n_uniforms = _N_UNIFORMS[family, cov]
    rows_per_chunk = max(1, _CHUNK_SCALARS // _LIVE_PER_SAMPLE)
    column = np.array(dims, dtype=np.float64)[:, None]
    total = [0.0] * len(dims)
    total_sq = [0.0] * len(dims)
    remaining = n_samples
    while remaining > 0:
        rows = min(rows_per_chunk, remaining)
        u = _open_uniforms(rng, (rows, n_uniforms))
        group = max(1, _CHUNK_SCALARS // (_LIVE_PER_SAMPLE * rows))
        for start in range(0, len(dims), group):
            m = _max_sq_from_uniforms(u, column[start:start + group], family, cov, rho, var)
            for i, row in enumerate(m, start):  # summed as a one-dimension call sums it
                total[i] += float(row.sum())
                total_sq[i] += float((row * row).sum())
        remaining -= rows
    bound_fn = gaussian_max_bound if family == "gaussian" else laplacian_max_bound
    estimates = []
    for d, t, t_sq in zip(dims, total, total_sq):
        mean = t / n_samples
        var_hat = max(t_sq / n_samples - mean * mean, 0.0)
        var_hat *= n_samples / (n_samples - 1)
        estimates.append(MaxSqEstimate(
            empirical=mean,
            se=math.sqrt(var_hat / n_samples),
            bound=bound_fn(d, var),
            d=d,
            family=family,
            correlated=(cov == "correlated"),
        ))
    return tuple(estimates)


def mc_max_sq(
    family: str,
    d: int,
    cov: str = "iid",
    n_samples: int = 100000,
    seed: int = 0,
    rho: float = 0.5,
    var: float = 1.0,
) -> MaxSqEstimate:
    """Monte Carlo estimate of ``E max_k X_k^2`` with its standard error.

    All marginals share the variance ``var`` so the matching closed-form
    bound (reported in the result) uses ``max_var = var``.  Each sample is
    drawn in O(1), independent of ``d``, from the law of the maximum (see the
    module docstring): one to three open-interval uniforms, pushed through
    the closed-form quantiles.  Memory use is bounded by drawing in chunks
    of at most about ``_CHUNK_SCALARS`` live float64 values.  This is
    :func:`mc_max_sq_dims` at the one dimension ``d``.
    """
    (est,) = mc_max_sq_dims(family, (d,), cov, n_samples, seed, rho, var)
    return est
