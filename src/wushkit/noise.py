"""Quantization noise models and their transform-quality functionals.

Two idealized element-wise quantizers drive the analysis:

* ``FpRelative(b, b_tilde)``: a smoothed shared-scale float format.  A value
  picks up two independent relative perturbations, one from the element
  mantissa (b bits) and one from the shared scale's mantissa (b_tilde bits):
  ``eta = (1 + ln2 * 2**-b * xi) * (1 + ln2 * 2**-b_tilde * xi_t) - 1`` with
  ``xi, xi_t ~ U(-1/2, 1/2)``.
* ``IntAbsmax(bits)``: an integer grid scaled by the vector's absmax, whose
  error is ``|alpha|_inf * eta`` with ``eta = 2**(1-b) * xi`` per coordinate.

For a linear transform ``T`` applied before quantization (and undone after),
the expected squared reconstruction error of a Gaussian vector has a closed
form in the FP model and a two-sided bound chain in the INT model.  Both are
expressed through the generic parameterization ``T = U' S' R^T S^-1 U^T``
where ``(U, S**2)`` eigendecomposes the input's second moment and
``(U', S', R)`` are free: ``fp_trace_term`` evaluates the FP objective and
``int_bounds`` the INT chain.  The FP optimum ``U' = H``, ``S' = S**1/2``,
``R = I`` is not assembled here: it is ``transforms.build_block("wush")``
with ``M_W = I``, which ``wushkit validate`` feeds to ``one_sided_loss_mc``,
the straight Monte Carlo estimate of either loss.

Memory: ``one_sided_loss_mc`` draws ``rows = max(1, _CHUNK_SCALARS // d)``
samples at a time into two preallocated ``(rows, d)`` float64 buffers (512
KiB each, L2-sized) and does the noise algebra in place, with one
``_TILE``-row tile for the FP model's second uniform draw; beyond those it
holds two ``O(rows)`` vectors and ``d x d`` matrices, at any ``n_samples``.
The rows per chunk are part of every estimate; ``_TILE`` is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .errors import InvalidSpec, ShapeMismatch, ValidationError
from .linalg import (
    MAX_ELEMENTS, _as_finite, _as_square, _check_seed, _show, _want, _want_fields,
    cholesky, invert, random_rotation,
)

_LN2 = math.log(2.0)

#: Float64 values per Monte Carlo chunk buffer in ``one_sided_loss_mc``,
#: which draws ``max(1, _CHUNK_SCALARS // d)`` samples per chunk.  The draws
#: are made chunk by chunk, so those rows are part of every estimate.
_CHUNK_SCALARS = 1 << 16

#: Rows per tile of the FP model's second uniform draw in ``_eta_into``.  A
#: split draw continues the same stream, so no estimate depends on it.
_TILE = 256


def _eta_into(model: NoiseModel, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous 2-D ``out`` with ``model``'s eta draws, in place:
    the package's one eta draw, into the ``(rows, d)`` chunk buffer of
    :func:`one_sided_loss_mc`.

    ``FpRelative`` draws its element uniforms ``xi`` into ``out``, then its
    scale uniforms ``xi_t`` ``_TILE`` rows at a time into one tile, both in
    row-major order from ``rng``; ``IntAbsmax`` draws one uniform per entry.
    """
    rng.random(out=out)
    out -= 0.5
    if isinstance(model, IntAbsmax):
        out *= 2.0 ** (1 - model.bits)
        return out
    out *= _LN2 * 2.0 ** -model.mant_bits
    out += 1.0
    c_t = _LN2 * 2.0 ** -model.scale_mant_bits
    tile = np.empty((min(_TILE, len(out)), out.shape[1]))
    for i in range(0, len(out), _TILE):
        rows = out[i:i + _TILE]
        xi_t = tile[:len(rows)]
        rng.random(out=xi_t)
        xi_t -= 0.5
        xi_t *= c_t
        xi_t += 1.0
        rows *= xi_t
        rows -= 1.0
    return out


@dataclass(frozen=True)
class FpRelative:
    """Relative-noise model of a shared-scale float format (SEaMb-style)."""

    mant_bits: int
    scale_mant_bits: int

    def __post_init__(self):
        _want_fields(self)
        if self.mant_bits < 0 or self.scale_mant_bits < 0:
            raise ValidationError("mantissa bit counts must be >= 0")

    def eta_second_moment(self) -> float:
        """Closed-form E[eta^2] (eta has mean zero by construction)."""
        u2 = _LN2 ** 2 * 4.0 ** -self.mant_bits / 12.0
        v2 = _LN2 ** 2 * 4.0 ** -self.scale_mant_bits / 12.0
        return u2 + v2 + u2 * v2


@dataclass(frozen=True)
class IntAbsmax:
    """Absmax-scaled integer-grid noise model."""

    bits: int

    def __post_init__(self):
        _want_fields(self)
        if self.bits < 2:
            raise ValidationError("integer noise model needs bits >= 2")

    def eta_second_moment(self) -> float:
        return 4.0 ** (1 - self.bits) / 12.0


NoiseModel = Union[FpRelative, IntAbsmax]


class LossEstimate(NamedTuple):
    value: float
    se: float


def _as_1d_positive(v, name: str) -> np.ndarray:
    arr = _as_finite(v, name, 1)
    if np.any(arr <= 0.0):
        raise ValidationError(f"{name} must be strictly positive")
    return arr


def _check_orthogonal(q: np.ndarray, name: str, tol: float = 1e-6) -> None:
    d = q.shape[0]
    err = float(np.max(np.abs(q @ q.T - np.eye(d))))
    if not err <= tol:  # NaN (from overflow) fails too
        raise ValidationError(f"{name} is not orthogonal (|QQ^T - I|_max = {err:.2e})")


def fp_trace_term(u_prime, s_prime, r, s) -> float:
    """FP-model loss functional divided by E[eta^2].

    Evaluates ``sum_k |S R S'^-1 U'^T e_k|^2 * |R S' U'^T e_k|^2`` for the
    transform ``T = U' S' R^T S^-1 U^T`` acting on data whose moment has
    singular values ``s**2``.  Equal to ``tr(S^2)`` whenever T is orthogonal
    and lower-bounded by ``(sum s)^2 / d``, attained at ``U' = Hadamard``,
    ``s' = sqrt(s)``, ``R = I``.
    """
    sp = _as_1d_positive(s_prime, "s_prime")
    ss = _as_1d_positive(s, "s")
    up = _as_square(u_prime, "u_prime")
    rr = _as_square(r, "r")
    d = ss.size
    if up.shape != (d, d) or rr.shape != (d, d) or sp.size != d:
        raise ShapeMismatch("fp_trace_term arguments disagree on dimension")
    _check_orthogonal(up, "u_prime")
    _check_orthogonal(rr, "r")
    a = (ss[:, None] * rr) * (1.0 / sp)[None, :] @ up.T  # S R S'^-1 U'^T
    b = (rr * sp[None, :]) @ up.T  # R S' U'^T
    return float(((a * a).sum(axis=0) * (b * b).sum(axis=0)).sum())


class IntBoundChain(NamedTuple):
    lower: float
    upper: float


def int_bounds(s, s_prime) -> IntBoundChain:
    """INT-model loss bounds divided by ``E[eta^2] * E|Ty|_inf^2`` factors.

    For ``T`` with parameters ``(U', s', R = I)`` the loss obeys
    ``lower <= loss / E[eta^2] <= upper`` with
    ``lower = tr(S^2 S'^-2) tr(S'^2) / d`` and
    ``upper = tr(S^2 S'^-2) tr(S'^2)``; the upper bound is minimized, at
    value ``(sum s)^2``, exactly when ``s'`` is proportional to ``sqrt(s)``.
    """
    ss = _as_1d_positive(s, "s")
    sp = _as_1d_positive(s_prime, "s_prime")
    if ss.size != sp.size:
        raise ShapeMismatch("s and s_prime must have matching length")
    inv_sq = float(np.sum(ss * ss / (sp * sp)))
    fwd_sq = float(np.sum(sp * sp))
    return IntBoundChain(lower=inv_sq * fwd_sq / ss.size, upper=inv_sq * fwd_sq)


def one_sided_loss_mc(
    t,
    moment,
    model: NoiseModel,
    n_samples: int,
    seed: int,
) -> LossEstimate:
    """Monte Carlo estimate of ``E |T^-1 eps(T y)|^2`` with the model's eps.

    ``y`` is drawn zero-mean Gaussian with the given second moment.  Returns
    the sample mean and its standard error.  Singular transforms and
    non-positive-definite moments raise through :func:`~wushkit.linalg`.

    Samples are drawn ``rows = max(1, _CHUNK_SCALARS // d)`` at a time
    (part of the estimate) into two ``(rows, d)`` buffers reused for every
    chunk, plus one ``_TILE``-row tile for the FP scale draw (not part of
    the estimate); the per-sample losses, their squares and the INT absmax
    reuse two ``O(rows)`` vectors.
    """
    if not isinstance(model, (FpRelative, IntAbsmax)):
        raise ValidationError(f"model: expected FpRelative or IntAbsmax, got {_show(model)}")
    _want("n_samples", n_samples, int, low=2)
    _check_seed(seed)
    t_arr = _as_square(t, "transform")
    d = t_arr.shape[0]
    chol = cholesky(moment)
    if chol.shape != t_arr.shape:
        raise ShapeMismatch(f"moment {chol.shape} does not match transform {t_arr.shape}")
    t_inv = invert(t_arr)
    rng = np.random.default_rng(seed)
    rows = min(max(1, _CHUNK_SCALARS // d), n_samples)
    buf_a, buf_b = (np.empty((rows, d)) for _ in range(2))
    vec, vec_sq = np.empty(rows), np.empty(rows)
    total = 0.0
    total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(rows, remaining)
        a, b, li, li_sq = buf_a[:m], buf_b[:m], vec[:m], vec_sq[:m]
        rng.standard_normal(out=a)
        np.matmul(a, chol.T, out=b)
        np.matmul(b, t_arr.T, out=a)  # a = T y
        _eta_into(model, rng, b)
        if isinstance(model, IntAbsmax):
            b *= np.abs(a, out=a).max(axis=1, out=li)[:, None]  # |T y|_inf; a, li rewritten next
        else:
            b *= a
        np.matmul(b, t_inv.T, out=a)  # a = T^-1 eps
        np.einsum("ij,ij->i", a, a, out=li)
        total += float(li.sum())
        total_sq += float(np.multiply(li, li, out=li_sq).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return LossEstimate(value=mean, se=math.sqrt(var / n_samples))


def random_spd_moment(d: int, seed: int, spread: float = 1.0):
    """A seeded random SPD second moment with log-normal eigenvalues.

    Returns ``(moment, s)`` where ``s`` holds the descending positive
    standard deviations (so ``moment`` eigendecomposes with eigenvalues
    ``s**2``).  ``spread`` is the log-space sigma: 0 gives the identity
    spectrum, larger values give stronger anisotropy.
    """
    if _want("dimension", d, int, low=1) ** 2 > MAX_ELEMENTS:
        raise InvalidSpec(f"dimension {_show(d)}: d * d exceeds the cap {MAX_ELEMENTS}")
    _check_seed(seed)
    if not 0.0 <= _want("spread", spread, float) < math.inf:
        raise ValidationError(f"spread must be finite and nonnegative, got {spread}")
    rot_seed_ss, eig_ss = np.random.SeedSequence(seed).spawn(2)
    lam = np.exp(
        spread * np.random.default_rng(eig_ss).standard_normal(d)
    )
    lam[::-1].sort()
    q = random_rotation(d, int(rot_seed_ss.generate_state(1)[0]))
    moment = (q * lam[None, :]) @ q.T
    return 0.5 * (moment + moment.T), np.sqrt(lam)
