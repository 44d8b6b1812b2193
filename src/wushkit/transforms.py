"""Blockwise transform construction for paired weight/activation quantization.

For a linear layer ``W^T X`` quantized blockwise, each size-``d`` diagonal
block of the damped second moments ``M_W = W W^T / d_out + ridge`` and
``M_X = X X^T / d_batch + ridge`` yields a pair of transforms:

* activation side: ``t_act = H  Lam^-1/4  U^T  W'^T`` where
  ``W' = cholesky(M_W block)`` and ``(U, Lam)`` eigendecomposes
  ``W'^T M_X W'``;
* weight side: ``t_weight = t_act^-T``, so the product
  ``(t_weight w)^T (t_act x)`` reproduces ``w^T x`` exactly when nothing is
  quantized.

Note the deliberate crossing: the Cholesky factor of the *weight* moment
lands in the transform applied to *activations*, and vice versa.  Dropping
the leading Hadamard gives the ``wus`` variant; ``i``, ``h`` and ``r``
(identity, Hadamard, Haar-random orthogonal) are the orthogonal baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidSpec, NaNInput, NotPositiveDefinite, ShapeMismatch
from .linalg import cholesky, hadamard, invert, random_rotation, sym_eigen
from .quantformats import ROUND_STOCHASTIC, QuantScheme, quantize_matrix

TRANSFORM_KINDS = ("i", "r", "h", "wus", "wush")

#: Eigenvalues of the whitened activation moment are floored at this times
#: the largest one before the fourth-root, keeping t_act finite on
#: rank-deficient blocks at the cost of not equalizing the dead directions.
EIGEN_CLAMP_REL = 1e-10

DEFAULT_DAMP = 0.01


@dataclass(frozen=True)
class MomentPair:
    """Damped diagonal ``d x d`` moment blocks, stacked ``(n_blocks, d, d)``."""

    m_w: np.ndarray
    m_x: np.ndarray


@dataclass(frozen=True)
class BlockTransform:
    """Transforms for one diagonal block."""

    kind: str
    t_act: np.ndarray
    t_weight: np.ndarray
    eigenvalues: Optional[np.ndarray] = None  # clamped, descending; wus/wush only


@dataclass(frozen=True)
class LayerPlan:
    """Everything needed to run the quantized forward pass of one layer.

    Block ``i`` of each stack acts on input rows ``i*d : (i+1)*d``; the sizes
    are read from the stacks' shapes.
    """

    kind: str
    scheme: QuantScheme
    damp: float
    seed: int
    t_act: np.ndarray  # (n_blocks, d, d)
    t_weight: np.ndarray  # (n_blocks, d, d)
    w_hat: np.ndarray  # (n_blocks, d, d_out) pre-quantized (dequantized) t_weight w

    @property
    def n_blocks(self) -> int:
        return self.t_act.shape[0]

    @property
    def d(self) -> int:
        return self.t_act.shape[1]

    @property
    def d_in(self) -> int:
        return self.n_blocks * self.d

    @property
    def d_out(self) -> int:
        return self.w_hat.shape[2]


def _as_2d(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NaNInput(f"{name} contains non-finite values")
    return arr


def second_moments(w, x, d: int, damp: float = DEFAULT_DAMP) -> MomentPair:
    """Diagonal ``d x d`` blocks of the damped second moments ``W W^T / d_out``
    and ``X X^T / d_batch``, stacked ``(n_blocks, d, d)``.

    Only the blocks are computed.  The ridge is relative,
    ``damp * mean(diag(raw moment)) * I``; the block diagonals together are
    the full moment's diagonal, so a weak block in a strong layer is damped
    by the layer-wide scale.
    """
    w_arr = _as_2d(w, "weights")
    x_arr = _as_2d(x, "activations")
    if w_arr.shape[0] != x_arr.shape[0]:
        raise ShapeMismatch(
            f"weights and activations disagree on d_in: {w_arr.shape[0]} vs {x_arr.shape[0]}"
        )
    if w_arr.shape[1] < 1 or x_arr.shape[1] < 1:
        raise ShapeMismatch("need at least one weight column and one sample")
    if damp < 0.0:
        raise InvalidSpec(f"damp must be >= 0, got {damp}")
    d_in = w_arr.shape[0]
    if d < 1 or d_in % d != 0:
        raise ShapeMismatch(f"d_in ({d_in}) not divisible by block size ({d})")

    def _moment(a: np.ndarray) -> np.ndarray:
        a3 = a.reshape(d_in // d, d, a.shape[1])
        m = a3 @ a3.transpose(0, 2, 1) / a.shape[1]
        m = 0.5 * (m + m.transpose(0, 2, 1))
        if damp > 0.0:
            # one row-ordered run: the full moment's diagonal
            diag = np.diagonal(m, axis1=1, axis2=2).ravel()
            m = m + damp * float(np.mean(diag)) * np.eye(d)
        return m

    return MomentPair(m_w=_moment(w_arr), m_x=_moment(x_arr))


def _whitened_core(m_w_block: np.ndarray, m_x_block: np.ndarray):
    """(core, eigenvalues): core = Lam^-1/4 U^T W'^T, Lam clamped."""
    w_prime = cholesky(m_w_block, 0.0)
    inner = w_prime.T @ m_x_block @ w_prime
    inner = 0.5 * (inner + inner.T)
    u, lam = sym_eigen(inner)
    lam_max = float(lam[0])
    if not lam_max > 0.0:
        raise NotPositiveDefinite(
            "whitened activation moment has no positive eigenvalue; raise damp"
        )
    lam_c = np.maximum(lam, EIGEN_CLAMP_REL * lam_max)
    core = lam_c[:, None] ** -0.25 * (u.T @ w_prime.T)
    return core, lam_c


def build_block(
    kind: str, m_w_block, m_x_block, seed: int = 0
) -> BlockTransform:
    """Construct the transform pair for one diagonal moment block.

    ``seed`` only matters for ``kind="r"``.  Orthogonal kinds reuse the same
    matrix on both sides (the inverse transpose of an orthogonal matrix is
    itself); the adaptive kinds invert numerically.
    """
    if kind not in TRANSFORM_KINDS:
        raise InvalidSpec(
            f"unknown transform kind {kind!r}; choose from {TRANSFORM_KINDS}"
        )
    mw = _as_2d(m_w_block, "m_w_block")
    mx = _as_2d(m_x_block, "m_x_block")
    if mw.shape != mx.shape or mw.shape[0] != mw.shape[1]:
        raise ShapeMismatch(
            f"moment blocks must be square and matching, got {mw.shape} and {mx.shape}"
        )
    d = mw.shape[0]
    if kind == "i":
        eye = np.eye(d)
        return BlockTransform(kind, eye, eye.copy())
    if kind == "h":
        h = hadamard(d)
        return BlockTransform(kind, h, h.copy())
    if kind == "r":
        q = random_rotation(d, seed)
        return BlockTransform(kind, q, q.copy())
    core, lam_c = _whitened_core(mw, mx)
    t_act = hadamard(d) @ core if kind == "wush" else core
    t_weight = invert(t_act).T
    return BlockTransform(kind, t_act, t_weight, eigenvalues=lam_c)


def build_layer_plan(
    w,
    x,
    kind: str,
    scheme: QuantScheme,
    damp: float = DEFAULT_DAMP,
    seed: int = 0,
) -> LayerPlan:
    """Moments, per-block transforms and pre-quantized weights for a layer.

    The transform block size equals the scheme's quantization group size;
    ``d_in`` must be divisible by it.  Random-rotation blocks get distinct
    seeds derived from ``seed`` and the block index.  Stochastic weight
    rounding (if the scheme requests it) draws from a stream likewise
    derived from ``seed``, block by block.
    """
    w_arr = _as_2d(w, "weights")
    x_arr = _as_2d(x, "activations")
    d = scheme.group_size
    moments = second_moments(w_arr, x_arr, d, damp)
    n_blocks = moments.m_w.shape[0]
    ss = np.random.SeedSequence(seed)
    rot_seeds = [int(child.generate_state(1)[0]) for child in ss.spawn(n_blocks)]
    blocks = [
        build_block(kind, m_w, m_x, rot_seed)
        for m_w, m_x, rot_seed in zip(moments.m_w, moments.m_x, rot_seeds)
    ]
    t_act = np.stack([bt.t_act for bt in blocks])
    t_weight = np.stack([bt.t_weight for bt in blocks])
    w_t = t_weight @ w_arr.reshape(n_blocks, d, w_arr.shape[1])
    wq_rng = None
    if scheme.rounding == ROUND_STOCHASTIC:
        wq_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x77)))
    w_hat = np.stack([quantize_matrix(w_i, scheme, wq_rng) for w_i in w_t])
    return LayerPlan(kind, scheme, damp, seed, t_act, t_weight, w_hat)
