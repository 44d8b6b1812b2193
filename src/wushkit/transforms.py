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

from dataclasses import dataclass, field
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
    """Damped second moments of a layer, full size (not yet blocked)."""

    m_w: np.ndarray
    m_x: np.ndarray


@dataclass(frozen=True)
class BlockTransform:
    """Transforms for one diagonal block."""

    kind: str
    block_index: int
    t_act: np.ndarray
    t_weight: np.ndarray
    eigenvalues: Optional[np.ndarray] = None  # clamped, descending; wus/wush only


@dataclass(frozen=True)
class LayerPlan:
    """Everything needed to run the quantized forward pass of one layer."""

    kind: str
    scheme: QuantScheme
    d: int
    d_in: int
    d_out: int
    damp: float
    seed: int
    blocks: tuple
    w_hat_blocks: tuple  # pre-quantized (dequantized) transformed weights

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _as_2d(m, name: str) -> np.ndarray:
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NaNInput(f"{name} contains non-finite values")
    return arr


def second_moments(w, x, damp: float = DEFAULT_DAMP) -> MomentPair:
    """Damped second moments ``W W^T / d_out`` and ``X X^T / d_batch``.

    The ridge is relative, ``damp * mean(diag(raw moment)) * I``, and is
    added to the full moment before any blocks are cut out.
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

    def _moment(a: np.ndarray) -> np.ndarray:
        m = a @ a.T / a.shape[1]
        m = 0.5 * (m + m.T)
        if damp > 0.0:
            m = m + damp * float(np.mean(np.diag(m))) * np.eye(d_in)
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
        return BlockTransform(kind, 0, eye, eye.copy())
    if kind == "h":
        h = hadamard(d)
        return BlockTransform(kind, 0, h, h.copy())
    if kind == "r":
        q = random_rotation(d, seed)
        return BlockTransform(kind, 0, q, q.copy())
    core, lam_c = _whitened_core(mw, mx)
    t_act = hadamard(d) @ core if kind == "wush" else core
    t_weight = invert(t_act).T
    return BlockTransform(kind, 0, t_act, t_weight, eigenvalues=lam_c)


def _rotation_seeds(seed: int, n_blocks: int, shared: bool):
    if shared:
        return [seed] * n_blocks
    ss = np.random.SeedSequence(seed)
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n_blocks)]


def build_layer_plan(
    w,
    x,
    kind: str,
    scheme: QuantScheme,
    damp: float = DEFAULT_DAMP,
    seed: int = 0,
    shared_rotation: bool = False,
) -> LayerPlan:
    """Moments, per-block transforms and pre-quantized weights for a layer.

    The transform block size equals the scheme's quantization group size;
    ``d_in`` must be divisible by it.  Random-rotation blocks get distinct
    seeds derived from ``seed`` and the block index unless
    ``shared_rotation`` asks for one rotation reused everywhere.  Stochastic
    weight rounding (if the scheme requests it) draws from a stream likewise
    derived from ``seed``.
    """
    w_arr = _as_2d(w, "weights")
    x_arr = _as_2d(x, "activations")
    d = scheme.group_size
    d_in = w_arr.shape[0]
    if d_in % d != 0:
        raise ShapeMismatch(f"d_in ({d_in}) not divisible by block size ({d})")
    moments = second_moments(w_arr, x_arr, damp)
    n_blocks = d_in // d
    rot_seeds = _rotation_seeds(seed, n_blocks, shared_rotation)
    wq_rng = None
    if scheme.rounding == ROUND_STOCHASTIC:
        wq_rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x77)))
    blocks = []
    w_hats = []
    for i in range(n_blocks):
        sl = slice(i * d, (i + 1) * d)
        bt = build_block(kind, moments.m_w[sl, sl], moments.m_x[sl, sl], rot_seeds[i])
        bt = BlockTransform(bt.kind, i, bt.t_act, bt.t_weight, bt.eigenvalues)
        blocks.append(bt)
        w_hats.append(quantize_matrix(bt.t_weight @ w_arr[sl, :], scheme, wq_rng))
    return LayerPlan(
        kind=kind,
        scheme=scheme,
        d=d,
        d_in=d_in,
        d_out=w_arr.shape[1],
        damp=damp,
        seed=seed,
        blocks=tuple(blocks),
        w_hat_blocks=tuple(w_hats),
    )
