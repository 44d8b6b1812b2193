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

Everything is built on ``(n_blocks, d, d)`` stacks: ``second_moments`` makes
the moment blocks, ``build_block`` turns a whole stack into the
``(t_act, t_weight)`` stacks in one call (a single block is a stack of one),
and ``build_layer_plan(layer, spec)`` adds the pre-quantized weights for one
:class:`PlanSpec` (kind, scheme, damp, seed), which checks itself once when
built.  Only the eigendecompositions and the weight quantization run block
by block.

A :class:`Layer` holds ``(w, x)``, checked once, and caches the data-only
work per ``(d, damp)``: the moment blocks and the whitened core
``Lam^-1/4 U^T W'^T``.  ``wus`` and ``wush`` plans share that core (``wush``
is ``H @ core``); the orthogonal kinds read no moments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec, NaNInput, NotPositiveDefinite, Overflow, ShapeMismatch
from .linalg import (
    _as_finite, _check_seed, _show, _want, _want_fields, cholesky, hadamard,
    invert, random_rotation, sym_eigen,
)
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


def _check_kind(kind, name: str = "kind") -> None:
    if kind not in TRANSFORM_KINDS:
        raise InvalidSpec(f"{name}: unknown transform kind {_show(kind)}; "
                          f"choose from {TRANSFORM_KINDS}")


def _check_damp(damp) -> float:
    """A ridge: a finite float ``>= 0``."""
    damp = _want("damp", damp, float)
    if not 0.0 <= damp < np.inf:
        raise InvalidSpec(f"damp: must be finite and >= 0, got {damp}")
    return damp


@dataclass(frozen=True)
class PlanSpec:
    """One cell's settings, each field checked and stored as its annotated
    type; ``seed`` must be a non-negative integer for every kind."""

    kind: str
    scheme: QuantScheme
    damp: float = DEFAULT_DAMP
    seed: int = 0

    def __post_init__(self):
        _want_fields(self)
        _want("scheme", self.scheme, QuantScheme)
        _check_kind(self.kind)
        _check_damp(self.damp)
        _check_seed(self.seed)


@dataclass(frozen=True)
class LayerPlan:
    """Everything needed to run the quantized forward pass of one layer.

    Block ``i`` of each stack acts on input rows ``i*d : (i+1)*d``; the sizes
    are read from the stacks' shapes.  Under ``i`` and ``h`` the transform
    stacks are read-only views of one broadcast matrix.
    """

    spec: PlanSpec
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


@dataclass(frozen=True, eq=False)
class Layer:
    """Weights ``w`` (``d_in x d_out``) and activations ``x``
    (``d_in x d_batch``) of one linear layer, checked once.  ``moments`` and
    ``core`` are computed on first use per ``(d, damp)``, then kept
    read-only; the arrays are held, not copied, so do not modify them."""

    w: np.ndarray
    x: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        w = _as_finite(self.w, "weights", 2)
        x = _as_finite(self.x, "activations", 2)
        if w.shape[0] != x.shape[0]:
            raise ShapeMismatch(
                f"weights and activations disagree on d_in: {w.shape[0]} vs {x.shape[0]}"
            )
        if w.shape[1] < 1 or x.shape[1] < 1:
            raise ShapeMismatch("need at least one weight column and one sample")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)

    def moments(self, d: int, damp: float = DEFAULT_DAMP) -> MomentPair:
        """:func:`second_moments` of the layer."""
        key = ("moments", *_check_split(self.w.shape[0], d, damp))
        if key not in self._cache:
            pair = self._cache[key] = second_moments(self.w, self.x, *key[1:])
            for m in (pair.m_w, pair.m_x):
                m.setflags(write=False)
        return self._cache[key]

    def core(self, d: int, damp: float = DEFAULT_DAMP) -> np.ndarray:
        """The whitened core stack ``Lam^-1/4 U^T W'^T`` of :meth:`moments`."""
        key = ("core", *_check_split(self.w.shape[0], d, damp))
        if key not in self._cache:
            pair = self.moments(d, damp)
            self._cache[key] = _whitened_core(pair.m_w, pair.m_x)[0]
            self._cache[key].setflags(write=False)
        return self._cache[key]


def _check_split(d_in: int, d, damp):
    """``(d, damp)`` checked: a ridge ``>= 0`` and a block size dividing ``d_in``."""
    damp = _check_damp(damp)
    d = _want("block size", d, int, ShapeMismatch)
    if d < 1 or d_in % d != 0:
        raise ShapeMismatch(f"d_in ({d_in}) not divisible by block size ({_show(d)})")
    return d, damp


def second_moments(w, x, d: int, damp: float = DEFAULT_DAMP) -> MomentPair:
    """Diagonal ``d x d`` blocks of the damped second moments ``W W^T / d_out``
    and ``X X^T / d_batch``, stacked ``(n_blocks, d, d)``.

    Only the blocks are computed.  The ridge is relative,
    ``damp * mean(diag(raw moment)) * I``; the block diagonals together are
    the full moment's diagonal, so a weak block in a strong layer is damped
    by the layer-wide scale.  Blocks that overflow float64 raise
    :class:`~.errors.Overflow`.
    """
    layer = Layer(w, x)
    d_in = layer.w.shape[0]
    d, damp = _check_split(d_in, d, damp)

    def _moment(a: np.ndarray, name: str) -> np.ndarray:
        a3 = a.reshape(d_in // d, d, a.shape[1])
        with np.errstate(over="ignore", invalid="ignore"):
            m = a3 @ a3.transpose(0, 2, 1) / a.shape[1]
            m = 0.5 * (m + m.transpose(0, 2, 1))
            if damp > 0.0:
                # one row-ordered run: the full moment's diagonal
                diag = np.diagonal(m, axis1=1, axis2=2).ravel()
                m = m + damp * float(np.mean(diag)) * np.eye(d)
        if not np.isfinite(m).all():
            raise Overflow(f"{name} moment blocks overflow float64")
        return m

    return MomentPair(m_w=_moment(layer.w, "weight"), m_x=_moment(layer.x, "activation"))


def _whitened_core(m_w: np.ndarray, m_x: np.ndarray):
    """(core, eigenvalues) stacks: core = Lam^-1/4 U^T W'^T per block, Lam
    clamped and descending."""
    w_prime = cholesky(m_w)
    w_prime_t = w_prime.transpose(0, 2, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        inner = w_prime_t @ m_x @ w_prime
        inner = 0.5 * (inner + inner.transpose(0, 2, 1))
    if not np.isfinite(inner).all():
        raise Overflow("whitened activation moment overflows float64")
    eig = [sym_eigen(m) for m in inner]  # one LAPACK call per block
    u = np.stack([e.eigenvectors for e in eig])
    lam = np.stack([e.eigenvalues for e in eig])
    lam_max = lam[:, :1]
    if not np.all(lam_max > 0.0):
        raise NotPositiveDefinite(
            "whitened activation moment has no positive eigenvalue; raise damp"
        )
    lam_c = np.maximum(lam, EIGEN_CLAMP_REL * lam_max)
    core = lam_c[:, :, None] ** -0.25 * (u.transpose(0, 2, 1) @ w_prime_t)
    return core, lam_c


def _pair(kind: str, shape, seed: int, core):
    """``(t_act, t_weight)`` stacks of ``shape`` for a checked ``kind``; only
    the adaptive kinds call ``core()`` for their whitened core stack."""
    n_blocks, d = shape[:2]
    if kind in ("i", "h"):
        t = np.broadcast_to(np.eye(d) if kind == "i" else hadamard(d), shape)
        return t, t
    if kind == "r":
        children = np.random.SeedSequence(seed).spawn(n_blocks)
        t = np.stack([random_rotation(d, int(c.generate_state(1)[0])) for c in children])
        return t, t
    t_act = hadamard(d) @ core() if kind == "wush" else core()
    return t_act, np.ascontiguousarray(invert(t_act).transpose(0, 2, 1))


def build_block(kind: str, m_w, m_x, seed: int = 0):
    """Transform pairs ``(t_act, t_weight)`` for a ``(n_blocks, d, d)`` stack
    of moment blocks, as two ``(n_blocks, d, d)`` stacks.

    Orthogonal kinds use the same matrix on both sides (the inverse
    transpose of an orthogonal matrix is itself): ``i`` and ``h`` broadcast
    one read-only matrix over the stack, and ``r`` gives block ``i`` the
    rotation seeded by child ``i`` of ``SeedSequence(seed)``; ``seed`` only
    matters for ``r``, but must be a non-negative integer for every kind.
    The adaptive kinds invert numerically.
    """
    _check_kind(kind)
    _check_seed(seed)
    mw = _as_finite(m_w, "m_w", ndim=3)
    mx = _as_finite(m_x, "m_x", ndim=3)
    if mw.shape != mx.shape or mw.shape[1] != mw.shape[2] or mw.shape[0] < 1:
        raise ShapeMismatch(
            f"moment stacks must be matching non-empty stacks of squares, "
            f"got {mw.shape} and {mx.shape}"
        )
    return _pair(kind, mw.shape, seed, lambda: _whitened_core(mw, mx)[0])


def build_layer_plan(layer: Layer, spec: PlanSpec) -> LayerPlan:
    """Per-block transforms and pre-quantized weights for a :class:`Layer`.

    The transform block size equals the scheme's quantization group size;
    ``d_in`` must be divisible by it.  The adaptive kinds take the layer's
    cached core for ``(d, damp)``; the orthogonal ones read no moments.
    ``spec.seed`` seeds the random-rotation blocks (see :func:`build_block`)
    and, if the scheme requests stochastic weight rounding, a stream derived
    from it, drawn block by block.  Transformed weights that overflow
    float64 raise :class:`~.errors.Overflow`.
    """
    layer = _want("layer", layer, Layer)
    spec = _want("spec", spec, PlanSpec)
    d, damp = _check_split(layer.w.shape[0], spec.scheme.group_size, spec.damp)
    n_blocks = layer.w.shape[0] // d
    t_act, t_weight = _pair(spec.kind, (n_blocks, d, d), spec.seed, lambda: layer.core(d, damp))
    with np.errstate(over="ignore", invalid="ignore"):
        w_t = t_weight @ layer.w.reshape(n_blocks, d, layer.w.shape[1])
    wq_rng = None
    if spec.scheme.rounding == ROUND_STOCHASTIC:
        wq_rng = np.random.default_rng(np.random.SeedSequence(entropy=(spec.seed, 0x77)))
    try:
        for w_i in w_t:  # quantized back into the stack, block by block
            w_i[...] = quantize_matrix(w_i, spec.scheme, wq_rng)
    except NaNInput:  # the layer is finite, so t_weight w left float64
        raise Overflow("transformed weights overflow float64") from None
    return LayerPlan(spec, t_act, t_weight, w_t)
