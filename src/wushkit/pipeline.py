"""Layer-level quantized forward pass, losses, sweeps and synthetic data.

The quantized layer output is ``sum_i w_hat_i^T q(t_act_i x_i)`` over the
transform blocks, with the activations quantized per ``d x 1`` sub-column
on the fly.  The layer loss is the per-element normalized squared error

    loss = |q(T_W W)^T q(T_X X) - W^T X|_F^2 / (d_out * d_batch)

reported alongside the raw squared Frobenius norm (both appear in reports
because either normalization is common in practice).  Blockwise losses use
the same normalization, and because quantization errors of different blocks
are nearly uncorrelated their sum tracks the layer loss; the relative gap
between the two is reported, not asserted.

Losses are evaluated in factored form from one pass over the blocks.  With
``w~_i = t_weight_i w_i``, ``x~_i = t_act_i x_i`` and ``q_i = q(x~_i)``, block
``i``'s error ``w_hat_i^T q_i - w~_i^T x~_i`` is ``a_i^T b_i`` with
``a_i = [w_hat_i - w~_i ; w~_i]`` and ``b_i = [q_i ; q_i - x~_i]``, a sum of
error-sized terms.  With ``A``, ``B`` the ``k = 2 d_in`` stacked rows, the
squared layer error is ``<A A^T, B B^T>_F`` from two ``k x k`` Grams when
``k (d_out + d_batch) <= d_out d_batch``, else ``|A^T B|_F^2`` from one
product, the only ``d_out x d_batch`` array made.  Block losses are
``<a_i a_i^T, b_i b_i^T>_F``: on the Gram side the ``2d x 2d`` Grams are the
diagonal blocks of the two ``k x k`` ones, otherwise they are made per block.

The plan-building and scoring functions take a :class:`~.transforms.Layer`:
``build_layer_plan(layer, kind, scheme, damp, seed)``,
``evaluate(plan, layer)`` and ``sweep_cell(layer, ...)``, so the cells of one
layer share its array checks, moments and whitened cores.  ``sweep`` builds
one ``Layer`` per data seed; ``layer_loss(w, x, ...)`` and
``first_order_gap(w, x, ...)`` build one at entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidCovariance, InvalidSpec, NaNInput, Overflow, ShapeMismatch
from .linalg import _as_finite, _check_seed, _want, _want_fields, random_rotation
from .quantformats import ROUND_STOCHASTIC, QuantScheme, quantize_matrix
from .tensorio import MAX_ELEMENTS
from .transforms import DEFAULT_DAMP, Layer, LayerPlan, build_layer_plan

SYNTH_TAILS = ("gaussian", "laplacian", "student_t")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic anisotropic heavy-tailed layer."""

    d_in: int
    d_out: int
    d_batch: int
    spectrum_power: float = 1.0  # covariance eigenvalue decay (k+1)**-p
    spectrum_values: Optional[tuple[float, ...]] = None  # explicit eigenvalues instead
    tail: str = "student_t"
    tail_dof: float = 4.0
    outlier_count: int = 0  # outlier entries injected per activation column
    outlier_magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        """Checks each field and stores it as its annotated type."""
        _want_fields(self)
        _check_seed(self.seed)
        if min(self.d_in, self.d_out, self.d_batch) < 1:
            raise InvalidSpec("d_in, d_out, d_batch: synthetic dims must all be >= 1")
        if self.d_in * max(self.d_out, self.d_batch) > MAX_ELEMENTS:
            raise InvalidSpec(f"d_in, d_out, d_batch: W or X over the WTEN cap of {MAX_ELEMENTS}")
        if self.tail not in SYNTH_TAILS:
            raise InvalidSpec(f"tail: must be one of {SYNTH_TAILS}, got {self.tail!r}")
        if self.tail == "student_t" and not 2.0 < self.tail_dof < math.inf:
            raise InvalidSpec("tail_dof: student_t needs a finite tail_dof > 2 for finite variance")
        if not 0 <= self.outlier_count <= self.d_in:
            raise InvalidSpec("outlier_count: must be in [0, d_in]")
        if self.outlier_count and not 0.0 < self.outlier_magnitude < math.inf:
            raise InvalidSpec("outlier_magnitude: must be positive and finite")
        self.eigenvalues()

    def eigenvalues(self) -> np.ndarray:
        if self.spectrum_values is not None:
            name, lam = "spectrum_values", np.asarray(self.spectrum_values)
            if lam.size != self.d_in:
                raise InvalidCovariance(f"{name}: {lam.size} values but d_in = {self.d_in}")
        else:
            name, lam = "spectrum_power", (np.arange(self.d_in) + 1.0) ** -self.spectrum_power
        if not np.isfinite(lam).all() or np.any(lam <= 0.0):
            raise InvalidCovariance(f"{name}: the covariance spectrum must be positive and finite")
        return lam / lam.mean()  # normalize to unit mean variance


def _unit_tail_draw(rng: np.random.Generator, shape, tail: str, dof: float) -> np.ndarray:
    """Unit-variance draws from the requested marginal family."""
    if tail == "gaussian":
        return rng.standard_normal(shape)
    if tail == "laplacian":
        return rng.laplace(0.0, 1.0 / math.sqrt(2.0), shape)
    return rng.standard_t(dof, shape) / math.sqrt(dof / (dof - 2.0))


def gen_synthetic(spec: SyntheticSpec):
    """Generate ``(w, x)`` with the spec's covariance, tails and outliers.

    Both matrices share the eigenvalue spectrum but get independent random
    eigenbases.  Outliers multiply ``outlier_count`` seeded row positions in
    every activation column by ``outlier_magnitude``.  Pure function of the
    spec (including its seed).
    """
    lam = spec.eigenvalues()
    root = np.sqrt(lam)
    ss = np.random.SeedSequence(spec.seed)
    kids = ss.spawn(5)
    q_x = random_rotation(spec.d_in, int(kids[0].generate_state(1)[0]))
    q_w = random_rotation(spec.d_in, int(kids[1].generate_state(1)[0]))
    z_x = _unit_tail_draw(np.random.default_rng(kids[2]), (spec.d_in, spec.d_batch), spec.tail, spec.tail_dof)
    z_w = _unit_tail_draw(np.random.default_rng(kids[3]), (spec.d_in, spec.d_out), spec.tail, spec.tail_dof)
    x = q_x @ (root[:, None] * z_x)
    w = q_w @ (root[:, None] * z_w)
    if spec.outlier_count:
        # the rows of each column's k smallest uniforms: a uniform k-subset
        u = np.random.default_rng(kids[4]).random((spec.d_in, spec.d_batch))
        k = spec.outlier_count
        rows = np.argpartition(u, k - 1, axis=0)[:k]
        x[rows, np.arange(spec.d_batch)] *= spec.outlier_magnitude
    return w, x


@dataclass(frozen=True)
class LossReport:
    """Loss summary for one (transform, scheme, seed) cell."""

    kind: str
    scheme_name: str
    seed: int
    d: int
    damp: float
    layer_loss: float  # per-element normalized
    layer_loss_raw: float  # plain squared Frobenius norm
    block_losses: tuple
    additivity_gap: float  # |layer - sum(blocks)| / layer, 0 if layer == 0


def _act_rng(plan: LayerPlan) -> Optional[np.random.Generator]:
    if plan.scheme.rounding != ROUND_STOCHASTIC:
        return None
    return np.random.default_rng(np.random.SeedSequence(entropy=(plan.seed, 0xAC)))


def _factors(plan: LayerPlan, x: np.ndarray, w: Optional[np.ndarray] = None):
    """Stacked factors ``a`` (``n_blocks x 2d x d_out``, None without
    weights) and ``b`` (``n_blocks x 2d x d_batch``) of the module docstring,
    quantizing activations block by block from the plan's one activation
    stream.  ``x`` and ``w`` are checked float64 arrays that must fit the
    plan; transformed activations that overflow raise
    :class:`~.errors.Overflow`."""
    if x.shape[0] != plan.d_in or (w is not None and w.shape != (plan.d_in, plan.d_out)):
        got = x.shape if w is None else (w.shape, x.shape)
        raise ShapeMismatch(
            f"plan wants {plan.d_in} input rows and {plan.d_out} outputs, got shapes {got}"
        )
    n, d = plan.n_blocks, plan.d
    rng = _act_rng(plan)
    b = np.empty((n, 2 * d, x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(plan.t_act, x.reshape(n, d, x.shape[1]), out=b[:, d:])
    try:
        for i in range(n):
            b[i, :d] = quantize_matrix(b[i, d:], plan.scheme, rng)
    except NaNInput:  # x is finite, so t_act x left float64
        raise Overflow("transformed activations overflow float64") from None
    np.subtract(b[:, :d], b[:, d:], out=b[:, d:])
    if w is None:
        return None, b
    a = np.empty((n, 2 * d, plan.d_out))
    with np.errstate(over="ignore", invalid="ignore"):  # _sq_error checks the rest
        np.matmul(plan.t_weight, w.reshape(n, d, plan.d_out), out=a[:, d:])
    np.subtract(plan.w_hat, a[:, d:], out=a[:, :d])
    return a, b


def _rel_gap(total: float, approx: float) -> float:
    return abs(total - approx) / total if total > 0.0 else 0.0


def _sq_error(a: np.ndarray, b: np.ndarray, blocks: bool = False):
    """``|A^T B|_F^2`` of the ``k x m``, ``k x n`` stacked factors; from the
    Grams when their ``k^2 (m + n) / 2`` multiply-adds are at most half the
    product's ``k m n``, a margin because BLAS runs them slower per flop.
    With ``blocks``, ``(layer, per-block)`` values: each block's from the
    diagonal blocks of those Grams, or on the product side from its own.
    A value that overflows float64 raises :class:`~.errors.Overflow`."""
    a2, b2 = a.reshape(-1, a.shape[-1]), b.reshape(-1, b.shape[-1])
    (k, m), n = a2.shape, b2.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        if k * (m + n) <= m * n:
            gram_a, gram_b = a2 @ a2.T, b2 @ b2.T
            raw = float(np.vdot(gram_a, gram_b))
            if blocks:
                i, shape = np.arange(len(a)), (len(a), a.shape[1]) * 2
                gram_a, gram_b = (g.reshape(shape)[i, :, i] for g in (gram_a, gram_b))
        else:
            err = a2.T @ b2
            raw = float(np.vdot(err, err))
            if blocks:
                gram_a, gram_b = (f @ f.transpose(0, 2, 1) for f in (a, b))
        block_raw = (gram_a * gram_b).sum(axis=(1, 2)) if blocks else raw
    if not (np.isfinite(raw) and np.isfinite(block_raw).all()):
        raise Overflow("squared layer error overflows float64")
    return (raw, block_raw) if blocks else raw


def forward_quantized(plan: LayerPlan, x) -> np.ndarray:
    """Quantized layer output ``sum_i w_hat_i^T q(t_act_i x_i)``.

    Stochastic schemes round activations from a stream derived from the plan
    seed, the same one :func:`evaluate` uses.
    """
    _, b = _factors(plan, _as_finite(x, "activations", 2))
    q = b[:, : plan.d].reshape(plan.d_in, b.shape[-1])
    return plan.w_hat.reshape(plan.d_in, plan.d_out).T @ q


def evaluate(plan: LayerPlan, layer: Layer) -> LossReport:
    """Quantization loss of a built plan on a :class:`~.transforms.Layer`,
    which must have the plan's ``d_in`` and ``d_out``; it may differ from
    the layer the plan was built on (say, a held-out split)."""
    layer = _want("layer", layer, Layer)
    a, b = _factors(plan, layer.x, layer.w)
    norm = plan.d_out * b.shape[-1]
    raw, block_raw = _sq_error(a, b, blocks=True)
    loss = raw / norm
    blocks = tuple(float(v) / norm for v in block_raw)
    return LossReport(
        plan.kind, str(plan.scheme), plan.seed, plan.d, plan.damp,
        layer_loss=loss, layer_loss_raw=raw, block_losses=blocks,
        additivity_gap=_rel_gap(loss, sum(blocks)),
    )


def layer_loss(
    w, x, kind: str, scheme: QuantScheme, damp: float = DEFAULT_DAMP, seed: int = 0
) -> LossReport:
    """Build the ``(kind, scheme, damp, seed)`` plan for ``(w, x)`` and
    :func:`evaluate` it."""
    layer = Layer(w, x)
    return evaluate(build_layer_plan(layer, kind, scheme, damp, seed), layer)


def first_order_gap(
    w, x, kind: str, scheme: QuantScheme, damp: float = DEFAULT_DAMP, seed: int = 0
):
    """Compare the exact loss with its first-order (cross-term-free) form.

    The error of one block factors as
    ``E_W^T (t_act x) + (t_weight w)^T E_X + E_W^T E_X`` with ``E_W`` and
    ``E_X`` the weight/activation quantization errors; dropping the last
    term gives the first-order decomposition the noise models analyze.
    Returns ``(loss, first_order_loss, relative_gap)``.
    """
    layer = Layer(w, x)
    plan = build_layer_plan(layer, kind, scheme, damp, seed)
    a, b = _factors(plan, layer.x, layer.w)
    norm = plan.d_out * b.shape[-1]
    loss = _sq_error(a, b) / norm
    b[:, : plan.d] -= b[:, plan.d :]  # q - (q - x~) = x~ drops E_W^T E_X
    fo = _sq_error(a, b) / norm
    return loss, fo, _rel_gap(loss, fo)


class SweepRow(NamedTuple):
    """One CSV row: a single block of one (transform, scheme, seed) cell."""

    layer: str
    transform: str
    format: str
    seed: int
    block: int
    loss: float
    layer_loss: float
    elapsed_ms: Optional[float]


def _repeat_seed(seed: int, rep: int) -> int:
    if rep == 0:
        return seed
    return int(np.random.SeedSequence((seed, 0x5E, rep)).generate_state(1)[0])


def sweep_cell(
    layer: Layer,
    kind: str,
    scheme: QuantScheme,
    damp: float = DEFAULT_DAMP,
    seed: int = 0,
    r_repeats: int = 1,
) -> LossReport:
    """Loss report for one grid cell of a :class:`~.transforms.Layer`.

    Random-rotation cells are averaged over ``r_repeats`` independently
    seeded rotations; every other kind is deterministic given the seed, so
    repeats would be identical and are skipped.
    """
    _want("r_repeats", r_repeats, int, low=1)
    reps = r_repeats if kind == "r" else 1
    reports = [
        evaluate(build_layer_plan(layer, kind, scheme, damp, _repeat_seed(seed, rep)), layer)
        for rep in range(reps)
    ]
    if reps == 1:
        return reports[0]
    base = reports[0]
    blocks = tuple(
        float(np.mean([r.block_losses[i] for r in reports]))
        for i in range(len(base.block_losses))
    )
    loss = float(np.mean([r.layer_loss for r in reports]))
    raw = float(np.mean([r.layer_loss_raw for r in reports]))
    return replace(
        base, seed=seed, layer_loss=loss, layer_loss_raw=raw, block_losses=blocks,
        additivity_gap=_rel_gap(loss, sum(blocks)),
    )


def sweep(cfg, timings: bool = False) -> list:
    """Run the transforms x schemes x seeds grid of an experiment config.

    ``cfg`` supplies ``transforms``, ``resolved_schemes()``, ``seeds``,
    ``damp``, ``r_repeats``, ``layer_label`` and ``load_data(seed)``; rows
    come out in deterministic grid order (transforms outermost, then
    schemes, then seeds, then block index), one row per block, although the
    cells run seed by seed so that ``load_data`` is called once per seed and
    one :class:`~.transforms.Layer` is held at a time.  Cell wall time lands
    in ``elapsed_ms`` only when ``timings`` is set, so default output is
    byte-stable across runs.
    """
    transforms = list(cfg.transforms)
    if not transforms:
        raise InvalidSpec("transform list is empty")
    schemes = cfg.resolved_schemes()
    if not schemes:
        raise InvalidSpec("scheme list is empty")
    seeds = list(cfg.seeds)
    if not seeds:
        raise InvalidSpec("seed list is empty")
    cells = {}
    for seed in seeds:
        layer = Layer(*cfg.load_data(seed))
        for kind in transforms:
            for j, (name, scheme) in enumerate(schemes):
                t0 = perf_counter()
                rep = sweep_cell(layer, kind, scheme, cfg.damp, seed, cfg.r_repeats)
                elapsed = (perf_counter() - t0) * 1e3 if timings else None
                cells[kind, j, seed] = [
                    SweepRow(cfg.layer_label, kind, name, seed, b, bl, rep.layer_loss, elapsed)
                    for b, bl in enumerate(rep.block_losses)
                ]
        del layer
    grid = ((k, j, s) for k in transforms for j in range(len(schemes)) for s in seeds)
    return [row for cell in grid for row in cells[cell]]
