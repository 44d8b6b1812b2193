"""Layer-level quantized forward pass, losses, sweeps and synthetic data.

The quantized layer output is ``sum_i w_hat_i^T q(t_act_i x_i)`` over the
transform blocks, with the activations quantized per ``d x 1`` sub-column
on the fly.  The layer loss is the per-element normalized squared error

    loss = |q(T_W W)^T q(T_X X) - W^T X|_F^2 / (d_out * d_batch)

reported alongside the raw squared Frobenius norm (both appear in reports
because either normalization is common in practice).  Blockwise losses use
the same normalization, and because quantization errors of different blocks
are nearly uncorrelated their sum tracks the layer loss; the relative gap
between the two (``LossReport.additivity_gap``, derived from the other
fields) is reported, not asserted.

Losses are evaluated in factored form from one pass over the blocks.  With
``w~_i = t_weight_i w_i``, ``x~_i = t_act_i x_i`` and ``q_i = q(x~_i)``, block
``i``'s error ``w_hat_i^T q_i - w~_i^T x~_i`` is ``a_i^T b_i`` with
``a_i = [w_hat_i - w~_i ; w~_i]`` and ``b_i = [q_i ; q_i - x~_i]``, a sum of
error-sized terms.  With ``A``, ``B`` the ``k = 2 d_in`` stacked rows, the
squared layer error is ``<A A^T, B B^T>_F`` from two ``k x k`` Grams when
``k (d_out + d_batch) <= d_out d_batch``, else ``|A^T B|_F^2`` from one
product, the only ``d_out x d_batch`` array made.  The side is chosen from
the shapes first.  The Gram side holds one factor at a time: ``B`` is made,
its Gram taken and ``B`` dropped before ``A`` is made.  Block losses are
``<a_i a_i^T, b_i b_i^T>_F``: on the Gram side the ``2d x 2d`` Grams are the
diagonal blocks of the two ``k x k`` ones, otherwise they are made per block.
One routine, ``_sq_errors``, does all of this: ``evaluate`` normalizes its
result, and ``first_order_gap`` also calls it with the ``q_i`` rows of
``b_i`` replaced by ``x~_i``, which drops the cross term ``E_W^T E_X``.

The plan-building and scoring functions take a :class:`~.transforms.Layer`
and a :class:`~.transforms.PlanSpec`: ``build_layer_plan(layer, spec)``,
``evaluate(plan, layer)`` and ``sweep_cell(layer, spec, r_repeats)``, so the
cells of one layer share its array checks, moments and whitened cores.
``sweep`` builds one ``Layer`` per data seed and one spec per cell;
``layer_loss(w, x, ...)`` and ``first_order_gap(w, x, ...)`` build both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidCovariance, InvalidSpec, Overflow, ShapeMismatch
from .linalg import _as_finite, _check_seed, _want, _want_fields, random_rotation
from .quantformats import QuantScheme
from .tensorio import MAX_ELEMENTS
from .transforms import (ACT_STREAM, DEFAULT_DAMP, Layer, LayerPlan, PlanSpec, _quantize_into,
                         build_layer_plan)

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
        if 2 * self.d_in**2 > MAX_ELEMENTS:
            raise InvalidSpec(f"d_in: two d_in x d_in rotations exceed the cap of {MAX_ELEMENTS}")
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
    spec = _want("spec", spec, SyntheticSpec)
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
    """Loss summary for one cell; the block size is ``spec.scheme.group_size``."""

    spec: PlanSpec
    layer_loss: float  # per-element normalized
    layer_loss_raw: float  # plain squared Frobenius norm
    block_losses: tuple

    @property
    def additivity_gap(self) -> float:
        """``|layer - sum(blocks)| / layer``, 0 if the layer loss is 0."""
        return _rel_gap(self.layer_loss, sum(self.block_losses))


def _check_fit(plan: LayerPlan, x: np.ndarray, w: Optional[np.ndarray] = None) -> None:
    _want("plan", plan, LayerPlan)
    if x.shape[0] != plan.d_in or (w is not None and w.shape != (plan.d_in, plan.d_out)):
        got = x.shape if w is None else (w.shape, x.shape)
        raise ShapeMismatch(
            f"plan wants {plan.d_in} input rows and {plan.d_out} outputs, got shapes {got}"
        )


def _act_factor(plan: LayerPlan, x: np.ndarray) -> np.ndarray:
    """The stacked factor ``b`` (``n_blocks x 2d x d_batch``) of the module
    docstring for checked float64 activations that fit the plan, quantized
    from the plan's activation stream by :func:`~.transforms._quantize_into`."""
    n, d = plan.n_blocks, plan.d
    b = np.empty((n, 2 * d, x.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(plan.t_act, x.reshape(n, d, x.shape[1]), out=b[:, d:])
    _quantize_into(b[:, d:], b[:, :d], plan.spec, ACT_STREAM, "activations")
    np.subtract(b[:, :d], b[:, d:], out=b[:, d:])
    return b


def _weight_factor(plan: LayerPlan, w: np.ndarray) -> np.ndarray:
    """The stacked factor ``a`` (``n_blocks x 2d x d_out``) for checked
    float64 weights that fit the plan; overflow is left to :func:`_finite`."""
    n, d = plan.n_blocks, plan.d
    a = np.empty((n, 2 * d, plan.d_out))
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(plan.t_weight, w.reshape(n, d, plan.d_out), out=a[:, d:])
    np.subtract(plan.w_hat, a[:, d:], out=a[:, :d])
    return a


def _rel_gap(total: float, approx: float) -> float:
    return abs(total - approx) / total if total > 0.0 else 0.0


def _gram_side(k: int, m: int, n: int) -> bool:
    """Whether ``|A^T B|_F^2`` of ``k x m`` and ``k x n`` stacked factors is
    taken from the Grams: when their ``k^2 (m + n) / 2`` multiply-adds are at
    most half the product's ``k m n``, a margin because BLAS runs them slower
    per flop."""
    return k * (m + n) <= m * n


def _gram(f: np.ndarray) -> np.ndarray:
    """The ``k x k`` Gram of the stacked rows of a factor."""
    f2 = f.reshape(-1, f.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return f2 @ f2.T


def _inner(u: np.ndarray, v: np.ndarray) -> float:
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.vdot(u, v))


def _product_sq(a: np.ndarray, b: np.ndarray) -> float:
    """``|A^T B|_F^2`` from the product, the only ``d_out x d_batch`` array made."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])
    return _inner(err, err)


def _finite(*values) -> None:
    if not all(np.isfinite(v).all() for v in values):
        raise Overflow("squared layer error overflows float64")


def forward_quantized(plan: LayerPlan, x) -> np.ndarray:
    """Quantized layer output ``sum_i w_hat_i^T q(t_act_i x_i)``.

    Stochastic schemes round activations from a stream derived from the plan
    seed, the same one :func:`evaluate` uses.
    """
    x = _as_finite(x, "activations", 2)
    _check_fit(plan, x)
    q = _act_factor(plan, x)[:, : plan.d].reshape(plan.d_in, x.shape[1])
    return plan.w_hat.reshape(plan.d_in, plan.d_out).T @ q


def _sq_errors(plan: LayerPlan, layer: Layer, first_order: bool = False):
    """The squared layer and block errors ``(raw, block_raw)`` of ``plan`` on
    ``layer`` in factored form (module docstring); ``first_order`` turns the
    ``q`` rows of ``b`` into ``q - (q - x~) = x~``, dropping ``E_W^T E_X``."""
    x, w = layer.x, layer.w
    _check_fit(plan, x, w)
    b = _act_factor(plan, x)
    if first_order:
        b[:, : plan.d] -= b[:, plan.d :]
    if _gram_side(2 * plan.d_in, plan.d_out, x.shape[1]):
        gram_b = _gram(b)
        del b  # one factor alive at a time
        gram_a = _gram(_weight_factor(plan, w))
        raw = _inner(gram_a, gram_b)
        i, shape = np.arange(plan.n_blocks), (plan.n_blocks, 2 * plan.d) * 2
        gram_a, gram_b = (g.reshape(shape)[i, :, i] for g in (gram_a, gram_b))
    else:
        a = _weight_factor(plan, w)
        raw = _product_sq(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            gram_a, gram_b = (f @ f.transpose(0, 2, 1) for f in (a, b))
    with np.errstate(over="ignore", invalid="ignore"):
        block_raw = (gram_a * gram_b).sum(axis=(1, 2))
    _finite(raw, block_raw)
    return raw, block_raw


def evaluate(plan: LayerPlan, layer: Layer) -> LossReport:
    """Quantization loss of a built plan on a :class:`~.transforms.Layer`,
    which must have the plan's ``d_in`` and ``d_out``; it may differ from
    the layer the plan was built on (say, a held-out split)."""
    layer = _want("layer", layer, Layer)
    raw, block_raw = _sq_errors(plan, layer)
    norm = plan.d_out * layer.x.shape[1]
    return LossReport(plan.spec, raw / norm, raw, tuple(float(v) / norm for v in block_raw))


def layer_loss(
    w, x, kind: str, scheme: QuantScheme, damp: float = DEFAULT_DAMP, seed: int = 0
) -> LossReport:
    """Build the ``PlanSpec(kind, scheme, damp, seed)`` plan for ``(w, x)``
    and :func:`evaluate` it."""
    layer = Layer(w, x)
    return evaluate(build_layer_plan(layer, PlanSpec(kind, scheme, damp, seed)), layer)


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
    plan = build_layer_plan(layer, PlanSpec(kind, scheme, damp, seed))
    norm = plan.d_out * layer.x.shape[1]
    loss, fo = (_sq_errors(plan, layer, first_order)[0] / norm for first_order in (False, True))
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


def sweep_cell(layer: Layer, spec: PlanSpec, r_repeats: int = 1) -> LossReport:
    """Loss report for one grid cell of a :class:`~.transforms.Layer`.

    Random-rotation cells are averaged over ``r_repeats`` independently
    seeded rotations (the average carries the cell's spec); every other kind
    is deterministic given the seed, so repeats would be identical and are
    skipped.
    """
    spec = _want("spec", spec, PlanSpec)
    _want("r_repeats", r_repeats, int, low=1)
    reps = r_repeats if spec.kind == "r" else 1
    reports = [
        evaluate(build_layer_plan(layer, replace(spec, seed=_repeat_seed(spec.seed, rep))), layer)
        for rep in range(reps)
    ]
    if reps == 1:
        return reports[0]
    loss = float(np.mean([r.layer_loss for r in reports]))
    raw = float(np.mean([r.layer_loss_raw for r in reports]))
    blocks = tuple(float(np.mean(col)) for col in zip(*(r.block_losses for r in reports)))
    return LossReport(spec, loss, raw, blocks)


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
                rep = sweep_cell(layer, PlanSpec(kind, scheme, cfg.damp, seed), cfg.r_repeats)
                elapsed = (perf_counter() - t0) * 1e3 if timings else None
                cells[kind, j, seed] = [
                    SweepRow(cfg.layer_label, kind, name, seed, b, bl, rep.layer_loss, elapsed)
                    for b, bl in enumerate(rep.block_losses)
                ]
        del layer
    grid = ((k, j, s) for k in transforms for j in range(len(schemes)) for s in seeds)
    return [row for cell in grid for row in cells[cell]]
