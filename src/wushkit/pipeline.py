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
error-sized terms.  The layer error is one product over the ``2 d_in``
stacked rows, the only ``d_out x d_batch`` array made; block losses are
``<a_i a_i^T, b_i b_i^T>_F`` from ``2d x 2d`` Gram matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvalidCovariance, InvalidSpec, ShapeMismatch
from .linalg import random_rotation
from .quantformats import ROUND_STOCHASTIC, QuantScheme, quantize_matrix
from .transforms import DEFAULT_DAMP, LayerPlan, _as_2d, build_layer_plan

SYNTH_TAILS = ("gaussian", "laplacian", "student_t")


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a synthetic anisotropic heavy-tailed layer."""

    d_in: int
    d_out: int
    d_batch: int
    spectrum_power: float = 1.0  # covariance eigenvalue decay (k+1)**-p
    spectrum_values: Optional[tuple] = None  # explicit eigenvalues instead
    tail: str = "student_t"
    tail_dof: float = 4.0
    outlier_count: int = 0  # outlier entries injected per activation column
    outlier_magnitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.d_in, self.d_out, self.d_batch) < 1:
            raise InvalidSpec("synthetic dims must all be >= 1")
        if self.tail not in SYNTH_TAILS:
            raise InvalidSpec(f"tail must be one of {SYNTH_TAILS}, got {self.tail!r}")
        if self.tail == "student_t" and not self.tail_dof > 2.0:
            raise InvalidSpec("student_t tail needs dof > 2 for finite variance")
        if not 0 <= self.outlier_count <= self.d_in:
            raise InvalidSpec("outlier_count must be in [0, d_in]")
        if self.outlier_count and self.outlier_magnitude <= 0.0:
            raise InvalidSpec("outlier_magnitude must be positive")

    def eigenvalues(self) -> np.ndarray:
        if self.spectrum_values is not None:
            lam = np.asarray(self.spectrum_values, dtype=np.float64)
            if lam.size != self.d_in:
                raise InvalidCovariance(
                    f"spectrum has {lam.size} values but d_in = {self.d_in}"
                )
        else:
            lam = (np.arange(self.d_in) + 1.0) ** -float(self.spectrum_power)
        if not np.isfinite(lam).all() or np.any(lam <= 0.0):
            raise InvalidCovariance("covariance spectrum must be positive and finite")
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
        out_rng = np.random.default_rng(kids[4])
        for j in range(spec.d_batch):
            rows = out_rng.choice(spec.d_in, size=spec.outlier_count, replace=False)
            x[rows, j] *= spec.outlier_magnitude
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


def _factors(plan: LayerPlan, x_arr: np.ndarray, rng, w_arr=None):
    """Stacked factors ``a`` (``n_blocks x 2d x d_out``, None without
    weights) and ``b`` (``n_blocks x 2d x d_batch``) of the module docstring,
    quantizing activations block by block from the one stream ``rng``."""
    if x_arr.shape[0] != plan.d_in:
        raise ShapeMismatch(
            f"activations have {x_arr.shape[0]} rows, plan wants {plan.d_in}"
        )
    n, d = plan.n_blocks, plan.d
    b = np.empty((n, 2 * d, x_arr.shape[1]))
    np.matmul(plan.t_act, x_arr.reshape(n, d, x_arr.shape[1]), out=b[:, d:])
    for i in range(n):
        b[i, :d] = quantize_matrix(b[i, d:], plan.scheme, rng)
    np.subtract(b[:, :d], b[:, d:], out=b[:, d:])
    if w_arr is None:
        return None, b
    a = np.empty((n, 2 * d, plan.d_out))
    np.matmul(plan.t_weight, w_arr.reshape(n, d, plan.d_out), out=a[:, d:])
    np.subtract(plan.w_hat, a[:, d:], out=a[:, :d])
    return a, b


def _rel_gap(total: float, approx: float) -> float:
    return abs(total - approx) / total if total > 0.0 else 0.0


def _sq_error(a: np.ndarray, b: np.ndarray) -> float:
    """``|sum_i a_i^T b_i|_F^2`` through one product over the stacked rows."""
    err = a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])
    return float(np.vdot(err, err))


def forward_quantized(
    plan: LayerPlan, x, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Quantized layer output ``sum_i w_hat_i^T q(t_act_i x_i)``.

    For stochastic schemes the activation-rounding stream defaults to one
    derived from the plan seed; pass ``rng`` to control it.
    """
    if rng is None:
        rng = _act_rng(plan)
    _, b = _factors(plan, _as_2d(x, "activations"), rng)
    q = b[:, : plan.d].reshape(plan.d_in, b.shape[-1])
    return plan.w_hat.reshape(plan.d_in, plan.d_out).T @ q


def layer_loss(
    w,
    x,
    kind: str,
    scheme: QuantScheme,
    damp: float = DEFAULT_DAMP,
    seed: int = 0,
    plan: Optional[LayerPlan] = None,
) -> LossReport:
    """Build a plan (unless given) and measure its quantization loss.

    A given ``plan`` overrides ``kind``, ``scheme``, ``damp`` and ``seed``.
    """
    w_arr = _as_2d(w, "weights")
    x_arr = _as_2d(x, "activations")
    if plan is None:
        plan = build_layer_plan(w_arr, x_arr, kind, scheme, damp, seed)
    elif w_arr.shape != (plan.d_in, plan.d_out) or x_arr.shape[1] < 1:
        raise ShapeMismatch(
            f"plan wants weights {(plan.d_in, plan.d_out)} and at least one sample, "
            f"got weights {w_arr.shape} and activations {x_arr.shape}"
        )
    norm = plan.d_out * x_arr.shape[1]
    a, b = _factors(plan, x_arr, _act_rng(plan), w_arr)
    raw = _sq_error(a, b)
    loss = raw / norm
    gram_a, gram_b = (f @ f.transpose(0, 2, 1) for f in (a, b))
    blocks = tuple(float(v) / norm for v in (gram_a * gram_b).sum(axis=(1, 2)))
    return LossReport(
        plan.kind, str(plan.scheme), plan.seed, plan.d, plan.damp,
        layer_loss=loss, layer_loss_raw=raw, block_losses=blocks,
        additivity_gap=_rel_gap(loss, sum(blocks)),
    )


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
    w_arr = _as_2d(w, "weights")
    x_arr = _as_2d(x, "activations")
    plan = build_layer_plan(w_arr, x_arr, kind, scheme, damp, seed)
    norm = plan.d_out * x_arr.shape[1]
    a, b = _factors(plan, x_arr, _act_rng(plan), w_arr)
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
    w,
    x,
    kind: str,
    scheme: QuantScheme,
    damp: float = DEFAULT_DAMP,
    seed: int = 0,
    r_repeats: int = 1,
) -> LossReport:
    """Loss report for one grid cell.

    Random-rotation cells are averaged over ``r_repeats`` independently
    seeded rotations; every other kind is deterministic given the seed, so
    repeats would be identical and are skipped.
    """
    if r_repeats < 1:
        raise InvalidSpec(f"r_repeats must be >= 1, got {r_repeats}")
    reps = r_repeats if kind == "r" else 1
    reports = [
        layer_loss(w, x, kind, scheme, damp, _repeat_seed(seed, rep))
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
    one data set is held at a time.  Cell wall time lands in ``elapsed_ms``
    only when ``timings`` is set, so default output is byte-stable across
    runs.
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
        w, x = cfg.load_data(seed)
        for kind in transforms:
            for j, (name, scheme) in enumerate(schemes):
                t0 = perf_counter()
                rep = sweep_cell(w, x, kind, scheme, cfg.damp, seed, cfg.r_repeats)
                elapsed = (perf_counter() - t0) * 1e3 if timings else None
                cells[kind, j, seed] = [
                    SweepRow(cfg.layer_label, kind, name, seed, b, bl, rep.layer_loss, elapsed)
                    for b, bl in enumerate(rep.block_losses)
                ]
        del w, x
    grid = ((k, j, s) for k in transforms for j in range(len(schemes)) for s in seeds)
    return [row for cell in grid for row in cells[cell]]
