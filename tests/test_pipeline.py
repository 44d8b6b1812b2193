"""Synthetic layers, the quantized forward pass, losses and sweeps."""

import tracemalloc

import numpy as np
import pytest

from _oracles import block_gram_losses
from wushkit import pipeline as pl
from wushkit import transforms as tf
from wushkit.errors import InvalidCovariance, InvalidSpec, NumericalError, Overflow, ShapeMismatch
from wushkit.quantformats import (
    E8M0,
    Bf16Spec,
    IntSpec,
    QuantScheme,
    ROUND_STOCHASTIC,
    int4_scheme,
    mxfp4_scheme,
    nvfp4_scheme,
    quantize_matrix,
    scheme_by_name,
)
from wushkit.transforms import TRANSFORM_KINDS, Layer, PlanSpec, build_layer_plan

# fine enough to be lossless on float64 data at these magnitudes
INT26 = QuantScheme(IntSpec(26), E8M0, 32, name="int26")


def _spec(**kw):
    base = dict(d_in=64, d_out=8, d_batch=256, seed=3)
    base.update(kw)
    return pl.SyntheticSpec(**base)


# ---------------------------------------------------------------------------
# synthetic data


def test_gen_synthetic_shapes_and_determinism():
    spec = _spec(outlier_count=2, outlier_magnitude=10.0)
    w1, x1 = pl.gen_synthetic(spec)
    w2, x2 = pl.gen_synthetic(spec)
    assert w1.shape == (64, 8) and x1.shape == (64, 256)
    np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(x1, x2)
    w3, _ = pl.gen_synthetic(_spec(seed=4, outlier_count=2, outlier_magnitude=10.0))
    assert not np.array_equal(w1, w3)


def test_gen_synthetic_flat_spectrum_moment_is_identity():
    spec = pl.SyntheticSpec(
        d_in=16, d_out=4, d_batch=8000, spectrum_power=0.0, tail="gaussian", seed=1
    )
    _, x = pl.gen_synthetic(spec)
    np.testing.assert_allclose(x @ x.T / 8000, np.eye(16), atol=0.1)


def test_gen_synthetic_unit_mean_variance():
    # eigenvalues are normalized to mean 1, so E|x_col|^2 = d_in
    spec = _spec(d_batch=4000, spectrum_power=2.0, tail="gaussian")
    _, x = pl.gen_synthetic(spec)
    assert np.isclose((x ** 2).sum(axis=0).mean(), 64.0, rtol=0.1)


def test_gen_synthetic_explicit_spectrum():
    lam = tuple(float(k) for k in range(1, 17))
    spec = pl.SyntheticSpec(
        d_in=16, d_out=4, d_batch=6000, spectrum_values=lam, tail="gaussian", seed=2
    )
    _, x = pl.gen_synthetic(spec)
    got = np.sort(np.linalg.eigvalsh(x @ x.T / 6000))
    want = np.sort(np.asarray(lam) / np.mean(lam))
    np.testing.assert_allclose(got, want, rtol=0.35, atol=0.05)


def test_gen_synthetic_outliers_scale_seeded_rows():
    base_w, base_x = pl.gen_synthetic(_spec(tail="gaussian"))
    out_w, out_x = pl.gen_synthetic(
        _spec(tail="gaussian", outlier_count=2, outlier_magnitude=10.0)
    )
    np.testing.assert_array_equal(base_w, out_w)  # outliers only touch x
    ratio = out_x / base_x
    for j in range(base_x.shape[1]):
        scaled = np.flatnonzero(~np.isclose(ratio[:, j], 1.0))
        assert scaled.size == 2
        np.testing.assert_allclose(ratio[scaled, j], 10.0, rtol=1e-12)


def test_tail_families_unit_variance_and_kurtosis():
    rng = np.random.default_rng(0)
    draws = {
        tail: pl._unit_tail_draw(rng, 200_000, tail, 4.0) for tail in pl.SYNTH_TAILS
    }
    kurt = {}
    for tail, v in draws.items():
        assert np.isclose(v.var(), 1.0, rtol=0.05)
        kurt[tail] = float(np.mean(v ** 4) / np.mean(v ** 2) ** 2)
    assert abs(kurt["gaussian"] - 3.0) < 0.2
    assert abs(kurt["laplacian"] - 6.0) < 0.8
    assert kurt["student_t"] > kurt["laplacian"] > kurt["gaussian"]


def test_gen_synthetic_heavy_tail_survives_rotation():
    def kurt(spec):
        _, x = pl.gen_synthetic(spec)
        v = x.ravel()
        return float(np.mean(v ** 4) / np.mean(v ** 2) ** 2)

    # flat spectrum, else mixing row variances inflates even Gaussian kurtosis;
    # the random eigenbasis contracts the excess, but some must remain
    gauss = kurt(_spec(d_batch=1000, spectrum_power=0.0, tail="gaussian"))
    heavy = kurt(_spec(d_batch=1000, spectrum_power=0.0, tail="student_t", tail_dof=4.0))
    assert heavy > gauss + 0.1
    assert abs(gauss - 3.0) < 0.2


def test_synthetic_spec_validation():
    with pytest.raises(InvalidSpec):
        _spec(d_in=0)
    with pytest.raises(InvalidSpec):
        _spec(tail="cauchy")
    for seed in (-1, 1.5):
        with pytest.raises(InvalidSpec, match="seed"):
            _spec(seed=seed)
    for dof in (2.0, np.inf, np.nan):
        with pytest.raises(InvalidSpec, match="dof"):
            _spec(tail="student_t", tail_dof=dof)
    with pytest.raises(InvalidSpec):
        _spec(outlier_count=65)
    for magnitude in (0.0, np.inf, np.nan):
        with pytest.raises(InvalidSpec, match="outlier_magnitude"):
            _spec(outlier_count=1, outlier_magnitude=magnitude)
    with pytest.raises(InvalidCovariance):
        pl.gen_synthetic(_spec(spectrum_values=(1.0, 2.0)))
    with pytest.raises(InvalidCovariance):
        pl.gen_synthetic(_spec(spectrum_values=(0.0,) * 64))
    # every field has its type checked when the spec is built, bools included
    for field, value in (("d_in", 64.5), ("d_in", "64"), ("d_in", True),
                         ("tail_dof", "4"), ("outlier_count", True),
                         ("spectrum_power", "1"), ("spectrum_values", ("1",) * 64)):
        with pytest.raises(InvalidSpec, match=field):
            _spec(**{field: value})
    # so is the spectrum, not first in gen_synthetic
    with pytest.raises(InvalidCovariance, match="spectrum_values"):
        _spec(spectrum_values=(1.0, 2.0, 3.0))
    # numpy scalars are accepted and stored as int and float
    spec = _spec(d_in=np.int64(64), tail_dof=np.float32(4.0), spectrum_values=np.ones(64))
    assert type(spec.d_in) is int and type(spec.tail_dof) is float
    assert spec.spectrum_values == (1.0,) * 64


# ---------------------------------------------------------------------------
# forward pass


def test_forward_quantized_lossless_scheme_recovers_product():
    w, x = pl.gen_synthetic(_spec())
    plan = build_layer_plan(Layer(w, x), PlanSpec("wush", INT26))
    out = pl.forward_quantized(plan, x)
    ref = w.T @ x
    assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-6


def test_forward_quantized_zero_activations():
    w, x = pl.gen_synthetic(_spec())
    plan = build_layer_plan(Layer(w, x), PlanSpec("wus", int4_scheme()))
    out = pl.forward_quantized(plan, np.zeros((64, 5)))
    np.testing.assert_array_equal(out, np.zeros((8, 5)))
    assert pl.forward_quantized(plan, np.zeros((64, 0))).shape == (8, 0)


def test_forward_quantized_single_block_composition():
    w, x = pl.gen_synthetic(_spec(d_in=32))
    plan = build_layer_plan(Layer(w, x), PlanSpec("wush", int4_scheme()))
    assert plan.n_blocks == 1
    manual = plan.w_hat[0].T @ quantize_matrix(plan.t_act[0] @ x, plan.spec.scheme)
    np.testing.assert_array_equal(pl.forward_quantized(plan, x), manual)


def test_forward_quantized_shape_check():
    w, x = pl.gen_synthetic(_spec())
    plan = build_layer_plan(Layer(w, x), PlanSpec("i", int4_scheme()))
    with pytest.raises(ShapeMismatch):
        pl.forward_quantized(plan, x[:32, :])
    with pytest.raises(InvalidSpec, match="plan"):
        pl.forward_quantized("x", x)


# ---------------------------------------------------------------------------
# losses


def test_layer_loss_lossless_scheme_near_zero():
    w, x = pl.gen_synthetic(_spec(outlier_count=2, outlier_magnitude=10.0))
    rep = pl.layer_loss(w, x, "wush", INT26)
    assert rep.layer_loss < 1e-10
    assert rep.layer_loss_raw == pytest.approx(rep.layer_loss * 8 * 256)


def test_layer_loss_report_fields_consistent():
    w, x = pl.gen_synthetic(_spec(outlier_count=2, outlier_magnitude=10.0))
    rep = pl.layer_loss(w, x, "wush", int4_scheme(), damp=0.02, seed=5)
    assert rep.spec.kind == "wush" and rep.spec.scheme.name == "int4"
    assert rep.spec.scheme.group_size == 32 and rep.spec.damp == 0.02 and rep.spec.seed == 5
    assert len(rep.block_losses) == 2
    expected_gap = abs(rep.layer_loss - sum(rep.block_losses)) / rep.layer_loss
    assert rep.additivity_gap == pytest.approx(expected_gap)
    # block errors are nearly uncorrelated, so their sum tracks the total
    assert rep.additivity_gap < 0.2


def test_layer_loss_monotone_in_int_bits():
    medians = []
    for bits in (4, 6, 8):
        scheme = QuantScheme(IntSpec(bits), Bf16Spec(), 32, name=f"int{bits}")
        losses = [
            pl.layer_loss(*pl.gen_synthetic(_spec(seed=s)), "wush", scheme).layer_loss
            for s in range(8)
        ]
        medians.append(float(np.median(losses)))
    assert medians[0] > 4.0 * medians[1] > 16.0 * medians[2]


def test_evaluate_matches_layer_loss():
    w, x = pl.gen_synthetic(_spec())
    plan = build_layer_plan(Layer(w, x), PlanSpec("wus", int4_scheme(), damp=0.01, seed=2))
    a = pl.evaluate(plan, Layer(w, x))
    b = pl.layer_loss(w, x, "wus", int4_scheme(), seed=2)
    assert a.spec.kind == "wus"
    assert a == b


@pytest.mark.parametrize("kind", TRANSFORM_KINDS)
def test_overflowing_loss_is_a_numerical_error_without_warnings(kind):
    # finite data whose squared error (i, r, h) or whitened moment (wus,
    # wush) leaves float64; the suite turns any RuntimeWarning into an error
    w, x = pl.gen_synthetic(_spec(d_out=16, d_batch=40))
    with pytest.raises(Overflow, match="overflows float64") as exc:
        pl.layer_loss(w * 1e100, x * 1e100, kind, int4_scheme())
    assert isinstance(exc.value, NumericalError)
    with pytest.raises(Overflow):
        pl.first_order_gap(w * 1e100, x * 1e100, kind, int4_scheme())


@pytest.mark.parametrize("kind", ["h", "r"])
def test_overflowing_transformed_operands_are_a_numerical_error_without_warnings(kind):
    # finite data near the float64 limit that t_act x or t_weight w leaves
    # (checked for h and for the seed-0 rotations of r)
    w, x = pl.gen_synthetic(_spec(d_out=16, d_batch=40))
    huge_w, huge_x = np.full_like(w, 1e308), np.full_like(x, 1e308)
    with pytest.raises(Overflow, match="transformed activations overflow float64"):
        pl.layer_loss(w, huge_x, kind, int4_scheme())
    with pytest.raises(Overflow, match="transformed weights overflow float64"):
        pl.layer_loss(huge_w, x, kind, int4_scheme())
    plan = build_layer_plan(Layer(w, x), PlanSpec(kind, int4_scheme()))
    with pytest.raises(Overflow, match="transformed activations"):
        pl.forward_quantized(plan, huge_x)
    with pytest.raises(Overflow):  # weights the plan was not built on
        pl.evaluate(plan, Layer(huge_w, x))


def test_evaluate_rejects_inputs_that_do_not_fit_the_plan():
    w, x = pl.gen_synthetic(_spec())
    plan = build_layer_plan(Layer(w, x), PlanSpec("wush", int4_scheme()))
    w_wide, _ = pl.gen_synthetic(_spec(d_out=12))
    with pytest.raises(ShapeMismatch):
        pl.evaluate(plan, Layer(w_wide, x))
    # 96 rows split into whole blocks too, so only the plan can catch it
    w_tall, x_tall = pl.gen_synthetic(_spec(d_in=96))
    with pytest.raises(ShapeMismatch):
        pl.evaluate(plan, Layer(w_tall, x_tall))
    with pytest.raises(ShapeMismatch):
        pl.evaluate(plan, Layer(w, x[:, :0]))
    with pytest.raises(InvalidSpec, match="layer"):
        pl.evaluate(plan, w)
    with pytest.raises(InvalidSpec, match="plan"):
        pl.evaluate("x", Layer(w, x))
    # a plan checks its own stacks, so a bad one cannot be broadcast into numbers
    spec, t_act, t_weight, w_hat = plan.spec, plan.t_act, plan.t_weight, plan.w_hat
    for bad in (
        (spec, t_act, t_weight, w_hat[:1]),  # one weight block for two
        (spec, t_act, t_weight[:1], w_hat),
        (spec, t_act[:, :16], t_weight, w_hat),
        (spec, t_act[0], t_weight[0], w_hat[0]),
        (spec, t_act[:0], t_weight[:0], w_hat[:0]),
        (spec, t_act, t_weight, w_hat[:, :, 0]),
        (PlanSpec("wush", nvfp4_scheme()), t_act, t_weight, w_hat),  # group size 16
    ):
        with pytest.raises(ShapeMismatch):
            tf.LayerPlan(*bad)
    for field, bad in (("spec", (("wush", int4_scheme()), t_act, t_weight, w_hat)),
                       ("t_act", (spec, t_act.tolist(), t_weight, w_hat)),
                       ("w_hat", (spec, t_act, t_weight, None))):
        with pytest.raises(InvalidSpec, match=field):
            tf.LayerPlan(*bad)
    # a negative seed is refused for every kind, stochastic rounding or not
    for kind, scheme in (("h", int4_scheme()), ("r", int4_scheme()),
                         ("wush", int4_scheme(rounding=ROUND_STOCHASTIC))):
        with pytest.raises(InvalidSpec, match="seed"):
            pl.layer_loss(w, x, kind, scheme, seed=-1)


SCHEMES = {
    "int4": int4_scheme(),
    "mxfp4": mxfp4_scheme(),
    "nvfp4": nvfp4_scheme(),
    "int4-stochastic": int4_scheme(rounding=ROUND_STOCHASTIC),
}


# (d_in, d_out, d_batch) of two 2-block layers: the loss takes the error
# product on the first and the Gram form on the second
DENSE_SHAPES = {"": (64, 8, 256), "-gram": (64, 256, 512)}


@pytest.mark.parametrize(
    "kind, scheme_name, dims",
    [
        pytest.param(kind, name, dims, id=f"{kind}-{name}{tag}")
        for tag, dims in DENSE_SHAPES.items()
        for kind in TRANSFORM_KINDS
        for name in sorted(SCHEMES)
    ],
)
def test_losses_match_dense_reference(kind, scheme_name, dims):
    scheme = SCHEMES[scheme_name]
    d_in, d_out, d_batch = dims
    w, x = pl.gen_synthetic(
        _spec(d_in=d_in, d_out=d_out, d_batch=d_batch, outlier_count=2, outlier_magnitude=10.0)
    )
    plan = build_layer_plan(Layer(w, x), PlanSpec(kind, scheme, seed=4))
    # direct evaluation: sum_i w_hat_i^T q_i - W^T X, same rounding stream
    rng = tf._stream(plan.spec, tf.ACT_STREAM)
    approx = np.zeros((d_out, d_batch))
    first = np.zeros((d_out, d_batch))
    block_raw = []
    for i in range(plan.n_blocks):
        sl = slice(i * plan.d, (i + 1) * plan.d)
        x_t = plan.t_act[i] @ x[sl]
        w_t = plan.t_weight[i] @ w[sl]
        q = quantize_matrix(x_t, scheme, rng)
        contrib = plan.w_hat[i].T @ q
        approx += contrib
        first += (plan.w_hat[i] - w_t).T @ x_t + w_t.T @ (q - x_t)
        block_raw.append(np.sum((contrib - w[sl].T @ x[sl]) ** 2))
    raw = np.sum((approx - w.T @ x) ** 2)
    norm = d_out * d_batch

    rep = pl.layer_loss(w, x, kind, scheme, seed=4)
    assert rep.layer_loss_raw == pytest.approx(raw, rel=1e-10)
    assert rep.layer_loss == pytest.approx(raw / norm, rel=1e-10)
    np.testing.assert_allclose(rep.block_losses, np.array(block_raw) / norm, rtol=1e-10)
    loss, fo, _ = pl.first_order_gap(w, x, kind, scheme, seed=4)
    assert loss == rep.layer_loss  # both quantize the same activations
    assert fo == pytest.approx(np.sum(first ** 2) / norm, rel=1e-10)
    np.testing.assert_allclose(
        pl.forward_quantized(plan, x), approx, rtol=1e-10, atol=1e-10 * np.abs(approx).max()
    )


@pytest.mark.parametrize(
    "n_blocks, m, n",
    [
        (2, 128, 128),  # k (m + n) == m n: Gram form
        (2, 128, 129),  # k (m + n) just below m n: Gram form
        (2, 128, 127),  # k (m + n) just above m n: error product
        (3, 1, 200),
        (3, 200, 1),
    ],
)
def test_sq_error_matches_error_product(n_blocks, m, n):
    # k = 2 d n_blocks stacked rows (64 at two blocks); distinct blocks
    # couple through the cross-block entries of the Grams
    assert [pl._gram_side(64, 128, cols) for cols in (128, 129, 127)] == [True, True, False]
    rng = np.random.default_rng(17)
    d = 32 // n_blocks
    a = rng.standard_normal((n_blocks, 2 * d, m))
    b = rng.standard_normal((n_blocks, 2 * d, n))
    a2, b2 = a.reshape(-1, m), b.reshape(-1, n)
    want = np.sum((a2.T @ b2) ** 2)
    assert pl._inner(pl._gram(a), pl._gram(b)) == pytest.approx(want, rel=1e-12)
    assert pl._product_sq(a, b) == pytest.approx(want, rel=1e-12)


def test_sq_error_gram_side_makes_no_error_array():
    # int4 wush at d_in 64, d_out 4096, d_batch 2048: the factor a is 4 MiB,
    # b 2 MiB and w_hat 2 MiB, so an error array (64 MiB) or both factors
    # alive at once (8.5 MiB) would break the bound
    rng = np.random.default_rng(18)
    w, x = rng.standard_normal((64, 4096)), rng.standard_normal((64, 2048))
    assert pl._gram_side(2 * 64, 4096, 2048)
    pl.layer_loss(w, x, "wush", int4_scheme())  # warm the caches of numpy and LAPACK
    tracemalloc.start()
    try:
        pl.layer_loss(w, x, "wush", int4_scheme())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 2 ** 20


@pytest.mark.parametrize("n_blocks", [1, 2, 8])
def test_gram_side_block_losses_are_the_batched_block_grams(n_blocks):
    w, x = pl.gen_synthetic(_spec(d_in=16 * n_blocks, d_out=512, d_batch=512,
                                  outlier_count=2, outlier_magnitude=10.0))
    layer = Layer(w, x)
    plan = build_layer_plan(layer, PlanSpec("wush", nvfp4_scheme(), seed=4))
    a, b = pl._weight_factor(plan, layer.w), pl._act_factor(plan, layer.x)
    k = a.shape[0] * a.shape[1]
    assert pl._gram_side(k, 512, 512)  # evaluate takes the Gram side
    rep = pl.evaluate(plan, layer)
    assert rep.block_losses == tuple(float(v) / (512 * 512) for v in block_gram_losses(a, b))


def test_layer_loss_stochastic_reproducible():
    w, x = pl.gen_synthetic(_spec())
    scheme = mxfp4_scheme(rounding=ROUND_STOCHASTIC)
    a = pl.layer_loss(w, x, "wush", scheme, seed=11)
    b = pl.layer_loss(w, x, "wush", scheme, seed=11)
    c = pl.layer_loss(w, x, "wush", scheme, seed=12)
    assert a.layer_loss == b.layer_loss
    assert a.layer_loss != c.layer_loss


def test_first_order_gap_small():
    w, x = pl.gen_synthetic(_spec(outlier_count=2, outlier_magnitude=10.0))
    loss, fo, gap = pl.first_order_gap(w, x, "wush", int4_scheme())
    assert loss == pytest.approx(
        pl.layer_loss(w, x, "wush", int4_scheme()).layer_loss
    )
    assert fo > 0.0
    assert gap < 0.2


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_cell_matches_layer_loss_for_deterministic_kinds():
    w, x = pl.gen_synthetic(_spec())
    a = pl.sweep_cell(Layer(w, x), PlanSpec("wush", int4_scheme(), seed=1), r_repeats=5)
    b = pl.layer_loss(w, x, "wush", int4_scheme(), seed=1)
    assert a == b  # repeats only apply to the random-rotation kind


def test_sweep_cell_averages_random_rotations():
    w, x = pl.gen_synthetic(_spec())
    avg = pl.sweep_cell(Layer(w, x), PlanSpec("r", int4_scheme(), seed=4), r_repeats=3)
    singles = [
        pl.layer_loss(w, x, "r", int4_scheme(), seed=pl._repeat_seed(4, rep))
        for rep in range(3)
    ]
    assert avg.spec.seed == 4
    assert avg.layer_loss == pytest.approx(
        np.mean([r.layer_loss for r in singles]), rel=1e-15
    )
    for i in range(len(avg.block_losses)):
        assert avg.block_losses[i] == pytest.approx(
            np.mean([r.block_losses[i] for r in singles]), rel=1e-15
        )
    for r_repeats in (0, 1.5, True):
        with pytest.raises(InvalidSpec):
            pl.sweep_cell(Layer(w, x), PlanSpec("r", int4_scheme()), r_repeats=r_repeats)


def test_averaged_rotation_cell_reports_the_cells_spec():
    w, x = pl.gen_synthetic(_spec())
    spec = PlanSpec("r", int4_scheme(rounding=ROUND_STOCHASTIC), damp=0.3, seed=4)
    avg = pl.sweep_cell(Layer(w, x), spec, r_repeats=3)
    assert avg.spec == spec and avg.spec.seed == 4  # not a repeat's seed
    assert pl._repeat_seed(4, 1) != 4
    with pytest.raises(InvalidSpec, match="spec"):
        pl.sweep_cell(Layer(w, x), ("r", int4_scheme()))


class _StubConfig:
    """Minimal duck-typed experiment description for driving sweep()."""

    transforms = ("i", "wush")
    seeds = (0, 1)
    damp = 0.01
    r_repeats = 1
    layer_label = "synthetic"

    def resolved_schemes(self):
        return [("int4", int4_scheme())]

    def load_data(self, seed):
        return pl.gen_synthetic(_spec(seed=seed))


def test_sweep_grid_order_and_rows():
    rows = pl.sweep(_StubConfig())
    # 2 transforms x 1 scheme x 2 seeds x 2 blocks
    assert len(rows) == 8
    assert [(r.transform, r.seed, r.block) for r in rows] == [
        ("i", 0, 0), ("i", 0, 1), ("i", 1, 0), ("i", 1, 1),
        ("wush", 0, 0), ("wush", 0, 1), ("wush", 1, 0), ("wush", 1, 1),
    ]
    assert all(r.layer == "synthetic" and r.format == "int4" for r in rows)
    assert all(r.elapsed_ms is None for r in rows)
    # both blocks of a cell report the same layer-level loss
    assert rows[0].layer_loss == rows[1].layer_loss
    # deterministic: a second run reproduces the rows exactly
    assert pl.sweep(_StubConfig()) == rows


def test_sweep_loads_each_seed_once():
    class Counting(_StubConfig):
        def __init__(self):
            self.loaded = []

        def load_data(self, seed):
            self.loaded.append(seed)
            return super().load_data(seed)

    cfg = Counting()
    assert pl.sweep(cfg) == pl.sweep(_StubConfig())
    assert cfg.loaded == [0, 1]  # not once per (transform, seed) cell


def test_sweep_timings_toggle():
    rows = pl.sweep(_StubConfig(), timings=True)
    assert all(isinstance(r.elapsed_ms, float) and r.elapsed_ms >= 0.0 for r in rows)


def test_sweep_rejects_empty_grid():
    class Empty(_StubConfig):
        transforms = ()

    with pytest.raises(InvalidSpec, match="transform list"):
        pl.sweep(Empty())

    class NoSeeds(_StubConfig):
        seeds = ()

    with pytest.raises(InvalidSpec, match="seed list"):
        pl.sweep(NoSeeds())


class _GridConfig(_StubConfig):
    """Every kind and preset with stochastic rounding, two repeats of ``r``."""

    transforms = TRANSFORM_KINDS
    r_repeats = 2

    def resolved_schemes(self):
        return [(n, scheme_by_name(n, ROUND_STOCHASTIC)) for n in ("int4", "mxfp4", "nvfp4")]


def test_sweep_rows_equal_layer_loss_on_fresh_arrays_per_cell():
    # the cells of one seed share a Layer; nothing may leak between kinds,
    # schemes or seeds
    cfg = _GridConfig()
    expected = []
    for kind in cfg.transforms:
        for name, scheme in cfg.resolved_schemes():
            for seed in cfg.seeds:
                reps = [
                    pl.layer_loss(*cfg.load_data(seed), kind, scheme, seed=pl._repeat_seed(seed, r))
                    for r in range(cfg.r_repeats if kind == "r" else 1)
                ]
                loss = float(np.mean([r.layer_loss for r in reps]))
                for i in range(len(reps[0].block_losses)):
                    block = float(np.mean([r.block_losses[i] for r in reps]))
                    expected.append(pl.SweepRow("synthetic", kind, name, seed, i, block, loss, None))
    assert pl.sweep(cfg) == expected


def test_sweep_computes_moments_and_eigenproblems_once_per_layer(monkeypatch):
    calls = {"moments": [], "eigen": 0}
    real_moments, real_eigen = tf.second_moments, tf.sym_eigen

    def moments(w, x, d, damp):
        calls["moments"].append(d)
        return real_moments(w, x, d, damp)

    def eigen(m):
        calls["eigen"] += 1
        return real_eigen(m)

    monkeypatch.setattr(tf, "second_moments", moments)
    monkeypatch.setattr(tf, "sym_eigen", eigen)
    pl.sweep(_GridConfig())
    # two seeds x group sizes 32 (int4, mxfp4) and 16 (nvfp4) on d_in 64
    assert sorted(calls["moments"]) == [16, 16, 32, 32]
    assert calls["eigen"] == 2 * (64 // 32 + 64 // 16)
    calls["moments"].clear()
    w, x = pl.gen_synthetic(_spec())
    pl.layer_loss(w, x, "h", int4_scheme())
    assert calls["moments"] == []
