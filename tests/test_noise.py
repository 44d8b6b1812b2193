"""Noise models, the FP/INT loss functionals, and their Monte Carlo cross-checks."""

import math
import tracemalloc

import numpy as np
import pytest

from _oracles import compose_transform, one_sided_loss_mc_alloc, sample_eta_alloc
from wushkit import noise
from wushkit.errors import InvalidSpec, NaNInput, ShapeMismatch, ValidationError
from wushkit.linalg import hadamard, random_rotation

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# element-wise noise models


def test_int_eta_second_moment_exact():
    assert noise.IntAbsmax(4).eta_second_moment() == 1.0 / 768.0
    assert noise.IntAbsmax(2).eta_second_moment() == 1.0 / 48.0


def test_fp_eta_second_moment_closed_form():
    got = noise.FpRelative(1, 0).eta_second_moment()
    u2 = LN2 ** 2 * 0.25 / 12.0
    v2 = LN2 ** 2 / 12.0
    assert math.isclose(got, u2 + v2 + u2 * v2, rel_tol=1e-15)


def test_model_validation():
    with pytest.raises(ValidationError):
        noise.FpRelative(-1, 0)
    with pytest.raises(ValidationError):
        noise.IntAbsmax(1)
    for bits in ((1.5, 2), (True, 2)):
        with pytest.raises(InvalidSpec, match="mant_bits"):
            noise.FpRelative(*bits)
    for bits in (4.5, "4"):
        with pytest.raises(InvalidSpec, match="bits"):
            noise.IntAbsmax(bits)


@pytest.mark.parametrize(
    "model",
    [noise.FpRelative(2, 4), noise.FpRelative(0, 0), noise.IntAbsmax(4)],
    ids=str,
)
def test_sampled_eta_matches_moments(model):
    rng = np.random.default_rng(5)
    eta = noise._eta_into(model, rng, np.empty((1, 400_000)))
    # eta is mean zero by construction; its second moment has a closed form
    assert abs(eta.mean()) <= 4.0 * eta.std() / math.sqrt(eta.size)
    m2 = float((eta * eta).mean())
    se = float((eta * eta).std()) / math.sqrt(eta.size)
    assert abs(m2 - model.eta_second_moment()) <= 4.0 * se


# one row, a few rows, empty rows or columns, and a full _TILE plus a partial one
@pytest.mark.parametrize(
    "shape", [(1, 400_000), (3, 5), (0, 3), (2, 0), (noise._TILE + 44, 3)], ids=str
)
@pytest.mark.parametrize("model", [noise.FpRelative(2, 4), noise.IntAbsmax(3)], ids=str)
def test_sample_eta_is_the_whole_array_formula(model, shape):
    want = sample_eta_alloc(model, np.random.default_rng(7), shape)
    out = np.empty(shape)
    assert noise._eta_into(model, np.random.default_rng(7), out) is out
    assert np.array_equal(out, want)


# ---------------------------------------------------------------------------
# transform parameterization


def test_compose_transform_identity():
    t = compose_transform(np.eye(3), np.ones(3), np.eye(3), np.eye(3), np.ones(3))
    np.testing.assert_allclose(t, np.eye(3), atol=1e-15)


def test_compose_transform_matches_manual_product():
    d = 4
    u = random_rotation(d, 1)
    r = random_rotation(d, 2)
    s = np.array([3.0, 2.0, 1.5, 0.5])
    sp = np.sqrt(s)
    t = compose_transform(hadamard(d), sp, r, u, s)
    manual = hadamard(d) @ np.diag(sp) @ r.T @ np.diag(1.0 / s) @ u.T
    np.testing.assert_allclose(t, manual, atol=1e-13)


# ---------------------------------------------------------------------------
# FP functional


def test_fp_trace_term_frozen_two_dim():
    # spectrum s = (4, 1): orthogonal transforms give tr(S^2) = 17, the
    # optimizer (Hadamard basis, s' = sqrt(s)) gives (4 + 1)^2 / 2 = 12.5
    s = np.array([4.0, 1.0])
    ident = noise.fp_trace_term(np.eye(2), np.ones(2), np.eye(2), s)
    assert math.isclose(ident, 17.0, rel_tol=1e-12)
    opt = noise.fp_trace_term(hadamard(2), np.sqrt(s), np.eye(2), s)
    assert math.isclose(opt, 12.5, rel_tol=1e-12)


def test_fp_trace_term_orthogonal_invariance():
    # any orthogonal T (s' = 1, arbitrary U' and R) evaluates to tr(S^2)
    rng_seeds = [3, 4, 5]
    s = np.array([2.0, 1.0, 0.5, 0.25])
    for seed in rng_seeds:
        up = random_rotation(4, seed)
        r = random_rotation(4, seed + 100)
        val = noise.fp_trace_term(up, np.ones(4), r, s)
        assert math.isclose(val, float(np.sum(s * s)), rel_tol=1e-10)


def test_fp_trace_term_lower_bound():
    rng = np.random.default_rng(17)
    for d in (2, 4, 8):
        s = np.exp(rng.standard_normal(d))
        floor = float(np.sum(s)) ** 2 / d
        for k in range(5):
            up = random_rotation(d, 1000 + k)
            r = random_rotation(d, 2000 + k)
            sp = np.exp(rng.standard_normal(d))
            assert noise.fp_trace_term(up, sp, r, s) >= floor - 1e-9
        # the bound is attained by the Hadamard/sqrt construction
        opt = noise.fp_trace_term(hadamard(d), np.sqrt(s), np.eye(d), s)
        assert math.isclose(opt, floor, rel_tol=1e-10)


def test_fp_trace_term_rejects_non_orthogonal():
    s = np.ones(2)
    with pytest.raises(ValidationError, match="not orthogonal"):
        noise.fp_trace_term(np.array([[1.0, 0.0], [1.0, 1.0]]), s, np.eye(2), s)
    with pytest.raises(ShapeMismatch):
        noise.fp_trace_term(np.eye(3), np.ones(2), np.eye(2), np.ones(2))
    with pytest.raises(NaNInput):
        noise.fp_trace_term(np.full((2, 2), np.nan), s, np.eye(2), s)
    # Q Q^T overflows to inf - inf = NaN, which must not pass as orthogonal
    huge = np.array([[1e200, 1e200], [1e200, -1e200]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValidationError, match="not orthogonal"):
            noise.fp_trace_term(huge, s, np.eye(2), s)


# ---------------------------------------------------------------------------
# INT bound chain


def test_int_bounds_frozen_cases():
    lo, hi = noise.int_bounds(np.ones(4), np.ones(4))
    assert (lo, hi) == (4.0, 16.0)
    lo, hi = noise.int_bounds([4.0, 1.0], [2.0, 1.0])
    assert math.isclose(lo, 12.5, rel_tol=1e-15)
    assert math.isclose(hi, 25.0, rel_tol=1e-15)


def test_int_upper_minimized_at_sqrt_spectrum():
    s = np.array([4.0, 1.0])
    best = noise.int_bounds(s, np.sqrt(s)).upper
    assert math.isclose(best, float(np.sum(s)) ** 2, rel_tol=1e-12)
    # scaling s' leaves the product invariant; any other shape does worse
    assert math.isclose(noise.int_bounds(s, 3.0 * np.sqrt(s)).upper, best, rel_tol=1e-12)
    assert noise.int_bounds(s, np.ones(2)).upper > best + 1.0
    assert noise.int_bounds(s, s).upper > best + 1.0


def test_int_bounds_validation():
    with pytest.raises(ShapeMismatch):
        noise.int_bounds(np.ones(3), np.ones(2))
    with pytest.raises(ValidationError):
        noise.int_bounds(np.zeros(2), np.ones(2))


# ---------------------------------------------------------------------------
# Monte Carlo cross-checks of the algebra


def test_mc_fp_orthogonal_matches_trace():
    model = noise.FpRelative(2, 4)
    moment, s = noise.random_spd_moment(8, seed=21)
    est = noise.one_sided_loss_mc(np.eye(8), moment, model, 200_000, seed=3)
    predicted = model.eta_second_moment() * float(np.trace(moment))
    assert abs(est.value - predicted) <= 4.0 * est.se


def test_mc_fp_optimal_matches_functional():
    d = 4
    model = noise.FpRelative(2, 4)
    u = random_rotation(d, 31)
    s = np.array([3.0, 2.0, 1.0, 0.5])
    moment = (u * (s * s)[None, :]) @ u.T
    t = compose_transform(hadamard(d), np.sqrt(s), np.eye(d), u, s)
    est = noise.one_sided_loss_mc(t, moment, model, 200_000, seed=4)
    predicted = model.eta_second_moment() * noise.fp_trace_term(
        hadamard(d), np.sqrt(s), np.eye(d), s
    )
    assert abs(est.value - predicted) <= 4.0 * est.se
    # and it beats the untransformed loss
    assert predicted < model.eta_second_moment() * float(np.trace(moment))


def test_mc_int_two_estimators_agree():
    d = 6
    model = noise.IntAbsmax(4)
    u = random_rotation(d, 8)
    s = np.exp(0.7 * np.random.default_rng(9).standard_normal(d))
    moment = (u * (s * s)[None, :]) @ u.T
    # the loss factorizes: E[eta^2] * |T^-1|_F^2 * E max_k (Ty)_k^2
    t = compose_transform(random_rotation(d, 77), np.sqrt(s), np.eye(d), u, s)
    est = noise.one_sided_loss_mc(t, moment, model, 300_000, seed=10)
    rng = np.random.default_rng(11)
    chol = np.linalg.cholesky(moment)
    ty = (rng.standard_normal((300_000, d)) @ chol.T) @ t.T
    amp2 = np.abs(ty).max(axis=1) ** 2
    t_inv_fro2 = float(np.sum(np.linalg.inv(t) ** 2))
    factored = model.eta_second_moment() * t_inv_fro2 * float(amp2.mean())
    se_f = model.eta_second_moment() * t_inv_fro2 * float(amp2.std()) / math.sqrt(amp2.size)
    assert abs(est.value - factored) <= 4.0 * (est.se + se_f)


def test_mc_int_respects_bound_chain():
    # diagonal case: T = diag(s'/s), moment = diag(s^2)
    d = 8
    rng = np.random.default_rng(13)
    s = np.exp(0.5 * rng.standard_normal(d))
    sp = np.sqrt(s)
    model = noise.IntAbsmax(4)
    t = np.diag(sp / s)
    est = noise.one_sided_loss_mc(t, np.diag(s * s), model, 200_000, seed=14)
    lo, hi = noise.int_bounds(s, sp)
    scaled = est.value / model.eta_second_moment()
    slack = 4.0 * est.se / model.eta_second_moment()
    assert lo - slack <= scaled <= hi + slack


MC_MODELS = [noise.FpRelative(3, 3), noise.IntAbsmax(4)]


def _mc_problem(d):
    moment, _ = noise.random_spd_moment(d, seed=d, spread=1.0)
    scale = np.linspace(0.5, 2.0, d)[None, :]
    return random_rotation(d, d + 1) * scale, moment


def _chunk_rows(d):
    """Samples per Monte Carlo chunk at dimension ``d``: the rows rule."""
    return max(1, noise._CHUNK_SCALARS // d)


# one partial chunk, exactly one chunk, one more sample, and several chunks
@pytest.mark.parametrize(
    "d, n_samples",
    [(d, n) for d in (1, 4, 32) for n in (1000, _chunk_rows(d), _chunk_rows(d) + 1, 140_000)],
)
@pytest.mark.parametrize("model", MC_MODELS, ids=str)
def test_mc_in_place_loop_is_the_allocating_loop(model, d, n_samples):
    t, moment = _mc_problem(d)
    got = noise.one_sided_loss_mc(t, moment, model, n_samples, seed=3)
    assert got == one_sided_loss_mc_alloc(t, moment, model, n_samples, seed=3)


@pytest.mark.parametrize("tile", [1, 7, 2000])
@pytest.mark.parametrize("d", [1, 4, 32])
@pytest.mark.parametrize("model", MC_MODELS, ids=str)
def test_mc_estimate_does_not_depend_on_the_tile(model, d, tile, monkeypatch):
    # three chunks of 600 and one of 300, against tiles that split them
    # unevenly, into single rows, or not at all
    monkeypatch.setattr(noise, "_CHUNK_SCALARS", 600 * d)
    t, moment = _mc_problem(d)
    want = one_sided_loss_mc_alloc(t, moment, model, 2100, seed=5)
    monkeypatch.setattr(noise, "_TILE", tile)
    assert noise.one_sided_loss_mc(t, moment, model, 2100, seed=5) == want


@pytest.mark.parametrize(
    "d, n_samples", [(32, 20_000), (8, 100_000), (128, 20_000), (1, 140_000)]
)
@pytest.mark.parametrize("model", MC_MODELS, ids=str)
def test_mc_peak_memory_is_two_chunk_buffers_and_a_tile(model, d, n_samples):
    # the bound depends on the scalar budget and d, not on n_samples
    t, moment = _mc_problem(d)
    noise.one_sided_loss_mc(t, moment, model, 10, seed=0)  # warm lazy imports
    rows = _chunk_rows(d)
    buffers = 2 * noise._CHUNK_SCALARS * 8  # the two (rows, d) float64 chunk buffers
    # the two reused per-sample vectors: li (also the INT absmax) and li * li
    vectors = 2 * rows * 8
    tile = min(noise._TILE, rows) * d * 8
    slack = 16 * d * d * 8 + (64 << 10)  # d x d factors, LAPACK work, scalars
    tracemalloc.start()
    try:
        noise.one_sided_loss_mc(t, moment, model, n_samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= buffers + vectors + tile + slack


def test_mc_validation():
    with pytest.raises(ValidationError):
        noise.one_sided_loss_mc(np.eye(2), np.eye(2), noise.IntAbsmax(4), 1, seed=0)
    with pytest.raises(ShapeMismatch):
        noise.one_sided_loss_mc(np.ones((2, 3)), np.eye(2), noise.IntAbsmax(4), 10, seed=0)
    with pytest.raises(ShapeMismatch):
        noise.one_sided_loss_mc(np.eye(3), np.eye(2), noise.IntAbsmax(4), 10, seed=0)
    with pytest.raises(NaNInput):
        noise.one_sided_loss_mc(np.full((2, 2), np.nan), np.eye(2), noise.IntAbsmax(4), 10, seed=0)
    with pytest.raises(ValidationError, match="integer"):
        noise.one_sided_loss_mc(np.eye(2), np.eye(2), noise.IntAbsmax(4), 10.5, seed=0)
    for seed in (-1, 1.5):
        with pytest.raises(InvalidSpec, match="seed"):
            noise.one_sided_loss_mc(np.eye(2), np.eye(2), noise.IntAbsmax(4), 10, seed=seed)
    for model in ("int4", None, noise.IntAbsmax):
        with pytest.raises(ValidationError, match="model"):
            noise.one_sided_loss_mc(np.eye(2), np.eye(2), model, 10, seed=0)


# ---------------------------------------------------------------------------
# random SPD moments


def test_random_spd_moment_deterministic_and_spd():
    m1, s1 = noise.random_spd_moment(6, seed=3)
    m2, s2 = noise.random_spd_moment(6, seed=3)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(s1, s2)
    assert np.all(np.linalg.eigvalsh(m1) > 0)
    assert np.all(np.diff(s1) <= 0)  # descending
    m3, _ = noise.random_spd_moment(6, seed=4)
    assert not np.array_equal(m1, m3)


def test_random_spd_moment_spectrum():
    moment, s = noise.random_spd_moment(10, seed=5, spread=1.5)
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(moment)), np.sort(s * s), rtol=1e-10
    )
    ident, s0 = noise.random_spd_moment(5, seed=6, spread=0.0)
    np.testing.assert_allclose(ident, np.eye(5), atol=1e-12)
    np.testing.assert_array_equal(s0, np.ones(5))


def test_random_spd_moment_validation():
    with pytest.raises(ValidationError):
        noise.random_spd_moment(0, seed=1)
    with pytest.raises(ValidationError):
        noise.random_spd_moment(3, seed=1, spread=-0.1)
    for spread in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="spread"):
            noise.random_spd_moment(3, seed=1, spread=spread)
    with pytest.raises(InvalidSpec, match="seed"):
        noise.random_spd_moment(4, -1)
    for d in (4.5, True):
        with pytest.raises(ValidationError, match="integer"):
            noise.random_spd_moment(d, 0)
    for spread in ("1", True):
        with pytest.raises(ValidationError, match="spread"):
            noise.random_spd_moment(3, seed=1, spread=spread)
