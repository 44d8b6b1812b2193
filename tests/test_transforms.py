"""Moment construction and stacked block-transform algebra."""

import numpy as np
import pytest

from wushkit import transforms as tf
from wushkit.errors import (
    InvalidSpec, NaNInput, NotPositiveDefinite, NumericalError, Overflow, ShapeMismatch,
)
from wushkit.linalg import hadamard, random_rotation
from wushkit.quantformats import mxfp4_scheme, nvfp4_scheme, quantize_matrix

RNG = np.random.default_rng


def _random_layer(d_in, d_out, d_batch, seed):
    rng = RNG(seed)
    return rng.standard_normal((d_in, d_out)), rng.standard_normal((d_in, d_batch))


def _spd_pair(d, seed):
    rng = RNG(seed)
    a = rng.standard_normal((d, 4 * d))
    b = rng.standard_normal((d, 4 * d))
    return a @ a.T / (4 * d), b @ b.T / (4 * d)


# ---------------------------------------------------------------------------
# second moments


def _dense_moment_blocks(a, d, damp):
    """Diagonal blocks of ``a a^T / cols`` plus the full-diagonal ridge."""
    raw = a @ a.T / a.shape[1]
    full = raw + damp * float(np.mean(np.diag(raw))) * np.eye(a.shape[0])
    return np.stack([full[i : i + d, i : i + d] for i in range(0, a.shape[0], d)])


def test_second_moments_hand_computed():
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    x = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    pair = tf.second_moments(w, x, 2, damp=0.0)
    np.testing.assert_allclose(pair.m_w, [np.diag([0.5, 2.0])], atol=1e-15)
    np.testing.assert_allclose(
        pair.m_x, [np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0], atol=1e-15
    )


def test_second_moments_relative_ridge_uses_full_diagonal():
    cases = [
        # the ridge multiplies the mean of the *whole* diagonal, so a weak
        # block embedded in a strong layer is damped by the layer-wide scale
        (np.diag([0.1, 0.1, 10.0, 10.0]), np.eye(4), 2),
        (*_random_layer(48, 7, 90, seed=3), 16),  # 3 blocks
        (*_random_layer(48, 7, 90, seed=4), 4),  # 12 blocks
    ]
    for w, x, d in cases:
        pair = tf.second_moments(w, x, d, damp=0.01)
        for got, a in ((pair.m_w, w), (pair.m_x, x)):
            expected = _dense_moment_blocks(a, d, 0.01)
            assert got.shape == (a.shape[0] // d, d, d)
            np.testing.assert_allclose(
                got, expected, rtol=1e-14, atol=1e-14 * np.abs(expected).max()
            )


def test_second_moments_symmetric_and_default_damp():
    w, x = _random_layer(8, 5, 30, seed=0)
    pair = tf.second_moments(w, x, 4)
    np.testing.assert_array_equal(pair.m_w, pair.m_w.transpose(0, 2, 1))
    np.testing.assert_array_equal(pair.m_x, pair.m_x.transpose(0, 2, 1))
    assert tf.DEFAULT_DAMP == 0.01
    # damp strictly increases the diagonal
    undamped = tf.second_moments(w, x, 4, damp=0.0)
    diag = lambda m: np.diagonal(m, axis1=1, axis2=2)
    assert np.all(diag(pair.m_w) > diag(undamped.m_w))


def test_second_moments_validation():
    with pytest.raises(ShapeMismatch):
        tf.second_moments(np.ones((3, 2)), np.ones((4, 2)), 1)
    with pytest.raises(ShapeMismatch):
        tf.second_moments(np.ones(3), np.ones((3, 2)), 1)
    with pytest.raises(ShapeMismatch, match="not divisible"):
        tf.second_moments(np.ones((6, 2)), np.ones((6, 2)), 4)
    for damp in (-0.5, np.nan, np.inf, True, "0.1"):
        with pytest.raises(InvalidSpec, match="damp"):
            tf.second_moments(np.ones((2, 2)), np.ones((2, 2)), 2, damp=damp)
    for d in (2.0, True):
        with pytest.raises(ShapeMismatch, match="block size"):
            tf.second_moments(np.ones((2, 2)), np.ones((2, 2)), d)
    with pytest.raises(NaNInput):
        tf.second_moments(np.array([[np.nan, 1.0]]).T, np.ones((2, 2)), 2)


# ---------------------------------------------------------------------------
# single-block construction (a stack of one)


def _one_block(kind, mw, mx, seed=0):
    """``(t_act, t_weight)`` of ``build_block`` on a one-block stack."""
    t_act, t_weight = tf.build_block(kind, mw[None], mx[None], seed=seed)
    assert t_act.shape == t_weight.shape == (1,) + mw.shape
    return t_act[0], t_weight[0]


def _eigenvalues(mw, mx):
    """Clamped whitened eigenvalues of one block."""
    return tf._whitened_core(mw[None], mx[None])[1][0]


def test_isotropic_block_reduces_to_hadamard():
    # with both moments equal to I the whitening is trivial and the adaptive
    # transform collapses onto the plain Hadamard
    t_act, t_weight = _one_block("wush", np.eye(8), np.eye(8))
    np.testing.assert_array_equal(t_act, hadamard(8))
    np.testing.assert_allclose(t_weight, hadamard(8), atol=1e-12)
    np.testing.assert_array_equal(_eigenvalues(np.eye(8), np.eye(8)), np.ones(8))


@pytest.mark.parametrize("kind", tf.TRANSFORM_KINDS)
def test_transform_pairing_inverse_transpose(kind):
    mw, mx = _spd_pair(16, seed=3)
    t_act, t_weight = _one_block(kind, mw, mx, seed=5)
    d = 16
    np.testing.assert_allclose(t_act @ t_weight.T, np.eye(d), atol=1e-12)
    # and the exact-arithmetic identity it encodes: (Tw w)^T (Ta x) == w^T x
    w = RNG(1).standard_normal((d, 3))
    x = RNG(2).standard_normal((d, 7))
    np.testing.assert_allclose((t_weight @ w).T @ (t_act @ x), w.T @ x, atol=1e-10)


def test_orthogonal_kinds_share_both_sides():
    mw, mx = _spd_pair(8, seed=4)
    for kind in ("i", "h", "r"):
        t_act, t_weight = _one_block(kind, mw, mx, seed=9)
        np.testing.assert_array_equal(t_act, t_weight)
        np.testing.assert_allclose(t_act @ t_act.T, np.eye(8), atol=1e-12)
    assert not np.array_equal(
        _one_block("r", mw, mx, seed=1)[0], _one_block("r", mw, mx, seed=2)[0]
    )


def test_hadamard_variant_is_rotated_whitening():
    mw, mx = _spd_pair(16, seed=6)
    wus, _ = _one_block("wus", mw, mx)
    wush, _ = _one_block("wush", mw, mx)
    np.testing.assert_array_equal(wush, hadamard(16) @ wus)
    # the wus transform is the whitened core itself
    np.testing.assert_array_equal(wus, tf._whitened_core(mw[None], mx[None])[0][0])


def test_whitening_equalizes_both_transformed_moments():
    mw, mx = _spd_pair(16, seed=7)
    t_act, t_weight = _one_block("wus", mw, mx)
    root = np.sqrt(_eigenvalues(mw, mx))
    # activation side: T_a M_X T_a^T = Lam^1/2 ...
    np.testing.assert_allclose(t_act @ mx @ t_act.T, np.diag(root), atol=1e-8)
    # ... and the weight side lands on the same diagonal
    np.testing.assert_allclose(t_weight @ mw @ t_weight.T, np.diag(root), atol=1e-8)


def test_hadamard_variant_flattens_diagonal_preserving_trace():
    mw, mx = _spd_pair(16, seed=8)
    t_act, _ = _one_block("wush", mw, mx)
    out = t_act @ mx @ t_act.T
    root = np.sqrt(_eigenvalues(mw, mx))
    np.testing.assert_allclose(np.diag(out), np.full(16, root.mean()), atol=1e-8)
    assert np.isclose(np.trace(out), root.sum(), rtol=1e-10)


def test_eigenvalues_descending_and_clamped():
    mw, mx = _spd_pair(32, seed=9)
    lam = _eigenvalues(mw, mx)
    assert np.all(np.diff(lam) <= 0)
    assert lam[-1] >= tf.EIGEN_CLAMP_REL * lam[0] - 1e-30


def test_rank_deficient_block_survives_via_clamp():
    # activation moment of rank 1: the clamp floors the dead directions
    v = np.arange(1.0, 9.0)[:, None]
    mx = v @ v.T
    mw = np.eye(8)
    t_act, _ = _one_block("wus", mw, mx)
    assert np.isfinite(t_act).all()
    lam = _eigenvalues(mw, mx)
    assert lam[-1] == tf.EIGEN_CLAMP_REL * lam[0]


def test_build_block_validation():
    with pytest.raises(InvalidSpec, match="unknown transform kind"):
        tf.build_block("x", np.eye(2)[None], np.eye(2)[None])
    with pytest.raises(ShapeMismatch):
        tf.build_block("wus", np.eye(2)[None], np.eye(3)[None])
    with pytest.raises(ShapeMismatch):  # one block must still be a stack
        tf.build_block("wus", np.eye(2), np.eye(2))
    with pytest.raises(ShapeMismatch):
        tf.build_block("i", np.ones((1, 2, 3)), np.ones((1, 2, 3)))
    with pytest.raises(ShapeMismatch):
        tf.build_block("h", np.empty((0, 2, 2)), np.empty((0, 2, 2)))
    with pytest.raises(NaNInput):
        tf.build_block("h", np.full((1, 2, 2), np.nan), np.eye(2)[None])
    with pytest.raises(NotPositiveDefinite):
        tf.build_block("wus", np.zeros((1, 4, 4)), np.eye(4)[None])
    for kind in ("r", "h"):
        with pytest.raises(InvalidSpec, match="seed"):
            tf.build_block(kind, np.eye(2)[None], np.eye(2)[None], seed=-1)


# ---------------------------------------------------------------------------
# stacked construction


def _spd_stack(d, n, seed):
    pairs = [_spd_pair(d, seed + i) for i in range(n)]
    return np.stack([p[0] for p in pairs]), np.stack([p[1] for p in pairs])


@pytest.mark.parametrize("d", [16, 32])
@pytest.mark.parametrize("kind", [k for k in tf.TRANSFORM_KINDS if k != "r"])
def test_stack_equals_its_one_block_slices(kind, d):
    mw, mx = _spd_stack(d, 3, seed=20)
    t_act, t_weight = tf.build_block(kind, mw, mx)
    assert t_act.shape == t_weight.shape == (3, d, d)
    for i in range(3):
        a_i, w_i = tf.build_block(kind, mw[i : i + 1], mx[i : i + 1])
        np.testing.assert_array_equal(t_act[i], a_i[0])
        np.testing.assert_array_equal(t_weight[i], w_i[0])


def test_stack_fails_on_one_bad_block():
    mw, mx = _spd_stack(8, 3, seed=40)
    mw[1] = 0.0  # only the middle weight moment is singular
    with pytest.raises(NotPositiveDefinite):
        tf.build_block("wush", mw, mx)


# ---------------------------------------------------------------------------
# layer plans


def test_plan_block_layout():
    w, x = _random_layer(48, 6, 100, seed=10)
    plan = tf.build_layer_plan(tf.Layer(w, x), "wush", nvfp4_scheme(), seed=0)
    assert plan.n_blocks == 3
    assert plan.d == 16 and plan.d_in == 48 and plan.d_out == 6
    assert plan.t_act.shape == plan.t_weight.shape == (3, 16, 16)
    assert plan.w_hat.shape == (3, 16, 6)
    # stack entry i is the block built from moment block i
    pair = tf.second_moments(w, x, 16)
    for i in range(3):
        direct, _ = _one_block("wush", pair.m_w[i], pair.m_x[i])
        np.testing.assert_array_equal(plan.t_act[i], direct)


def test_plan_matches_single_block_construction():
    w, x = _random_layer(16, 4, 64, seed=11)
    scheme = nvfp4_scheme()
    plan = tf.build_layer_plan(tf.Layer(w, x), "wus", scheme, damp=0.02)
    pair = tf.second_moments(w, x, 16, damp=0.02)
    t_act, t_weight = _one_block("wus", pair.m_w[0], pair.m_x[0])
    np.testing.assert_array_equal(plan.t_act[0], t_act)
    np.testing.assert_array_equal(plan.w_hat[0], quantize_matrix(t_weight @ w, scheme))


def test_plan_rotation_seeding():
    w, x = _random_layer(64, 4, 64, seed=12)
    scheme = mxfp4_scheme()
    plan = tf.build_layer_plan(tf.Layer(w, x), "r", scheme, seed=7)
    assert not np.array_equal(plan.t_act[0], plan.t_act[1])
    # block i's rotation is seeded from child i of the plan seed
    children = np.random.SeedSequence(7).spawn(2)
    for i, child in enumerate(children):
        direct = random_rotation(32, int(child.generate_state(1)[0]))
        np.testing.assert_array_equal(plan.t_act[i], direct)


def test_plan_deterministic():
    w, x = _random_layer(32, 5, 50, seed=13)
    a = tf.build_layer_plan(tf.Layer(w, x), "wush", mxfp4_scheme(), seed=3)
    b = tf.build_layer_plan(tf.Layer(w, x), "wush", mxfp4_scheme(), seed=3)
    np.testing.assert_array_equal(a.t_act, b.t_act)
    np.testing.assert_array_equal(a.t_weight, b.t_weight)
    np.testing.assert_array_equal(a.w_hat, b.w_hat)


def test_plan_stochastic_weights_seeded():
    from wushkit.quantformats import ROUND_STOCHASTIC

    w, x = _random_layer(32, 5, 50, seed=14)
    scheme = mxfp4_scheme(rounding=ROUND_STOCHASTIC)
    a = tf.build_layer_plan(tf.Layer(w, x), "wus", scheme, seed=3)
    b = tf.build_layer_plan(tf.Layer(w, x), "wus", scheme, seed=3)
    c = tf.build_layer_plan(tf.Layer(w, x), "wus", scheme, seed=4)
    np.testing.assert_array_equal(a.w_hat, b.w_hat)
    assert not np.array_equal(a.w_hat, c.w_hat)


def test_plan_indivisible_d_in():
    w, x = _random_layer(24, 4, 30, seed=15)
    with pytest.raises(ShapeMismatch, match="not divisible"):
        tf.build_layer_plan(tf.Layer(w, x), "wush", nvfp4_scheme())


# ---------------------------------------------------------------------------
# layers


def test_layer_checks_once_and_caches_read_only_moments_and_cores():
    w, x = _random_layer(32, 5, 50, seed=16)
    layer = tf.Layer(w, x)
    pair = layer.moments(16, 0.02)
    assert layer.moments(np.int64(16), np.float64(0.02)) is pair
    reference = tf.second_moments(w, x, 16, 0.02)
    np.testing.assert_array_equal(pair.m_w, reference.m_w)
    np.testing.assert_array_equal(pair.m_x, reference.m_x)
    core = layer.core(16, 0.02)
    assert layer.core(16, 0.02) is core and layer.core(16) is not core
    np.testing.assert_array_equal(core, tf._whitened_core(reference.m_w, reference.m_x)[0])
    for a in (pair.m_w, pair.m_x, core):
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1.0
    # wus hands out the cached core itself; wush is its Hadamard rotation
    wus = tf.build_layer_plan(layer, "wus", nvfp4_scheme(), damp=0.02)
    wush = tf.build_layer_plan(layer, "wush", nvfp4_scheme(), damp=0.02)
    assert wus.t_act is core
    np.testing.assert_array_equal(wush.t_act, hadamard(16) @ core)


def test_layer_validation():
    with pytest.raises(ShapeMismatch):
        tf.Layer(np.ones((3, 2)), np.ones((4, 2)))
    with pytest.raises(ShapeMismatch):
        tf.Layer(np.ones(3), np.ones((3, 2)))
    with pytest.raises(ShapeMismatch):
        tf.Layer(np.ones((3, 2)), np.ones((3, 0)))
    with pytest.raises(NaNInput):
        tf.Layer(np.array([[np.nan, 1.0]]).T, np.ones((2, 2)))
    layer = tf.Layer(*_random_layer(32, 5, 50, seed=17))
    for damp in (True, "0.1", -1.0):
        with pytest.raises(InvalidSpec, match="damp"):
            layer.core(16, damp)
    with pytest.raises(ShapeMismatch, match="block size"):
        layer.moments(True)
    w, x = _random_layer(32, 5, 50, seed=17)
    with pytest.raises(InvalidSpec, match="layer"):
        tf.build_layer_plan(w, x, "h", nvfp4_scheme())


@pytest.mark.parametrize("side", ["weight", "activation"])
def test_layer_moments_that_overflow_are_a_numerical_error(side):
    w, x = _random_layer(32, 5, 50, seed=19)
    big = {"weight": (w * 1e160, x), "activation": (w, x * 1e160)}[side]
    layer = tf.Layer(*big)
    with pytest.raises(Overflow, match=f"{side} moment blocks overflow") as exc:
        layer.moments(16)
    assert isinstance(exc.value, NumericalError)
    with pytest.raises(Overflow):
        tf.second_moments(*big, 16)
    with pytest.raises(Overflow):
        tf.build_layer_plan(layer, "wush", nvfp4_scheme())


@pytest.mark.parametrize("kind", ["i", "h", "r"])
def test_orthogonal_plans_read_no_moments_but_check_damp_and_split(kind, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("orthogonal kinds do not need moments")

    monkeypatch.setattr(tf, "second_moments", refuse)
    layer = tf.Layer(*_random_layer(48, 5, 50, seed=18))
    assert tf.build_layer_plan(layer, kind, nvfp4_scheme()).n_blocks == 3
    with pytest.raises(InvalidSpec, match="damp"):
        tf.build_layer_plan(layer, kind, nvfp4_scheme(), damp=-1.0)
    with pytest.raises(InvalidSpec, match="seed"):
        tf.build_layer_plan(layer, kind, nvfp4_scheme(), seed=-1)
    with pytest.raises(ShapeMismatch, match="not divisible"):
        tf.build_layer_plan(layer, kind, mxfp4_scheme())
