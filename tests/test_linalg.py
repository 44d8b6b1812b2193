import numpy as np
import pytest

import wushkit
from wushkit import (
    InvalidSpec,
    NaNInput,
    NotPositiveDefinite,
    NotPowerOfTwo,
    NotSymmetric,
    Singular,
    cholesky,
    hadamard,
    invert,
    random_rotation,
    sym_eigen,
)
from wushkit._accel import HAS_NUMBA


def _rand_sym(d, seed, scale=1.0):
    g = np.random.default_rng(seed).standard_normal((d, d))
    return scale * (g + g.T) / 2.0


def _rand_spd(d, seed):
    g = np.random.default_rng(seed).standard_normal((d, d))
    return g @ g.T / d + np.eye(d)


# ---------------------------------------------------------------- cholesky


def test_cholesky_2x2_exact():
    l = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
    np.testing.assert_array_equal(l, [[2.0, 0.0], [1.0, 2.0]])


def test_cholesky_reconstructs():
    m = _rand_spd(24, 0)
    l = cholesky(m)
    np.testing.assert_allclose(l @ l.T, m, atol=1e-12)
    assert np.all(np.diag(l) > 0)
    assert np.allclose(np.triu(l, 1), 0.0)


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_damping_rescues_singular():
    m = np.ones((4, 4))  # rank one
    with pytest.raises(NotPositiveDefinite):
        cholesky(m)
    l = cholesky(m, damp=0.01)
    # damping adds damp * mean(diag) to the diagonal
    np.testing.assert_allclose(l @ l.T, m + 0.01 * np.eye(4), atol=1e-12)


def test_cholesky_rejects_negative_damp():
    with pytest.raises(InvalidSpec, match="damp"):
        cholesky(np.eye(2), damp=-0.01)


def test_cholesky_rejects_asymmetric_and_nan():
    with pytest.raises(NotSymmetric):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NaNInput):
        cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --------------------------------------------------------------- sym_eigen


def test_sym_eigen_2x2_exact():
    vecs, vals = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(vecs[:, 0], [r, r], atol=1e-14)
    # sign convention: the first of the two equal-magnitude entries is positive
    np.testing.assert_allclose(vecs[:, 1], [r, -r], atol=1e-14)


def test_sym_eigen_diagonal_input_is_exact():
    m = np.diag([3.0, -1.0, 7.0, 0.5])
    vecs, vals = sym_eigen(m)
    np.testing.assert_array_equal(vals, [7.0, 3.0, 0.5, -1.0])
    # eigenvectors are signed unit vectors in the sort order
    np.testing.assert_array_equal(np.abs(vecs), np.eye(4)[:, [2, 0, 3, 1]])


@pytest.mark.parametrize("d", [3, 8, 33, 64])
def test_sym_eigen_reconstruction_and_order(d):
    m = _rand_sym(d, d)
    vecs, vals = sym_eigen(m)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-10)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-12)
    assert np.all(np.diff(vals) <= 1e-12)  # descending
    np.testing.assert_allclose(
        vals, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10
    )


def test_sym_eigen_sign_convention():
    # the largest-magnitude entry of every eigenvector is positive
    vecs, _ = sym_eigen(_rand_sym(16, 5))
    for k in range(16):
        col = vecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen(np.arange(9.0).reshape(3, 3))


# ---------------------------------------------------------------- hadamard


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16, 32, 64, 128])
def test_hadamard_orthogonal_uniform_entries(d):
    h = hadamard(d)
    np.testing.assert_allclose(h @ h.T, np.eye(d), atol=1e-12)
    np.testing.assert_allclose(np.abs(h), np.full((d, d), d ** -0.5), rtol=1e-15)


@pytest.mark.parametrize("d", [0, 3, 6, 12, -4])
def test_hadamard_rejects_non_power_of_two(d):
    with pytest.raises(NotPowerOfTwo):
        hadamard(d)


# --------------------------------------------------------- random_rotation


def test_random_rotation_is_special_orthogonal():
    q = random_rotation(32, seed=9)
    np.testing.assert_allclose(q @ q.T, np.eye(32), atol=1e-12)
    assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-10)


def test_random_rotation_seeding():
    a = random_rotation(16, seed=1)
    np.testing.assert_array_equal(a, random_rotation(16, seed=1))
    assert not np.array_equal(a, random_rotation(16, seed=2))


# ------------------------------------------------------------------ invert


def test_invert_roundtrip():
    t = _rand_spd(12, 3) + 0.5 * np.eye(12)
    np.testing.assert_allclose(invert(t) @ t, np.eye(12), atol=1e-10)


def test_invert_rejects_singular_and_illconditioned():
    with pytest.raises(Singular):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(Singular):
        invert(np.diag([1.0, 1e-15]))


# ---------------------------------------------------------------- backends


@pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")
def test_backends_agree_bitwise_on_eigen():
    m = _rand_sym(48, 11)
    try:
        wushkit.set_backend("numpy")
        v_np, l_np = sym_eigen(m)
        wushkit.set_backend("numba")
        v_nb, l_nb = sym_eigen(m)
    finally:
        wushkit.set_backend("auto")
    np.testing.assert_array_equal(l_np, l_nb)
    np.testing.assert_array_equal(v_np, v_nb)
