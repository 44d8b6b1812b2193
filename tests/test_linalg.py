import numpy as np
import pytest

from wushkit import (
    InvalidSpec,
    NaNInput,
    NoConvergence,
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
from wushkit import cli


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
    # ties keep their diagonal index, so c * I gives back the identity
    vecs, vals = sym_eigen(2.5 * np.eye(3))
    np.testing.assert_array_equal(vecs, np.eye(3))
    np.testing.assert_array_equal(vals, [2.5, 2.5, 2.5])


def _repeated_spectrum():
    # non-diagonal, with exactly repeated eigenvalues: Q diag(3, 3, 1, 1) Q^T
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
    m = (q * np.array([3.0, 3.0, 1.0, 1.0])) @ q.T
    return 0.5 * (m + m.T)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 33, 64, 128, "repeated"])
def test_sym_eigen_reconstruction_and_order(d):
    m = _repeated_spectrum() if d == "repeated" else _rand_sym(d, d)
    d = m.shape[0]
    vecs, vals = sym_eigen(m)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.T, m, atol=1e-10)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(d), atol=1e-12)
    assert np.all(np.diff(vals) <= 1e-12)  # descending
    np.testing.assert_allclose(
        vals, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-10
    )
    # sign rule: each eigenvector's largest-magnitude entry is positive
    assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)] > 0)


def test_sym_eigen_sign_convention():
    # the largest-magnitude entry of every eigenvector is positive
    vecs, _ = sym_eigen(_rand_sym(16, 5))
    for k in range(16):
        col = vecs[:, k]
        assert col[np.argmax(np.abs(col))] > 0


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetric):
        sym_eigen(np.arange(9.0).reshape(3, 3))


def test_sym_eigen_lapack_failure_is_no_convergence(monkeypatch, capsys):
    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NoConvergence):
        sym_eigen(_rand_sym(4, 0))
    # already-diagonal input never reaches LAPACK
    np.testing.assert_array_equal(sym_eigen(np.diag([1.0, 2.0])).eigenvalues, [2.0, 1.0])
    assert cli.main(["validate", "fp", "--d", "8", "--samples", "100"]) == 2
    assert "numerical failure" in capsys.readouterr().err


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
