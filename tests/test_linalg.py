import numpy as np
import pytest

from wushkit import (
    InvalidSpec,
    NaNInput,
    NoConvergence,
    NotPositiveDefinite,
    NotPowerOfTwo,
    NotSymmetric,
    ShapeMismatch,
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


def test_cholesky_rejects_asymmetric_and_nan():
    with pytest.raises(NotSymmetric):
        cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NaNInput):
        cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def _scaled_stack(d):
    """Three well-conditioned matrices on scales 1e6, 1 and 1e-6, so that a
    check using one norm for the whole stack misjudges the small ones."""
    return np.stack([1e6 * _rand_spd(d, 1), _rand_spd(d, 2), 1e-6 * _rand_spd(d, 3)])


def test_cholesky_stack_checks_each_matrix():
    stack = _scaled_stack(4)
    np.testing.assert_array_equal(cholesky(stack), np.stack([cholesky(m) for m in stack]))
    indefinite = stack.copy()
    indefinite[1] = np.ones((4, 4))  # only the middle matrix is singular
    with pytest.raises(NotPositiveDefinite):
        cholesky(indefinite)
    skewed = stack.copy()
    skewed[1, 0, 1] += 1e-4  # asymmetric on its own scale, not on the stack's
    with pytest.raises(NotSymmetric):
        cholesky(skewed)


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


@pytest.mark.parametrize("d", [0, 3, 6, 12, -4, True, 4.5, np.float64(4)])
def test_hadamard_rejects_non_power_of_two(d):
    # anything but a positive power-of-two integer: bools and floats too
    with pytest.raises(NotPowerOfTwo):
        hadamard(d)


def test_hadamard_accepts_numpy_integers():
    np.testing.assert_array_equal(hadamard(np.int64(4)), hadamard(4))


def test_hadamard_is_built_once_per_size_and_read_only():
    h = hadamard(16)
    assert hadamard(np.int64(16)) is h
    with pytest.raises(ValueError):
        h[0, 0] = 0.0


# --------------------------------------------------------- random_rotation


@pytest.mark.parametrize("d", [2, 32])
def test_random_rotation_is_orthogonal(d):
    # Haar on O(d), not SO(d): both determinant signs must occur
    dets = []
    for seed in range(16):
        q = random_rotation(d, seed=seed)
        np.testing.assert_allclose(q @ q.T, np.eye(d), atol=1e-12)
        dets.append(np.linalg.det(q))
    np.testing.assert_allclose(np.abs(dets), 1.0, atol=1e-10)
    assert min(dets) < 0.0 < max(dets)


def test_random_rotation_entries_have_haar_moments():
    # Haar entries have mean 0 and variance 1/d; without the sign fix of the
    # QR factor, the Householder convention pins q[0, 0] to one sign
    q = np.stack([random_rotation(4, seed=s) for s in range(2000)])
    assert np.max(np.abs(q.mean(axis=0))) < 0.06  # 5 SE
    np.testing.assert_allclose((q ** 2).mean(axis=0), 0.25, atol=0.03)


def test_random_rotation_seeding():
    a = random_rotation(16, seed=1)
    np.testing.assert_array_equal(a, random_rotation(16, seed=1))
    assert not np.array_equal(a, random_rotation(16, seed=2))
    for seed in (-1, 1.5):
        with pytest.raises(InvalidSpec, match="seed"):
            random_rotation(4, seed)
    for d in (4.5, True, "4"):
        with pytest.raises(ShapeMismatch, match="rotation size"):
            random_rotation(d, 0)


# ------------------------------------------------------------------ invert


def test_invert_roundtrip():
    t = _rand_spd(12, 3) + 0.5 * np.eye(12)
    np.testing.assert_allclose(invert(t) @ t, np.eye(12), atol=1e-10)


def test_invert_rejects_singular_and_illconditioned():
    with pytest.raises(Singular):
        invert(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(Singular):
        invert(np.diag([1.0, 1e-15]))


def test_invert_stack_checks_each_matrix():
    stack = _scaled_stack(4)
    np.testing.assert_array_equal(invert(stack), np.stack([invert(m) for m in stack]))
    bad = stack.copy()
    bad[1] = np.diag([1.0, 1.0, 1.0, 1e-15])  # only the middle matrix is ill-conditioned
    with pytest.raises(Singular):
        invert(bad)


def test_stacks_and_vectors_are_shape_checked():
    with pytest.raises(ShapeMismatch):
        sym_eigen(np.stack([np.eye(3), np.eye(3)]))
    for f in (sym_eigen, cholesky, invert):
        with pytest.raises(ShapeMismatch):
            f(np.ones(3))


def test_refusals_name_integers_too_long_to_print(tmp_path):
    # Python will not print an integer of more than 4300 digits; the
    # refusal names its bit length instead of failing to format it
    from wushkit import (
        IntSpec, ValidationError, build_block, mc_max_sq, one_sided_loss_mc, scheme_by_name,
        second_moments, write_tensor,
    )

    huge = 10 ** 5000
    for error, call in (
        (InvalidSpec, lambda: mc_max_sq("gaussian", -huge)),
        (NotPowerOfTwo, lambda: hadamard(3 * huge)),
        (InvalidSpec, lambda: IntSpec(huge)),
        (ShapeMismatch, lambda: second_moments(np.ones((4, 2)), np.ones((4, 3)), huge)),
        (InvalidSpec, lambda: mc_max_sq(huge, 2)),
        (InvalidSpec, lambda: scheme_by_name(huge)),
        (InvalidSpec, lambda: scheme_by_name("int4", group_size=huge)),
        (InvalidSpec, lambda: build_block(huge, np.eye(2)[None], np.eye(2)[None])),
        (InvalidSpec, lambda: write_tensor(tmp_path / "t.wten", np.ones(2), huge)),
        (ValidationError, lambda: one_sided_loss_mc(np.eye(2), np.eye(2), huge, 10, 0)),
    ):
        with pytest.raises(error, match="an integer of 1661[02] bits"):
            call()


def test_integers_past_the_float_range_are_refused_as_non_finite():
    from wushkit import E2M1, compose_transform, int4_scheme, quantize_group, quantize_matrix, rtn_value

    huge = 10 ** 5000
    for call in (
        lambda: rtn_value(huge, E2M1),
        lambda: sym_eigen(huge),
        lambda: cholesky([[huge]]),
        lambda: compose_transform(huge, [1.0], [[1.0]], [[1.0]], [1.0]),
        lambda: quantize_matrix([[huge]] * 32, int4_scheme()),
        lambda: quantize_group([huge] * 32, int4_scheme()),
    ):
        with pytest.raises(NaNInput, match="an integer past the float range"):
            call()


def test_size_arguments_are_capped():
    # d x d draws stop at the element cap; mc_max_sq's d at 2**53, the last
    # integer float64 holds exactly
    from wushkit import mc_max_sq, random_spd_moment
    from wushkit.linalg import MAX_ELEMENTS

    side = int(MAX_ELEMENTS ** 0.5)
    assert side * side == MAX_ELEMENTS
    for d in (side + 1, 10 ** 5000):
        with pytest.raises(ShapeMismatch, match="rotation size"):
            random_rotation(d, 0)
        with pytest.raises(InvalidSpec, match="dimension"):
            random_spd_moment(d, 0)
    for d in (2 ** 53 + 1, 10 ** 5000):
        for family, cov in (("gaussian", "iid"), ("laplacian", "correlated")):
            with pytest.raises(InvalidSpec, match="dimension"):
                mc_max_sq(family, d, cov, 10)
    est = mc_max_sq("gaussian", 2 ** 53, "correlated", 10)
    assert np.isfinite([est.empirical, est.se, est.bound]).all()
