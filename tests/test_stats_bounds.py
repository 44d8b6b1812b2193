"""Closed-form max-square bounds, their Monte Carlo checks, and the quadrature."""

import itertools
import math
import statistics

import numpy as np
import pytest

from wushkit import stats_bounds as sb
from wushkit.errors import InvalidCovariance, InvalidSpec, ValidationError


def _phi(t):
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# closed-form bounds


def test_gaussian_bound_frozen_values():
    assert sb.gaussian_max_bound(1) == 1.0
    assert sb.gaussian_max_bound(4) == 4.0
    assert math.isclose(sb.gaussian_max_bound(1024), 17.249237972318795, rel_tol=1e-13)


def test_gaussian_bound_crossover():
    # the linear branch wins up to d = 7, the logarithmic one from d = 8 on
    assert sb.gaussian_max_bound(7) == 7.0
    assert sb.gaussian_max_bound(8) == 2.0 * math.log(16.0) + 2.0
    for d in range(1, 1 << 14):
        expected = min(float(d), 2.0 * math.log(2.0 * d) + 2.0)
        assert sb.gaussian_max_bound(d) == expected


def test_laplacian_bound_frozen_values():
    assert sb.laplacian_max_bound(1) == 1.0
    # accepts non-integer dimensions: at d = e^2 the bound is 2 + 2 + 1
    assert math.isclose(sb.laplacian_max_bound(math.e ** 2), 5.0, rel_tol=1e-12)
    assert math.isclose(sb.laplacian_max_bound(1024), 31.954122501509524, rel_tol=1e-13)


def test_bounds_scale_with_variance():
    assert sb.gaussian_max_bound(32, 2.5) == 2.5 * sb.gaussian_max_bound(32)
    assert sb.laplacian_max_bound(32, 2.5) == 2.5 * sb.laplacian_max_bound(32)
    assert sb.gaussian_max_bound(32, 0.0) == 0.0


def test_bound_validation():
    for fn in (sb.gaussian_max_bound, sb.laplacian_max_bound):
        with pytest.raises(InvalidSpec):
            fn(0.5)
        for max_var in (-1.0, math.nan, math.inf):
            with pytest.raises(InvalidCovariance):
                fn(4, max_var)
        for d in (math.nan, math.inf, "3"):
            with pytest.raises(InvalidSpec):
                fn(d)


def test_consistent_flag():
    base = dict(d=4, family="gaussian", correlated=False)
    assert sb.MaxSqEstimate(1.2, 0.1, 1.0, **base).consistent()  # within 3 SE
    assert not sb.MaxSqEstimate(5.0, 0.1, 1.0, **base).consistent()


# ---------------------------------------------------------------------------
# Monte Carlo estimates


def test_mc_gaussian_d1_is_plain_variance():
    est = sb.mc_max_sq("gaussian", 1, n_samples=100_000, seed=1)
    assert est.d == 1 and est.family == "gaussian" and not est.correlated
    assert est.bound == 1.0
    assert abs(est.empirical - 1.0) <= 4.0 * est.se


def test_mc_gaussian_d4_matches_quadrature_oracle():
    oracle = sb.survival_expectation(
        lambda t: 2.0 * t,
        lambda t: 1.0 - (2.0 * _phi(t) - 1.0) ** 4,
        sb.SURVIVAL_HI_SIGMA,
    )
    assert math.isclose(oracle, 2.4702103878495225, rel_tol=1e-10)
    est = sb.mc_max_sq("gaussian", 4, n_samples=200_000, seed=2024)
    assert abs(est.empirical - oracle) <= 4.0 * est.se


def test_mc_laplacian_d4_matches_quadrature_oracle():
    # unit-variance Laplace has scale 1/sqrt(2): P(|X| > t) = exp(-sqrt(2) t)
    oracle = sb.survival_expectation(
        lambda t: 2.0 * t,
        lambda t: 1.0 - (1.0 - math.exp(-math.sqrt(2.0) * t)) ** 4,
        40.0,
    )
    assert math.isclose(oracle, 2.881944444514749, rel_tol=1e-10)
    est = sb.mc_max_sq("laplacian", 4, n_samples=200_000, seed=2024)
    assert abs(est.empirical - oracle) <= 4.0 * est.se


def test_mc_correlated_keeps_unit_marginals():
    # at d = 1 every structure degenerates to the marginal second moment
    for family in sb.FAMILIES:
        est = sb.mc_max_sq(family, 1, cov="correlated", n_samples=100_000, seed=3)
        assert est.correlated
        assert abs(est.empirical - 1.0) <= 4.0 * est.se


def test_mc_variance_scaling():
    est = sb.mc_max_sq("gaussian", 4, n_samples=50_000, seed=4, var=9.0)
    ref = sb.mc_max_sq("gaussian", 4, n_samples=50_000, seed=4, var=1.0)
    assert math.isclose(est.empirical, 9.0 * ref.empirical, rel_tol=1e-12)
    assert est.bound == 9.0 * ref.bound


@pytest.mark.parametrize("family", sb.FAMILIES)
@pytest.mark.parametrize("cov", sb.COV_STRUCTURES)
def test_mc_stays_below_bound(family, cov):
    for d in (2, 4, 16, 64):
        est = sb.mc_max_sq(family, d, cov, n_samples=20_000, seed=7)
        assert est.consistent()
        assert est.empirical < est.bound  # comfortably inside at these dims


def test_mc_chunking_is_invisible(monkeypatch):
    a = sb.mc_max_sq("gaussian", 4, n_samples=5000, seed=3)
    monkeypatch.setattr(sb, "_CHUNK_SCALARS", 64)
    b = sb.mc_max_sq("gaussian", 4, n_samples=5000, seed=3)
    assert math.isclose(a.empirical, b.empirical, rel_tol=1e-10)
    assert math.isclose(a.se, b.se, rel_tol=1e-8)


def test_mc_validation():
    with pytest.raises(InvalidSpec):
        sb.mc_max_sq("cauchy", 4)
    with pytest.raises(InvalidSpec):
        sb.mc_max_sq("gaussian", 4, cov="toeplitz")
    with pytest.raises(InvalidSpec):
        sb.mc_max_sq("gaussian", 0)
    with pytest.raises(ValidationError):
        sb.mc_max_sq("gaussian", 4, n_samples=1)
    with pytest.raises(InvalidCovariance):
        sb.mc_max_sq("gaussian", 4, rho=1.0)
    for var in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidCovariance):
            sb.mc_max_sq("gaussian", 4, var=var)
    for d in (4.5, True):  # True would run at d = 1
        with pytest.raises(InvalidSpec, match="integer"):
            sb.mc_max_sq("gaussian", d)
    for field, value in (("rho", "0.5"), ("var", "1"), ("var", True)):
        with pytest.raises(InvalidCovariance, match=field):
            sb.mc_max_sq("gaussian", 4, "correlated", **{field: value})
    with pytest.raises(ValidationError, match="integer"):
        sb.mc_max_sq("gaussian", 4, n_samples=10.5)
    for seed in (-1, 1.5):
        with pytest.raises(InvalidSpec, match="seed"):
            sb.mc_max_sq("gaussian", 4, seed=seed)


# ---------------------------------------------------------------------------
# quadrature


def test_adaptive_simpson_exact_on_cubic():
    got = sb.adaptive_simpson(lambda t: 3.0 * t * t * (1.0 - t), 0.0, 1.0)
    assert math.isclose(got, 0.25, rel_tol=1e-14)


def test_adaptive_simpson_covers_whole_interval():
    # mass concentrated in the upper half must not be dropped
    assert math.isclose(sb.adaptive_simpson(lambda t: t, 0.0, 2.0), 2.0, rel_tol=1e-13)
    bump = sb.adaptive_simpson(lambda t: math.exp(-100.0 * (t - 0.9) ** 2), 0.0, 1.0)
    half = math.sqrt(math.pi / 100.0)
    assert math.isclose(bump, half * 0.5 * (1.0 + math.erf(1.0)), rel_tol=1e-6)


def test_adaptive_simpson_gaussian_integral():
    got = sb.adaptive_simpson(
        lambda t: 2.0 / math.sqrt(math.pi) * math.exp(-t * t), 0.0, 10.0
    )
    assert math.isclose(got, 1.0, rel_tol=1e-9)


def test_adaptive_simpson_validation():
    with pytest.raises(ValidationError):
        sb.adaptive_simpson(lambda t: t, 1.0, 1.0)


def test_survival_expectation_exponential_moment():
    # X ~ Exp(1): E X^2 = 2 via the layer-cake identity
    got = sb.survival_expectation(lambda t: 2.0 * t, lambda t: math.exp(-t), 60.0)
    assert math.isclose(got, 2.0, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# the order-statistic sampler


def test_ndtri_matches_stdlib_as241():
    # statistics.NormalDist().inv_cdf runs the same AS241 on scalars
    inv = statistics.NormalDist().inv_cdf
    lo = np.logspace(-300, np.log10(0.07), 400)
    p = np.concatenate(
        [lo, np.linspace(0.07, 0.93, 401), 1.0 - lo[lo > 1e-16], [0.5, 1e-300, 1.0 - 2.0 ** -53]]
    )
    q = p - 0.5
    r = np.sqrt(-np.log(np.minimum(p, 1.0 - p)))
    central = np.abs(q) <= 0.425
    for side in (q < 0.0, q > 0.0):  # every branch on both sides is hit
        assert np.any(central & side)
        assert np.any(~central & side & (r <= 5.0))
        assert np.any(~central & side & (r > 5.0))
    got = sb._ndtri(p)
    want = np.array([inv(float(v)) for v in p])
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    # symmetry on exactly complementary pairs: 1 - hi is exact for hi >= 1/2
    hi = p[p >= 0.5]
    np.testing.assert_allclose(sb._ndtri(1.0 - hi), -sb._ndtri(hi), rtol=1e-14, atol=0.0)


def test_open_uniforms_stay_inside_the_unit_interval():
    class Extremes:
        def integers(self, low, high, size):
            return np.array([low, high - 1])

    u = sb._open_uniforms(Extremes(), 2)
    assert u.tolist() == [2.0 ** -53, 1.0 - 2.0 ** -53]
    u = sb._open_uniforms(np.random.default_rng(5), (1000, 3))
    assert u.shape == (1000, 3) and np.all((u > 0.0) & (u < 1.0))


@pytest.mark.parametrize("family", sb.FAMILIES)
@pytest.mark.parametrize("cov", sb.COV_STRUCTURES)
@pytest.mark.parametrize("d", [1, 3, 1024])
def test_max_sq_map_is_finite_at_extreme_uniforms(family, cov, d):
    extremes = (5e-324, 0.5, 1.0 - 2.0 ** -53)  # smallest subnormal .. largest below 1
    k = sb._N_UNIFORMS[family, cov]
    u = np.array(list(itertools.product(extremes, repeat=k)))
    for rho in (0.0, 0.5, 0.99):
        m = sb._max_sq_from_uniforms(u, d, family, cov, rho, 1.0)
        assert m.shape == (len(u),)
        assert np.all(np.isfinite(m)) and np.all(m >= 0.0)


def _renyi_laplace_max_sq(d):
    # max of d unit exponentials is sum_k E_k / k; unit-variance Laplace scale^2 is 1/2
    ks = range(1, d + 1)
    return 0.5 * (sum(1.0 / k ** 2 for k in ks) + sum(1.0 / k for k in ks) ** 2)


def test_mc_laplacian_iid_matches_renyi_oracle():
    assert math.isclose(_renyi_laplace_max_sq(4), 2.881944444514749, rel_tol=1e-10)
    for d in (1, 64, 1024):
        est = sb.mc_max_sq("laplacian", d, n_samples=400_000, seed=5101)
        assert abs(est.empirical - _renyi_laplace_max_sq(d)) <= 4.0 * est.se, (d, est)


def test_mc_gaussian_iid_d1024_matches_quadrature_oracle():
    d = 1024
    oracle = sb.survival_expectation(
        lambda t: 2.0 * t,
        lambda t: 1.0 - (2.0 * _phi(t) - 1.0) ** d,
        sb.SURVIVAL_HI_SIGMA,
    )
    est = sb.mc_max_sq("gaussian", d, n_samples=400_000, seed=5102)
    assert abs(est.empirical - oracle) <= 4.0 * est.se, (oracle, est)


def test_mc_d2_matches_closed_forms():
    # max(a, b) = (a + b)/2 + |a - b|/2, and X1 - X2, X1 + X2 are independent
    for rho in (0.0, 0.5, 0.9):
        oracle = 1.0 + 2.0 / math.pi * math.sqrt(1.0 - rho * rho)
        est = sb.mc_max_sq("gaussian", 2, "correlated", 400_000, seed=5103, rho=rho)
        assert abs(est.empirical - oracle) <= 4.0 * est.se, (rho, est)
    est = sb.mc_max_sq("laplacian", 2, "correlated", 400_000, seed=5104)
    assert abs(est.empirical - (1.0 + 2.0 / math.pi)) <= 4.0 * est.se, est


@pytest.mark.parametrize("family", sb.FAMILIES)
@pytest.mark.parametrize("cov", sb.COV_STRUCTURES)
def test_mc_agrees_with_direct_reference_sampler(family, cov):
    n = 100_000
    for d in (1, 2, 8, 64):
        est = sb.mc_max_sq(family, d, cov, n_samples=n, seed=5105)
        m = sb._direct_max_sq(np.random.default_rng(5106), n, d, family, cov, 0.5, 1.0)
        ref, ref_se = float(m.mean()), float(m.std(ddof=1)) / math.sqrt(n)
        assert abs(est.empirical - ref) <= 4.0 * math.hypot(est.se, ref_se), (d, est, ref)
