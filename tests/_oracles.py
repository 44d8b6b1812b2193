"""Reference implementations that the tests compare the library against,
and the derivation of the frozen ``int4`` clipping factor.

They are kept simple rather than fast, and the library does not import them.
"""

import math

import numpy as np

from wushkit import noise
from wushkit.errors import ValidationError
from wushkit.linalg import cholesky, invert
from wushkit.quantformats import enumerate_grid


def compose_transform(u_prime, s_prime, r, u, s):
    """``T = U' diag(s') R^T diag(1/s) U^T``, the noise model's transform
    family; no argument checks.

    ``(u, s)`` come from the input moment's eigendecomposition (moment
    eigenvalues are ``s**2``); ``(u_prime, s_prime, r)`` are the free
    parameters.  ``U' = H``, ``s' = sqrt(s)``, ``R = I`` is the FP optimum
    that ``build_block("wush")`` builds with ``M_W = I``.
    """
    up, sp, rr, uu, ss = (np.asarray(a, dtype=np.float64) for a in (u_prime, s_prime, r, u, s))
    return (up * sp[None, :]) @ rr.T @ ((1.0 / ss)[:, None] * uu.T)


def rtn_even_table(x, fmt):
    """Nearest value of ``fmt``'s magnitude table to ``x`` by binary search,
    exact ties to the even table index (= even code), clamped to the ends."""
    grid = enumerate_grid(fmt)
    a = np.abs(x)
    last = grid.size - 1
    idx = np.clip(np.searchsorted(grid, a, side="right") - 1, 0, last - 1)
    lo = grid[idx]
    hi = grid[idx + 1]
    dlo = a - lo
    dhi = hi - a
    take_hi = (dhi < dlo) | ((dhi == dlo) & (idx % 2 == 1))
    r = np.where(take_hi, hi, lo)
    r = np.where(a >= grid[last], grid[last], r)
    r = np.where(a <= grid[0], grid[0], r)
    return np.where(x >= 0.0, r, -r)


def signed_grid(fmt):
    """Every signed value of ``fmt``, increasing, with one zero if it has one."""
    g = enumerate_grid(fmt)
    return np.concatenate([-g[:0:-1] if g[0] == 0.0 else -g[::-1], g])


def stoch_table(x, fmt, u):
    """Stochastic rounding onto the signed table by binary search: up where
    ``u`` is below the fractional distance from the bracketing value below."""
    sgrid = signed_grid(fmt)
    last = sgrid.size - 1
    idx = np.clip(np.searchsorted(sgrid, x, side="right") - 1, 0, last - 1)
    glo = sgrid[idx]
    ghi = sgrid[idx + 1]
    with np.errstate(over="ignore"):  # past the ends; clamped below
        p = (x - glo) / (ghi - glo)
    r = np.where(u < p, ghi, glo)
    r = np.where(x <= sgrid[0], sgrid[0], r)
    return np.where(x >= sgrid[last], sgrid[last], r)


def block_gram_losses(a, b):
    """Each block's squared error ``<a_i a_i^T, b_i b_i^T>_F`` from batched
    ``2d x 2d`` Grams of the ``(n_blocks, 2d, m)`` and ``(n_blocks, 2d, n)``
    factor stacks."""
    gram_a, gram_b = (f @ f.transpose(0, 2, 1) for f in (a, b))
    return (gram_a * gram_b).sum(axis=(1, 2))


def sample_eta_alloc(model, rng, shape):
    """``model``'s eta from whole-array draws: ``xi`` then (FP) ``xi_t``."""
    if isinstance(model, noise.IntAbsmax):
        return 2.0 ** (1 - model.bits) * (rng.random(shape) - 0.5)
    xi = rng.random(shape) - 0.5
    xi_t = rng.random(shape) - 0.5
    return (1.0 + math.log(2.0) * 2.0 ** -model.mant_bits * xi) * (
        1.0 + math.log(2.0) * 2.0 ** -model.scale_mant_bits * xi_t
    ) - 1.0


def one_sided_loss_mc_alloc(t, moment, model, n_samples, seed):
    """``noise.one_sided_loss_mc`` as a chunk loop that allocates every
    intermediate, ``max(1, noise._CHUNK_SCALARS // d)`` samples per chunk;
    no argument checks."""
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[0]
    chol = cholesky(moment)
    t_inv = invert(t)
    rng = np.random.default_rng(seed)
    rows = max(1, noise._CHUNK_SCALARS // d)
    total = total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(rows, remaining)
        z = rng.standard_normal((m, d))
        ty = (z @ chol.T) @ t.T
        eta = sample_eta_alloc(model, rng, (m, d))
        if isinstance(model, noise.IntAbsmax):
            eps = np.abs(ty).max(axis=1)[:, None] * eta
        else:
            eps = eta * ty
        back = eps @ t_inv.T
        li = np.einsum("ij,ij->i", back, back)
        total += float(li.sum())
        total_sq += float((li * li).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0) * n_samples / (n_samples - 1)
    return noise.LossEstimate(value=mean, se=math.sqrt(var / n_samples))


def direct_max_sq(rng, rows, d, family, cov, rho, var):
    """Draws all ``d`` coordinates of ``rows`` samples and returns each row's
    ``max_k X_k^2``: the O(d)-per-sample reference for
    ``stats_bounds.mc_max_sq``, whose families and parameters it shares."""
    if family == "gaussian":
        x = rng.standard_normal((rows, d))
        if cov == "correlated":
            g = rng.standard_normal((rows, 1))
            x = math.sqrt(rho) * g + math.sqrt(1.0 - rho) * x
        x *= math.sqrt(var)
    else:
        # Laplacian: scale b gives variance 2 b^2.  The correlated variant mixes
        # one exponential variance across the row, leaving marginals Laplacian.
        b = math.sqrt(var / 2.0)
        if cov == "iid":
            x = rng.laplace(0.0, b, (rows, d))
        else:
            v = rng.exponential(2.0 * b * b, (rows, 1))
            x = np.sqrt(v) * rng.standard_normal((rows, d))
    np.square(x, out=x)
    return x.max(axis=1)


#: Upper integration limit for the survival-identity quadrature, in units of
#: the marginal scale; the truncated Gaussian tail beyond 12 sigma
#: contributes less than 1e-30 to E X^2.
SURVIVAL_HI_SIGMA = 12.0


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, m - a)
    right = _simpson(fm, frm, fb, b - m)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = 0.5 * tol
    return _adapt(f, a, m, fa, flm, fm, left, half, depth - 1) + _adapt(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )


def adaptive_simpson(f, a, b, tol=1e-10):
    """Adaptive Simpson quadrature of ``f`` on ``[a, b]``."""
    if not b > a:
        raise ValidationError("integration interval must have b > a")
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    return _adapt(f, a, b, fa, fm, fb, whole, tol, 48)


def survival_expectation(g, survival, hi, tol=1e-10):
    """``integral_0^hi g(t) survival(t) dt``, the layer-cake form of E[G(X)].

    With ``g = G'`` and ``survival(t) = P(|X| >= t)`` this equals ``E G(|X|)``
    up to the truncated tail beyond ``hi``.
    """
    return adaptive_simpson(lambda t: g(t) * survival(t), 0.0, hi, tol)


def gaussian_cdf(x):
    """Standard normal CDF through ``math.erf``, of a float or elementwise of
    an array."""
    if np.ndim(x) == 0:
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    return np.array([gaussian_cdf(v) for v in np.ravel(x)]).reshape(np.shape(x))


def _gaussian_pdf(x):
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def _sq_err(x, scale, grid_max):
    codes = np.clip(np.rint(x / scale), -grid_max, grid_max)
    err = codes * scale - x
    return err * err


def expected_mse(clip, bits=4, group_size=32, n_m=320, n_x=400, m_hi=6.0):
    """Expected per-element squared error of absmax integer quantization with
    clipping factor ``clip``, for groups of i.i.d. standard Gaussians.

    By quadrature against the Gaussian density:

    * the group absmax ``M`` has density ``g (2 Phi(m) - 1)**(g-1) 2 phi(m)``;
    * conditioned on ``M = m``, the other ``g - 1`` entries are standard
      Gaussians truncated to ``[-m, m]``, and the extreme entry sits at ``+-m``;
    * the scale is ``clip * m / grid_max`` and the error of a value ``x`` is
      ``clip(rint(x / s)) * s - x``.
    """
    gmax = 2 ** (bits - 1) - 1
    g = group_size
    m = np.linspace(0.15, m_hi, n_m)
    dens = g * (2.0 * gaussian_cdf(m) - 1.0) ** (g - 1) * 2.0 * _gaussian_pdf(m)
    # Inner integral over the truncated Gaussian, on a shared unit grid.
    u = np.linspace(0.0, 1.0, n_x)
    x = m[:, None] * u[None, :]  # (n_m, n_x)
    scale = (clip * m / gmax)[:, None]
    integrand = _gaussian_pdf(x) * _sq_err(x, scale, gmax)
    inner = 2.0 * m * np.trapezoid(integrand, u, axis=1)  # note du = dx / m
    trunc_mass = 2.0 * gaussian_cdf(m) - 1.0
    trunc_mse = inner / trunc_mass
    # The extreme element itself sits exactly at magnitude m.
    top_err = _sq_err(m, clip * m / gmax, gmax)
    per_elem = ((g - 1) * trunc_mse + top_err) / g
    return float(np.trapezoid(dens * per_elem, m))


def gaussian_mse_clip(bits=4, group_size=32, c_lo=0.70, c_hi=1.00, c_step=0.0005, **quad_kwargs):
    """Grid-search minimizer of :func:`expected_mse`, the factor frozen as
    ``quantformats.INT4_GAUSSIAN_CLIP``."""
    cs = np.arange(c_lo, c_hi + 0.5 * c_step, c_step)
    losses = [expected_mse(float(c), bits, group_size, **quad_kwargs) for c in cs]
    return float(cs[int(np.argmin(losses))])
