"""Reference implementations that the tests compare the library against.

They are kept simple rather than fast, and the library does not import them.
"""

import math

import numpy as np

from wushkit import noise
from wushkit.linalg import cholesky, invert
from wushkit.quantformats import enumerate_grid


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
    intermediate, ``noise._CHUNK`` samples per chunk; no argument checks."""
    t = np.asarray(t, dtype=np.float64)
    d = t.shape[0]
    chol = cholesky(moment)
    t_inv = invert(t)
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(noise._CHUNK, remaining)
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
