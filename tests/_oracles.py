"""Reference implementations that the tests compare the library against.

They are kept simple rather than fast, and the library does not import them.
"""

import numpy as np

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
