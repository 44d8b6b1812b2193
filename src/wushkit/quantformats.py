"""Low-bit number formats and block quantizers.

Value formats
-------------
``FpFormat`` describes a miniature float as (sign, exp_bits a, mant_bits b)
with exponent bias ``2**(a-1) - 1`` unless overridden.  Code (e, m) maps to

* ``2**(1 - bias) * (m / 2**b)``        when subnormal (e == 0, subnormals on)
* ``2**(e - bias) * (1 + m / 2**b)``    otherwise

Examples handled here: E2M1 (bias 1, grid 0, 0.5, 1, 1.5, 2, 3, 4, 6),
E4M3 in the finite-only convention (code e=15/m=7 is NaN, so the max is
448), and E8M0 (no sign in use, no zero; the top code is NaN leaving
``2**k`` for k in [-127, 127]).  ``IntSpec`` is the symmetric integer grid
``{-(2**(b-1)-1), ..., 2**(b-1)-1}``; the most negative two's-complement
code is never produced.

Rounding
--------
Round-to-nearest breaks exact ties toward the even mantissa code, which for
these grids is the even index into the sorted magnitude table (integers use
``rint``, i.e. half-to-even).  Stochastic rounding interpolates linearly
between the two bracketing grid points and rounds up with probability
proportional to the distance; the group scale is always chosen
deterministically so only the codes are random.  A group takes
``group_size`` consecutive uniforms from the caller's ``rng``;
``quantize_matrix`` draws all of them in one call, sub-column by sub-column
in flat order ``block_index * n_cols + col_index``.

Group quantization
------------------
A group of ``group_size`` values shares one scale,
``represent(clipping * absmax / grid_max)`` in the scheme's scale format.
An all-zero group gets the smallest positive representable scale and zero
codes.  The three shipped presets are ``mxfp4`` (E2M1 values, E8M0
power-of-two scales, groups of 32), ``nvfp4`` (E2M1 values, E4M3 scales,
groups of 16) and ``int4`` (integer values, BF16 scales, groups of 32, with
a Gaussian mean-squared-error clipping factor derived in ``_clip_derivation``).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import InvalidSpec, NaNInput, ShapeMismatch

VALID_GROUP_SIZES = (16, 32, 64, 128)

ROUND_NEAREST_EVEN = "nearest_even"
ROUND_STOCHASTIC = "stochastic"

#: Clipping multiplier for the ``int4`` preset: the (0, 1] factor applied to
#: a group's absmax before scale computation that minimizes expected squared
#: error for standard-Gaussian groups of 32.  Frozen from the quadrature in
#: ``_clip_derivation.gaussian_mse_clip`` (finer grids agree within 0.001,
#: and an independent Monte Carlo puts the same minimum in the same place);
#: the derivation test re-runs the search.
INT4_GAUSSIAN_CLIP = 0.9515


@dataclass(frozen=True)
class FpFormat:
    """Miniature float format; see the module docstring for semantics."""

    exp_bits: int
    mant_bits: int
    includes_subnormals: bool = True
    bias_override: Optional[int] = None
    nan_codes: tuple = ()  # (exp_code, mant_code) pairs excluded from the grid
    name: str = ""

    def __post_init__(self):
        if self.exp_bits < 1:
            raise InvalidSpec("exp_bits must be >= 1 (no exponent-free formats)")
        if self.mant_bits < 0:
            raise InvalidSpec("mant_bits must be >= 0")
        if self.exp_bits + self.mant_bits > 16:
            raise InvalidSpec("exp_bits + mant_bits must be <= 16")

    @property
    def bias(self) -> int:
        if self.bias_override is not None:
            return self.bias_override
        return 2 ** (self.exp_bits - 1) - 1

    def __str__(self) -> str:
        return self.name or f"e{self.exp_bits}m{self.mant_bits}"


@dataclass(frozen=True)
class IntSpec:
    """Symmetric signed-integer value grid with ``bits`` total bits."""

    bits: int

    def __post_init__(self):
        if not 2 <= self.bits <= 26:
            raise InvalidSpec(f"integer bits must be in [2, 26], got {self.bits}")

    @property
    def grid_max(self) -> int:
        return 2 ** (self.bits - 1) - 1

    def __str__(self) -> str:
        return f"int{self.bits}"


@dataclass(frozen=True)
class Bf16Spec:
    """Marker for bfloat16 scale storage (float32 with an 8-bit mantissa)."""

    def __str__(self) -> str:
        return "bf16"


E2M1 = FpFormat(2, 1, includes_subnormals=True, name="e2m1")
E4M3 = FpFormat(4, 3, includes_subnormals=True, nan_codes=((15, 7),), name="e4m3")
E8M0 = FpFormat(8, 0, includes_subnormals=False, nan_codes=((255, 0),), name="e8m0")

_BF16_MIN_POSITIVE = 2.0 ** -126  # smallest positive normal bf16


@lru_cache(maxsize=32)
def enumerate_grid(fmt: FpFormat) -> np.ndarray:
    """All representable magnitudes of ``fmt``, strictly increasing.

    The array index equals the (exp << mant_bits) | mant code, which is what
    the nearest-even tie rule keys on.  NaN codes are excluded.
    """
    a, b = fmt.exp_bits, fmt.mant_bits
    bias = fmt.bias
    excluded = set(fmt.nan_codes)
    vals = []
    for e in range(2 ** a):
        for m_code in range(2 ** b):
            if (e, m_code) in excluded:
                continue
            if fmt.includes_subnormals and e == 0:
                v = 2.0 ** (1 - bias) * (m_code / 2 ** b)
            else:
                v = 2.0 ** (e - bias) * (1.0 + m_code / 2 ** b)
            vals.append(v)
    grid = np.array(vals, dtype=np.float64)
    if not np.isfinite(grid).all():
        raise InvalidSpec(f"format {fmt} exceeds float64 range")
    if grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise InvalidSpec(f"format {fmt} does not yield an increasing grid")
    grid.setflags(write=False)
    return grid


def _mid_excluded(fmt: FpFormat) -> bool:
    """True when a NaN code sits below the top code (breaks index parity)."""
    a, b = fmt.exp_bits, fmt.mant_bits
    top = 2 ** (a + b) - 1
    return any((e << b) | m != top for (e, m) in fmt.nan_codes)


# --- rounding kernels -----------------------------------------------------

def _rtn_even(x, grid):
    """Signed nearest value of ``grid`` to ``x``, exact ties to the even index."""
    a = np.abs(x)
    last = grid.size - 1
    idx = np.searchsorted(grid, a, side="right") - 1
    idx = np.clip(idx, 0, last - 1)
    lo = grid[idx]
    hi = grid[idx + 1]
    dlo = a - lo
    dhi = hi - a
    take_hi = (dhi < dlo) | ((dhi == dlo) & (idx % 2 == 1))
    r = np.where(take_hi, hi, lo)
    r = np.where(a >= grid[last], grid[last], r)
    r = np.where(a <= grid[0], grid[0], r)
    return np.where(x >= 0.0, r, -r)


def _stoch(x, sgrid, u):
    """Round ``x`` onto ``sgrid``, up where ``u`` is below the fractional distance."""
    last = sgrid.size - 1
    idx = np.searchsorted(sgrid, x, side="right") - 1
    idx = np.clip(idx, 0, last - 1)
    glo = sgrid[idx]
    ghi = sgrid[idx + 1]
    p = (x - glo) / (ghi - glo)
    r = np.where(u < p, ghi, glo)
    r = np.where(x <= sgrid[0], sgrid[0], r)
    return np.where(x >= sgrid[last], sgrid[last], r)


@lru_cache(maxsize=32)
def _signed_grid(fmt: FpFormat) -> np.ndarray:
    g = enumerate_grid(fmt)
    if g[0] == 0.0:
        s = np.concatenate([-g[:0:-1], g])
    else:
        s = np.concatenate([-g[::-1], g])
    s.setflags(write=False)
    return s


def rtn_value(x, fmt: FpFormat):
    """Round to the nearest representable value, ties to even mantissa code.

    Accepts a scalar or an ndarray; magnitudes beyond the grid clamp to the
    largest representable value.  NaN input raises :class:`NaNInput`.
    """
    if _mid_excluded(fmt):
        raise InvalidSpec(
            f"format {fmt} excludes a non-top code; even-code ties undefined"
        )
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise NaNInput("rtn_value got NaN")
    out = _rtn_even(arr, enumerate_grid(fmt))
    return float(out) if arr.ndim == 0 else out


# --- schemes --------------------------------------------------------------

ValueFormat = Union[FpFormat, IntSpec]
ScaleFormat = Union[FpFormat, Bf16Spec]


@dataclass(frozen=True)
class QuantScheme:
    """A complete block-quantization recipe."""

    value_format: ValueFormat
    scale_format: ScaleFormat
    group_size: int
    clipping: Optional[float] = None
    rounding: str = ROUND_NEAREST_EVEN
    name: str = ""

    def __post_init__(self):
        if self.group_size not in VALID_GROUP_SIZES:
            raise InvalidSpec(
                f"group_size must be one of {VALID_GROUP_SIZES}, got {self.group_size}"
            )
        if self.clipping is not None and not 0.0 < self.clipping <= 1.0:
            raise InvalidSpec(f"clipping must lie in (0, 1], got {self.clipping}")
        if self.rounding not in (ROUND_NEAREST_EVEN, ROUND_STOCHASTIC):
            raise InvalidSpec(f"unknown rounding mode {self.rounding!r}")
        if isinstance(self.value_format, FpFormat) and _mid_excluded(self.value_format):
            raise InvalidSpec("value format with mid-grid NaN codes unsupported")

    @property
    def grid_max(self) -> float:
        if isinstance(self.value_format, IntSpec):
            return float(self.value_format.grid_max)
        return float(enumerate_grid(self.value_format)[-1])

    def __str__(self) -> str:
        return self.name or f"{self.value_format}/{self.scale_format}/g{self.group_size}"


@dataclass(frozen=True)
class QuantizedGroup:
    """One quantized group: on-grid codes, shared scale, their product."""

    codes: np.ndarray
    scale: float
    dequantized: np.ndarray


def mxfp4_scheme(rounding: str = ROUND_NEAREST_EVEN) -> QuantScheme:
    return QuantScheme(E2M1, E8M0, 32, None, rounding, name="mxfp4")


def nvfp4_scheme(rounding: str = ROUND_NEAREST_EVEN) -> QuantScheme:
    return QuantScheme(E2M1, E4M3, 16, None, rounding, name="nvfp4")


def int4_scheme(
    rounding: str = ROUND_NEAREST_EVEN, clipping: Optional[float] = INT4_GAUSSIAN_CLIP
) -> QuantScheme:
    return QuantScheme(IntSpec(4), Bf16Spec(), 32, clipping, rounding, name="int4")


_PRESETS = {"mxfp4": mxfp4_scheme, "nvfp4": nvfp4_scheme, "int4": int4_scheme}

PRESET_NAMES = tuple(sorted(_PRESETS))


def scheme_by_name(name: str, **overrides) -> QuantScheme:
    """Look up a preset (``mxfp4``, ``nvfp4``, ``int4``) by name."""
    try:
        builder = _PRESETS[name.lower()]
    except KeyError:
        raise InvalidSpec(
            f"unknown scheme {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return builder(**overrides)


def round_bf16(x):
    """Round to the nearest bfloat16 value (half-to-even on float32 bits)."""
    x32 = np.asarray(x, dtype=np.float32)
    u = x32.view(np.uint32)
    lsb = (u >> np.uint32(16)) & np.uint32(1)
    rounded = (u + np.uint32(0x7FFF) + lsb) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32).astype(np.float64)


def _scale_min_positive(scheme: QuantScheme) -> float:
    sf = scheme.scale_format
    if isinstance(sf, Bf16Spec):
        return _BF16_MIN_POSITIVE
    grid = enumerate_grid(sf)
    positive = grid[grid > 0.0]
    return float(positive[0])


def _represent_scales(raw: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Map ideal scales onto the scale format's grid, elementwise.

    Zero or underflowed scales are replaced with the smallest positive
    representable scale so division stays finite (the matching codes are
    zero anyway for all-zero groups).
    """
    sf = scheme.scale_format
    min_pos = _scale_min_positive(scheme)
    if isinstance(sf, Bf16Spec):
        s = round_bf16(raw)
    elif sf.mant_bits == 0:
        # Power-of-two grid: round the exponent up, so absmax / scale never
        # exceeds the value grid's max and no value saturates.
        grid = enumerate_grid(sf)
        k_lo = int(np.rint(np.log2(grid[0])))
        k_hi = int(np.rint(np.log2(grid[-1])))
        frac, e = np.frexp(raw)  # raw = frac * 2**e, frac in [0.5, 1)
        k = np.clip(e - (frac == 0.5), k_lo, k_hi)
        s = np.ldexp(1.0, k.astype(np.int64))
    else:
        s = rtn_value(raw, sf)
        s = np.minimum(s, float(enumerate_grid(sf)[-1]))
    return np.where((raw <= 0.0) | (s <= 0.0), min_pos, s)


def _round_codes(
    scaled: np.ndarray, scheme: QuantScheme, uniforms: Optional[np.ndarray]
) -> np.ndarray:
    """Round already-scaled values onto the value grid."""
    vf = scheme.value_format
    nearest = scheme.rounding == ROUND_NEAREST_EVEN
    if isinstance(vf, IntSpec):
        gmax = float(vf.grid_max)
        if nearest:
            return np.clip(np.rint(scaled), -gmax, gmax)
        clamped = np.clip(scaled, -gmax, gmax)
        base = np.floor(clamped)
        return base + (uniforms < clamped - base)
    if nearest:
        return _rtn_even(scaled, enumerate_grid(vf))
    return _stoch(scaled, _signed_grid(vf), uniforms)


def _check_values(v: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise NaNInput(f"{name} contains NaN or infinity")
    return arr


def _quantize_blocks(blocks: np.ndarray, scheme: QuantScheme, rng):
    """Codes and ``(n_blocks, cols)`` scales of ``(n_blocks, d, cols)`` blocks."""
    stochastic = scheme.rounding == ROUND_STOCHASTIC
    if stochastic and rng is None:
        raise InvalidSpec("stochastic rounding requires an rng")
    n, d, cols = blocks.shape
    clip = 1.0 if scheme.clipping is None else scheme.clipping
    raw = clip * np.abs(blocks).max(axis=1) / scheme.grid_max
    scales = _represent_scales(raw, scheme)
    uniforms = rng.random((n, cols, d)).transpose(0, 2, 1) if stochastic else None
    codes = _round_codes(blocks / scales[:, None, :], scheme, uniforms)
    return codes, scales


def quantize_group(
    v, scheme: QuantScheme, rng: Optional[np.random.Generator] = None
) -> QuantizedGroup:
    """Quantize one group of ``scheme.group_size`` values.

    The scale is ``represent(clipping * absmax / grid_max)``; codes are the
    scaled values rounded onto the value grid (clamping anything the scale
    rounding or clipping pushed past the ends).  In stochastic mode an
    explicit ``rng`` supplies the uniforms; the scale stays deterministic.
    """
    arr = _check_values(v, "group values")
    if arr.ndim != 1 or arr.size != scheme.group_size:
        raise ShapeMismatch(
            f"group must be a vector of length {scheme.group_size}, got shape {arr.shape}"
        )
    codes, scales = _quantize_blocks(arr.reshape(1, -1, 1), scheme, rng)
    codes, scale = codes.ravel(), float(scales[0, 0])
    return QuantizedGroup(codes=codes, scale=scale, dequantized=codes * scale)


def quantize_matrix(
    m, scheme: QuantScheme, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Quantize every ``group_size x 1`` sub-column of ``m`` independently.

    Rows must be divisible by the group size ``d``.  Equivalent to stacking
    :func:`quantize_group` over all sub-columns but vectorized.  In
    stochastic mode one ``rng.random`` call draws every uniform: the
    sub-column of block ``b`` and column ``j`` takes the ``d`` consecutive
    uniforms at flat position ``b * n_cols + j``.  That is bit-identical to
    :func:`quantize_group` on the sub-columns in that order (blocks
    outermost) with the same ``rng``, and independent of evaluation order.
    """
    arr = _check_values(m, "matrix")
    if arr.ndim != 2:
        raise ShapeMismatch(f"expected a 2-D matrix, got shape {arr.shape}")
    d = scheme.group_size
    rows, cols = arr.shape
    if rows % d != 0:
        raise ShapeMismatch(f"rows ({rows}) not divisible by group size ({d})")
    codes, scales = _quantize_blocks(arr.reshape(rows // d, d, cols), scheme, rng)
    return (codes * scales[:, None, :]).reshape(rows, cols)
