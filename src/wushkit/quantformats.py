"""Low-bit number formats and block quantizers.

Value formats
-------------
``FpFormat`` describes a miniature float as (sign, exp_bits a, mant_bits b)
with exponent bias ``2**(a-1) - 1``.  Code (e, m) maps to

* ``2**(1 - bias) * (m / 2**b)``        when subnormal (e == 0, subnormals on)
* ``2**(e - bias) * (1 + m / 2**b)``    otherwise

The one NaN a format may have is its all-ones code (``top_nan``), as in the
OCP microscaling formats, so every other code is a value.  ``FORMATS`` holds
the three handled here by name: E2M1 (bias 1, grid 0, 0.5, 1, 1.5, 2, 3, 4,
6), E4M3 in the finite-only convention (code e=15/m=7 is NaN, so the max is
448), and E8M0 (no sign in use, no zero; the top code is NaN leaving
``2**k`` for k in [-127, 127]).  ``IntSpec`` is the symmetric integer grid
``{-(2**(b-1)-1), ..., 2**(b-1)-1}``; the most negative two's-complement
code is never produced.

Rounding
--------
FP values round in closed form.  Within a binade ``2**k <= |x| < 2**(k+1)``
the grid step is ``2**(max(k, k_lo) - mant_bits)``, with ``k_lo = 1 - bias``
(``-bias`` without subnormals): a power of two, so ``x / step`` is exact and
the neighbours are ``floor(x / step)`` steps and one step more.
Round-to-nearest breaks exact ties toward the even code: the lower
neighbour's is even when ``floor(|x| / step)`` is, or with no mantissa bits
when ``k + bias`` is.  Magnitudes clamp at the max; without subnormals
``(-min, min)`` rounds to ``+-min``.  Integers use ``rint``, i.e.
half-to-even.  Stochastic rounding interpolates linearly between the two
bracketing grid points and rounds up with probability proportional to the
distance; the group scale is always chosen
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
a Gaussian mean-squared-error clipping factor derived in ``tests/_oracles.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import InvalidSpec, NaNInput, ShapeMismatch
from .linalg import _as_finite, _show, _want_fields

VALID_GROUP_SIZES = (16, 32, 64, 128)

ROUND_NEAREST_EVEN = "nearest"
ROUND_STOCHASTIC = "stochastic"
#: The rounding modes, as ``QuantScheme``, the CLI and configs spell them.
ROUNDINGS = (ROUND_NEAREST_EVEN, ROUND_STOCHASTIC)

#: Clipping multiplier for the ``int4`` preset: the (0, 1] factor applied to
#: a group's absmax before scale computation that minimizes expected squared
#: error for standard-Gaussian groups of 32.  Frozen from the quadrature
#: ``gaussian_mse_clip`` in ``tests/_oracles.py`` (finer grids agree within
#: 0.001, and an independent Monte Carlo puts the same minimum in the same
#: place); ``test_int4_clip_matches_gaussian_mse_derivation`` re-runs the search.
INT4_GAUSSIAN_CLIP = 0.9515


@dataclass(frozen=True)
class FpFormat:
    """Miniature float format; see the module docstring for semantics."""

    exp_bits: int
    mant_bits: int
    includes_subnormals: bool = True
    top_nan: bool = False  # the all-ones code is NaN, not a value
    name: str = ""

    def __post_init__(self):
        _want_fields(self)
        if self.exp_bits < 1:
            raise InvalidSpec("exp_bits must be >= 1 (no exponent-free formats)")
        if self.mant_bits < 0:
            raise InvalidSpec("mant_bits must be >= 0")
        if self.exp_bits + self.mant_bits > 16:
            raise InvalidSpec("exp_bits + mant_bits must be <= 16")

    @property
    def bias(self) -> int:
        return 2 ** (self.exp_bits - 1) - 1

    def __str__(self) -> str:
        return self.name or f"e{self.exp_bits}m{self.mant_bits}"


@dataclass(frozen=True)
class IntSpec:
    """Symmetric signed-integer value grid with ``bits`` total bits."""

    bits: int

    def __post_init__(self):
        _want_fields(self)
        if not 2 <= self.bits <= 26:
            raise InvalidSpec(f"integer bits must be in [2, 26], got {_show(self.bits)}")

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
E4M3 = FpFormat(4, 3, includes_subnormals=True, top_nan=True, name="e4m3")
E8M0 = FpFormat(8, 0, includes_subnormals=False, top_nan=True, name="e8m0")
FORMATS = {fmt.name: fmt for fmt in (E2M1, E4M3, E8M0)}

_BF16_MIN_POSITIVE = 2.0 ** -126  # smallest positive normal bf16
_BF16_MAX = (2.0 - 2.0 ** -7) * 2.0 ** 127  # largest finite bf16


@lru_cache(maxsize=32)
def enumerate_grid(fmt: FpFormat) -> np.ndarray:
    """All representable magnitudes of ``fmt``, strictly increasing.

    The array index equals the ``(exp << mant_bits) | mant`` code: with
    ``top_nan`` the last code, the NaN, is left off the end.
    """
    b = fmt.mant_bits
    e, m = np.divmod(np.arange(2 ** (fmt.exp_bits + b) - fmt.top_nan), 2 ** b)
    sub = fmt.includes_subnormals & (e == 0)  # m * 2**(1 - bias - b)
    with np.errstate(over="ignore"):  # past float64: refused below
        grid = np.ldexp(np.where(sub, m, m + 2 ** b), e + sub - fmt.bias - b)
    if not np.isfinite(grid).all():
        raise InvalidSpec(f"format {fmt} exceeds float64 range")
    if grid.size < 2 or not np.all(np.diff(grid) > 0):
        raise InvalidSpec(f"format {fmt} does not yield an increasing grid")
    grid.setflags(write=False)
    return grid


# --- rounding kernels -----------------------------------------------------

def _clamp_and_step(x, fmt: FpFormat):
    """``x`` clamped to +-max with -0 made +0, and the grid step at each
    entry, ``2**(max(k, k_lo) - mant_bits)`` for ``2**k <= |x| < 2**(k+1)``.
    The exponent field of a float64 alone is ``2**k`` (0 for a subnormal)."""
    g = enumerate_grid(fmt)
    x = np.clip(x, -g[-1], g[-1])
    x += 0.0
    k_lo = 1 - fmt.bias if fmt.includes_subnormals else -fmt.bias
    bits = np.maximum(x.view(np.int64) & (0x7FF << 52), (k_lo + 1023) << 52)
    bits -= fmt.mant_bits << 52
    return x, bits.view(np.float64)


def _rtn_even(x, fmt: FpFormat):
    """Signed nearest value of ``fmt`` to ``x``, exact ties to the even code:
    ``rint(x / step)``, as ``n * step`` has a code of ``n``'s parity; with no
    mantissa bits a tie (1.5 steps) goes down when ``k + bias`` is even."""
    x, step = _clamp_and_step(x, fmt)
    q = x / step
    n = np.rint(q)
    if fmt.mant_bits == 0:
        even = ((step.view(np.int64) >> 52) - 1023 + fmt.bias) % 2 == 0
        n = np.where((np.abs(q) == 1.5) & even, np.trunc(q), n)
    n *= step
    if not fmt.includes_subnormals:  # the gap (-min, min) rounds to +-min
        gmin = enumerate_grid(fmt)[0]
        n = np.where(np.abs(x) < gmin, np.copysign(gmin, x), n)
    return n


def _stoch(x, fmt: FpFormat, u):
    """Round ``x`` up from the signed grid point below, ``floor(x / step)``
    steps, where ``u`` is below the distance from it in steps."""
    x, step = _clamp_and_step(x, fmt)
    q = x / step
    n = np.floor(q)
    q -= n
    n += u < q  # + False also turns an underflowed -0 into +0
    n *= step
    if not fmt.includes_subnormals:  # the gap (-min, min) has no zero
        gmin = enumerate_grid(fmt)[0]
        up = u < (x + gmin) / (2.0 * gmin)
        n = np.where(np.abs(x) < gmin, np.where(up, gmin, -gmin), n)
    return n


def rtn_value(x, fmt: FpFormat):
    """Round to the nearest representable value, ties to even mantissa code.

    Accepts a scalar or an ndarray; magnitudes beyond the grid clamp to the
    largest representable value.  NaN input raises :class:`NaNInput`.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.isnan(arr).any():
        raise NaNInput("rtn_value got NaN")
    out = _rtn_even(arr, fmt)
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
        _want_fields(self)
        if self.group_size not in VALID_GROUP_SIZES:
            raise InvalidSpec(
                f"group_size must be one of {VALID_GROUP_SIZES}, got {_show(self.group_size)}"
            )
        if self.clipping is not None and not 0.0 < self.clipping <= 1.0:
            raise InvalidSpec(f"clipping must lie in (0, 1], got {self.clipping}")
        if self.rounding not in ROUNDINGS:
            raise InvalidSpec(f"rounding: must be one of {ROUNDINGS}, got {self.rounding!r}")

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


def scheme_by_name(
    name: str, rounding: str = ROUND_NEAREST_EVEN, group_size: Optional[int] = None
) -> QuantScheme:
    """Look up a preset (``mxfp4``, ``nvfp4``, ``int4``) by name, with its
    rounding mode and, unless ``group_size`` is None, its group size replaced."""
    try:
        builder = _PRESETS[name.lower()]
    except (KeyError, AttributeError):  # AttributeError: name is not a str
        raise InvalidSpec(
            f"unknown scheme {_show(name)}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    scheme = builder(rounding)
    if group_size is None:
        return scheme
    return dataclasses.replace(scheme, group_size=group_size)


def round_bf16(x):
    """Round to the nearest bfloat16 value (half-to-even on float32 bits)."""
    x32 = np.asarray(x, dtype=np.float32)
    u = x32.view(np.uint32)
    lsb = (u >> np.uint32(16)) & np.uint32(1)
    rounded = (u + np.uint32(0x7FFF) + lsb) & np.uint32(0xFFFF0000)
    return rounded.view(np.float32).astype(np.float64)


@lru_cache(maxsize=32)
def _scale_min_positive(sf: ScaleFormat) -> float:
    """The smallest positive value of the scale format ``sf``."""
    if isinstance(sf, Bf16Spec):
        return _BF16_MIN_POSITIVE
    grid = enumerate_grid(sf)
    return float(grid[grid > 0.0][0])


@lru_cache(maxsize=32)
def _pow2_exponent_range(sf: FpFormat) -> tuple[int, int]:
    """Biased float64 exponent fields of the least positive and the largest
    value of the power-of-two format ``sf``."""
    ends = (_scale_min_positive(sf), enumerate_grid(sf)[-1])
    return tuple(int(np.frexp(v)[1]) + 1022 for v in ends)  # 2**k = 0.5 * 2**(k+1)


def _represent_scales(raw: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Map ideal scales onto the scale format's grid, elementwise.

    Zero or underflowed scales are replaced with the smallest positive
    representable scale so division stays finite (the matching codes are
    zero anyway for all-zero groups).
    """
    sf = scheme.scale_format
    if isinstance(sf, Bf16Spec):
        # Past the largest finite bf16 the float32 cast gives inf, and the
        # codes 0 * inf = NaN; clamped, the codes saturate instead.
        s = round_bf16(np.minimum(raw, _BF16_MAX))
    elif sf.mant_bits == 0:
        # Power-of-two grid: round the exponent up, so absmax / scale never
        # exceeds the value grid's max and no value saturates.  The ceiling
        # is the float64 exponent field, plus one unless the mantissa is
        # zero; zero, subnormal and negative raw scales clip to the least.
        bits = raw.view(np.int64)
        e = (bits >> 52) + ((bits & ((1 << 52) - 1)) != 0)
        return (np.clip(e, *_pow2_exponent_range(sf)) << 52).view(np.float64)
    else:
        s = rtn_value(raw, sf)
    return np.where((raw <= 0.0) | (s <= 0.0), _scale_min_positive(sf), s)


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
        return _rtn_even(scaled, vf)
    return _stoch(scaled, vf, uniforms)


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
    arr = _as_finite(v, "group values", 1)
    if arr.size != scheme.group_size:
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
    arr = _as_finite(m, "matrix", 2)
    d = scheme.group_size
    rows, cols = arr.shape
    if rows % d != 0:
        raise ShapeMismatch(f"rows ({rows}) not divisible by group size ({d})")
    codes, scales = _quantize_blocks(arr.reshape(rows // d, d, cols), scheme, rng)
    return (codes * scales[:, None, :]).reshape(rows, cols)
