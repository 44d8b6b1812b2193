"""Low-bit number formats and block quantizers.

Value formats
-------------
``FpFormat`` describes a miniature float as (sign, exp_bits a, mant_bits b)
with exponent bias ``2**(a-1) - 1``.  Code (e, m) maps to

* ``2**(1 - bias) * (m / 2**b)``        when subnormal (e == 0, subnormals on)
* ``2**(e - bias) * (1 + m / 2**b)``    otherwise

A format's top ``reserved`` codes are not values (NaN or inf); every other
code is.  ``FORMATS`` holds the four handled here by name: E2M1 (bias 1,
grid 0, 0.5, 1, 1.5, 2, 3, 4, 6; none reserved), E4M3 in the OCP
finite-only convention (code e=15/m=7 is NaN, so the max is 448), E8M0 (no
sign in use, no zero; the top code is NaN leaving ``2**k`` for k in
[-127, 127]) and BF16 (float32's exponent range with 7 mantissa bits;
IEEE's inf/NaN binade, the top ``2**7`` codes, is reserved).  ``IntSpec``
is the symmetric integer grid ``{-(2**(b-1)-1), ..., 2**(b-1)-1}``; the
most negative two's-complement code is never produced.

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

Memory
------
``quantize_matrix`` only reads its argument.  The division by the scales
makes the one result array, and rounding, clamping and scaling run in place
on it.  The absmax is ``max(x.max, -x.min)`` per group; max and min carry
NaN and +-inf, so non-finite input is refused from it before any uniform is
drawn, with no separate pass.  The FP kernels add one step array, stochastic
rounding its uniforms and the floor.  The rounding kernels have one
entry each, which works in place on an array its caller owns:
``rtn_value`` rounds one float64 copy of its argument (the conversion's, if
it made one), and ``_represent_scales`` the raw scales that
``_quantize_blocks`` makes fresh for it.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import InvalidSpec, NaNInput, ShapeMismatch
from .linalg import _as_float64, _show, _want, _want_fields

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
    reserved: int = 0  # top codes that are not values (NaN or inf)
    name: str = ""

    def __post_init__(self):
        _want_fields(self)
        if self.exp_bits < 1:
            raise InvalidSpec("exp_bits must be >= 1 (no exponent-free formats)")
        if self.mant_bits < 0:
            raise InvalidSpec("mant_bits must be >= 0")
        if self.exp_bits + self.mant_bits > 16:
            raise InvalidSpec("exp_bits + mant_bits must be <= 16")
        most = 2 ** (self.exp_bits + self.mant_bits) - 2  # two codes stay values
        if not 0 <= self.reserved <= most:
            raise InvalidSpec(f"reserved must be in [0, {most}], got {_show(self.reserved)}")

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


E2M1 = FpFormat(2, 1, includes_subnormals=True, name="e2m1")
E4M3 = FpFormat(4, 3, includes_subnormals=True, reserved=1, name="e4m3")
E8M0 = FpFormat(8, 0, includes_subnormals=False, reserved=1, name="e8m0")
BF16 = FpFormat(8, 7, includes_subnormals=True, reserved=2 ** 7, name="bf16")
FORMATS = {fmt.name: fmt for fmt in (E2M1, E4M3, E8M0, BF16)}


def enumerate_grid(fmt: FpFormat) -> np.ndarray:
    """All representable magnitudes of ``fmt``, strictly increasing and
    read-only.

    The array index equals the ``(exp << mant_bits) | mant`` code: the
    ``reserved`` top codes are left off the end.
    """
    return _grid(_want("fmt", fmt, FpFormat))


@lru_cache(maxsize=32)
def _grid(fmt: FpFormat) -> np.ndarray:
    _ends(fmt)  # the format's checks
    grid = _magnitudes(fmt, np.arange(2 ** (fmt.exp_bits + fmt.mant_bits) - fmt.reserved))
    grid.setflags(write=False)
    return grid


def _magnitudes(fmt: FpFormat, codes: np.ndarray) -> np.ndarray:
    """The magnitudes of ``fmt``'s ``(exp << mant_bits) | mant`` codes."""
    b = fmt.mant_bits
    e, m = np.divmod(codes, 2 ** b)
    sub = fmt.includes_subnormals & (e == 0)  # m * 2**(1 - bias - b)
    with np.errstate(over="ignore"):  # past float64: refused in _ends
        return np.ldexp(np.where(sub, m, m + 2 ** b), e + sub - fmt.bias - b)


@lru_cache(maxsize=32)
def _ends(fmt: FpFormat) -> tuple[float, float, float]:
    """The least, the least positive and the largest magnitude of ``fmt``,
    without building its grid.  Each magnitude is an integer below
    ``2**(mant_bits + 1)`` times a power of two no less than the least step
    ``2**k_min``, so all are exact in float64, hence distinct, if the largest
    is finite and ``k_min >= -1074``; below that the smallest ones collide."""
    k_min = (1 if fmt.includes_subnormals else 0) - fmt.bias - fmt.mant_bits
    top = 2 ** (fmt.exp_bits + fmt.mant_bits) - fmt.reserved - 1
    least, second, largest = _magnitudes(fmt, np.array([0, 1, top])).tolist()
    if not math.isfinite(largest):
        raise InvalidSpec(f"format {fmt} exceeds float64 range")
    if k_min < -1074:
        raise InvalidSpec(f"format {fmt} does not yield an increasing grid")
    return least, second if least == 0.0 else least, largest


# --- rounding kernels -----------------------------------------------------

def _clamp_and_step(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Clamps ``x`` in place to +-max, with -0 made +0, and returns the grid
    step at each entry, ``2**(max(k, k_lo) - mant_bits)`` for
    ``2**k <= |x| < 2**(k+1)``.  The exponent field of a float64 alone is
    ``2**k`` (0 for a subnormal)."""
    top = _ends(fmt)[2]
    np.clip(x, -top, top, out=x)
    x += 0.0
    k_lo = 1 - fmt.bias if fmt.includes_subnormals else -fmt.bias
    bits = x.view(np.int64).copy()  # an array even for 0-d x, unlike x & mask
    bits &= 0x7FF << 52
    np.maximum(bits, (k_lo + 1023) << 52, out=bits)
    bits -= fmt.mant_bits << 52
    return bits.view(np.float64)


def _gap(x: np.ndarray, fmt: FpFormat):
    """Where ``x`` lies in ``(-min, min)``, a gap of a format without
    subnormals; None for a format with them."""
    if fmt.includes_subnormals:
        return None
    gmin = _ends(fmt)[0]
    return (x > -gmin) & (x < gmin)


def _rtn_even_inplace(x: np.ndarray, fmt: FpFormat) -> np.ndarray:
    """Rounds ``x``, an array the caller owns, in place to the signed
    nearest value of ``fmt``, exact ties to the even code: ``rint(x / step)``,
    as ``n * step`` has a code of ``n``'s parity; with no mantissa bits a tie
    (1.5 steps) goes down when ``k + bias`` is even."""
    step = _clamp_and_step(x, fmt)
    gap = _gap(x, fmt)
    x /= step
    if fmt.mant_bits == 0:
        even = ((step.view(np.int64) >> 52) - 1023 + fmt.bias) % 2 == 0
        np.trunc(x, out=x, where=(np.abs(x) == 1.5) & even)
    np.rint(x, out=x)
    x *= step
    if gap is not None:  # the gap rounds to +-min; rint kept the sign
        np.copysign(_ends(fmt)[0], x, out=x, where=gap)
    return x


def _stoch_inplace(x: np.ndarray, fmt: FpFormat, u) -> np.ndarray:
    """Rounds ``x``, an array the caller owns, up from the signed grid point
    below, ``floor(x / step)`` steps, where ``u`` is below the distance from
    it in steps; ``x`` is left as scratch and the result is a new array."""
    step = _clamp_and_step(x, fmt)
    gap = _gap(x, fmt)
    if gap is not None:  # the gap (-min, min) has no zero
        gmin = _ends(fmt)[0]
        ends = np.where(u < (x + gmin) / (2.0 * gmin), gmin, -gmin)
    x /= step
    n = np.floor(x)
    x -= n
    n += u < x  # + False also turns an underflowed -0 into +0
    n *= step
    if gap is not None:
        np.copyto(n, ends, where=gap)
    return n


def rtn_value(x, fmt: FpFormat):
    """Round to the nearest representable value, ties to even mantissa code.

    Accepts a scalar or an ndarray; magnitudes beyond the grid clamp to the
    largest representable value.  NaN input raises :class:`NaNInput`.
    """
    _want("fmt", fmt, FpFormat)
    arr = _as_float64(x, "rtn_value input")
    if np.isnan(arr).any():
        raise NaNInput("rtn_value got NaN")
    # a number, a list or a converted array is fresh here: copy only the caller's memory
    if not isinstance(x, (numbers.Number, list, tuple)) and np.may_share_memory(arr, x):
        arr = arr.copy()
    out = _rtn_even_inplace(arr, fmt)
    return float(out) if arr.ndim == 0 else out


# --- schemes --------------------------------------------------------------

ValueFormat = Union[FpFormat, IntSpec]


@dataclass(frozen=True)
class QuantScheme:
    """A complete block-quantization recipe."""

    value_format: ValueFormat
    scale_format: FpFormat
    group_size: int
    clipping: Optional[float] = None
    rounding: str = ROUND_NEAREST_EVEN
    name: str = ""

    def __post_init__(self):
        _want_fields(self)
        _want("scale_format", self.scale_format, FpFormat)
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
        return _ends(self.value_format)[2]

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
    return QuantScheme(IntSpec(4), BF16, 32, clipping, rounding, name="int4")


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


@lru_cache(maxsize=32)
def _pow2_exponent_range(sf: FpFormat) -> tuple[int, int]:
    """Biased float64 exponent fields of the least positive and the largest
    value of the power-of-two format ``sf``."""
    return tuple(int(np.frexp(v)[1]) + 1022 for v in _ends(sf)[1:])  # 2**k = 0.5 * 2**(k+1)


def _represent_scales(raw: np.ndarray, scheme: QuantScheme) -> np.ndarray:
    """Map ideal scales onto the scale format's grid, elementwise.

    Zero or underflowed scales are replaced with the smallest positive
    representable scale so division stays finite (the matching codes are
    zero anyway for all-zero groups).  ``raw`` must be an array the caller
    owns and does not read again: a format with mantissa bits rounds it in
    place (``_quantize_blocks`` makes it fresh in every call).
    """
    sf = scheme.scale_format
    if sf.mant_bits == 0:
        # Power-of-two grid: round the exponent up, so absmax / scale never
        # exceeds the value grid's max and no value saturates.  The ceiling
        # is the float64 exponent field, plus one unless the mantissa is
        # zero; zero, subnormal and negative raw scales clip to the least.
        bits = raw.view(np.int64)
        e = (bits >> 52) + ((bits & ((1 << 52) - 1)) != 0)
        return (np.clip(e, *_pow2_exponent_range(sf)) << 52).view(np.float64)
    # Past the grid's max the scale clamps there, so the codes saturate.
    s = _rtn_even_inplace(raw, sf)
    return np.maximum(s, _ends(sf)[1], out=s)


def _round_codes(
    scaled: np.ndarray, scheme: QuantScheme, uniforms: Optional[np.ndarray]
) -> np.ndarray:
    """Round already-scaled values, an array the caller owns, onto the value
    grid; ``scaled`` is rounded in place or left as scratch."""
    vf = scheme.value_format
    nearest = scheme.rounding == ROUND_NEAREST_EVEN
    if isinstance(vf, IntSpec):
        gmax = float(vf.grid_max)
        if nearest:
            np.rint(scaled, out=scaled)
            return np.clip(scaled, -gmax, gmax, out=scaled)
        np.clip(scaled, -gmax, gmax, out=scaled)
        base = np.floor(scaled)
        scaled -= base
        base += uniforms < scaled
        return base
    if nearest:
        return _rtn_even_inplace(scaled, vf)
    return _stoch_inplace(scaled, vf, uniforms)


def _quantize_blocks(blocks: np.ndarray, scheme: QuantScheme, rng, name: str):
    """Codes and ``(n_blocks, cols)`` scales of ``(n_blocks, d, cols)``
    blocks; ``blocks`` is only read.  Non-finite entries are refused from
    the absmax, before any uniform is drawn."""
    amax = np.maximum(blocks.max(axis=1), -blocks.min(axis=1))  # NaN, +-inf carry
    if not np.isfinite(amax).all():
        raise NaNInput(f"{name} contains non-finite values")
    stochastic = scheme.rounding == ROUND_STOCHASTIC
    if stochastic:
        _want("rng", rng, np.random.Generator)
    n, d, cols = blocks.shape
    clip = 1.0 if scheme.clipping is None else scheme.clipping
    raw = clip * amax / scheme.grid_max
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
    _want("scheme", scheme, QuantScheme)
    arr = _as_float64(v, "group values", 1)
    if arr.size != scheme.group_size:
        raise ShapeMismatch(
            f"group must be a vector of length {scheme.group_size}, got shape {arr.shape}"
        )
    codes, scales = _quantize_blocks(arr.reshape(1, -1, 1), scheme, rng, "group values")
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
    ``m`` is only read (see Memory in the module docstring).
    """
    _want("scheme", scheme, QuantScheme)
    arr = _as_float64(m, "matrix", 2)
    d = scheme.group_size
    rows, cols = arr.shape
    if rows % d != 0:
        raise ShapeMismatch(f"rows ({rows}) not divisible by group size ({d})")
    codes, scales = _quantize_blocks(arr.reshape(rows // d, d, cols), scheme, rng, "matrix")
    codes *= scales[:, None, :]
    return codes.reshape(rows, cols)
