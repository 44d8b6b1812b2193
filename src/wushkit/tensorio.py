"""Minimal binary tensor container for shuttling matrices in and out.

Layout (all little-endian):

    bytes 0-3   magic ``b"WTEN"``
    byte  4     format version, currently 1
    byte  5     scalar dtype: 0 = float32, 1 = float64
    byte  6     number of dimensions
    byte  7     reserved, must be zero
    then        ndim x uint64 dimension sizes
    then        row-major scalar payload

Reads always return float64 (float32 payloads are widened); writes are
bit-exact round trips for both dtypes.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .errors import (
    BadMagic,
    DimOverflow,
    InvalidSpec,
    TruncatedPayload,
    UnsupportedVersion,
    ValidationError,
)
from .linalg import MAX_ELEMENTS, _show, _want

MAGIC = b"WTEN"
VERSION = 1
DTYPE_F32 = 0
DTYPE_F64 = 1
_DTYPES = {DTYPE_F32: np.dtype("<f4"), DTYPE_F64: np.dtype("<f8")}

MAX_NDIM = 8

_PATH = Union[str, os.PathLike]  # a file name, not an open descriptor


def write_tensor(path, m, dtype: str = "f64") -> None:
    """Write an array to ``path``; ``dtype`` is ``"f64"`` or ``"f32"``.

    The array must be bool, integer or real: complex, string and object
    arrays are refused rather than cast (a cast would drop data)."""
    _want("path", path, _PATH)
    arr = np.ascontiguousarray(m)
    if dtype == "f64":
        code = DTYPE_F64
    elif dtype == "f32":
        code = DTYPE_F32
    else:
        raise InvalidSpec(f"dtype must be 'f32' or 'f64', got {_show(dtype)}")
    if arr.dtype.kind not in "biuf":
        raise InvalidSpec(f"tensor must be bool, integer or real, got dtype {arr.dtype}")
    if arr.ndim < 1 or arr.ndim > MAX_NDIM:
        raise DimOverflow(f"ndim must be in [1, {MAX_NDIM}], got {arr.ndim}")
    if math.prod(max(n, 1) for n in arr.shape) > MAX_ELEMENTS:  # as read_tensor
        raise DimOverflow(f"tensor shape {arr.shape} exceeds element cap {MAX_ELEMENTS}")
    payload = arr.astype(_DTYPES[code], copy=False)
    header = MAGIC + struct.pack("<BBBB", VERSION, code, arr.ndim, 0)
    header += struct.pack(f"<{arr.ndim}Q", *arr.shape)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor written by :func:`write_tensor` as float64."""
    _want("path", path, _PATH)
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from None
    if len(raw) < 4:
        raise TruncatedPayload(f"{path}: file shorter than the magic")
    if raw[:4] != MAGIC:
        raise BadMagic(f"{path}: expected magic {MAGIC!r}, got {raw[:4]!r}")
    if len(raw) < 8:
        raise TruncatedPayload(f"{path}: header truncated")
    version, code, ndim, reserved = struct.unpack_from("<BBBB", raw, 4)
    if version != VERSION:
        raise UnsupportedVersion(f"{path}: version {version}, supported: {VERSION}")
    if code not in _DTYPES:
        raise UnsupportedVersion(f"{path}: unknown dtype code {code}")
    if reserved != 0:
        raise BadMagic(f"{path}: reserved header byte is {reserved}, must be 0")
    if ndim < 1 or ndim > MAX_NDIM:
        raise DimOverflow(f"{path}: ndim {ndim} outside [1, {MAX_NDIM}]")
    dims_end = 8 + 8 * ndim
    if len(raw) < dims_end:
        raise TruncatedPayload(f"{path}: dimension table truncated")
    dims = struct.unpack_from(f"<{ndim}Q", raw, 8)
    count = span = 1
    for dim in dims:
        count *= dim
        span *= max(dim, 1)  # numpy sizes even an empty array by its other dims
        if span > MAX_ELEMENTS:
            raise DimOverflow(f"{path}: dims {dims} exceed element cap {MAX_ELEMENTS}")
    dt = _DTYPES[code]
    need = dims_end + count * dt.itemsize
    if len(raw) < need:
        raise TruncatedPayload(
            f"{path}: payload has {len(raw) - dims_end} bytes, "
            f"dims {dims} require {count * dt.itemsize}"
        )
    flat = np.frombuffer(raw, dtype=dt, count=count, offset=dims_end)
    return flat.reshape(dims).astype(np.float64)
