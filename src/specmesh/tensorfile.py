"""SGTF binary tensor files.

Layout (little-endian): magic ``SGTF``, uint16 version, uint16 rank, then
``rank`` uint64 dims, then the row-major payload. Version 1 stores IEEE-754
32-bit floats (4 bytes per element), the interchange default; version 2
stores 64-bit floats and exists so checkpoints round-trip double-precision
parameters bit-exactly.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError

MAGIC = b"SGTF"
_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}


def write_tensor(array: np.ndarray, version: int = 1) -> bytes:
    """Serialize an array; version 1 casts to float32, version 2 keeps float64."""
    if version not in _DTYPES:
        raise ParseError(f"unsupported SGTF version {version}")
    # asarray keeps a 0-d array at rank 0 (ascontiguousarray promotes it to
    # rank 1); tobytes writes row-major order whatever the layout
    array = np.asarray(array, dtype=_DTYPES[version])
    header = MAGIC + struct.pack("<HH", version, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    return header + array.tobytes()


def read_tensor(blob: bytes) -> np.ndarray:
    """Parse SGTF bytes back into an array (dtype follows the version)."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ParseError("not an SGTF tensor: bad magic")
    version, rank = struct.unpack_from("<HH", blob, 4)
    if version not in _DTYPES:
        raise ParseError(f"unsupported SGTF version {version}")
    offset = 8 + 8 * rank
    if len(blob) < offset:
        raise ParseError("truncated SGTF header")
    dims = struct.unpack_from(f"<{rank}Q", blob, 8)
    dtype = _DTYPES[version]
    expected = int(np.prod(dims, dtype=np.int64)) if rank else 1
    payload = blob[offset:]
    if len(payload) != expected * dtype.itemsize:
        raise ParseError(
            f"SGTF payload is {len(payload)} bytes, expected {expected * dtype.itemsize}")
    return np.frombuffer(payload, dtype=dtype).reshape(dims).copy()


def save_tensor(path: str | Path, array: np.ndarray, version: int = 1) -> None:
    Path(path).write_bytes(write_tensor(array, version))


def load_tensor(path: str | Path) -> np.ndarray:
    return read_tensor(Path(path).read_bytes())
