"""SGTF binary tensor files.

Layout (little-endian): magic ``SGTF``, uint16 version, uint16 rank, then
``rank`` uint64 dims, then the row-major payload. Version 2, the only one
read or written, stores IEEE-754 64-bit floats, so checkpoints round-trip
double-precision parameters bit-exactly; version 1 (32-bit floats) is
rejected as unsupported.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ParseError

MAGIC = b"SGTF"
VERSION = 2
_DTYPE = np.dtype("<f8")


def write_tensor(array: np.ndarray) -> bytes:
    """Serialize an array as float64 (version 2)."""
    # asarray keeps a 0-d array at rank 0 (ascontiguousarray promotes it to
    # rank 1); tobytes writes row-major order whatever the layout
    array = np.asarray(array, dtype=_DTYPE)
    header = MAGIC + struct.pack("<HH", VERSION, array.ndim)
    header += struct.pack(f"<{array.ndim}Q", *array.shape)
    return header + array.tobytes()


def read_tensor(blob: bytes) -> np.ndarray:
    """Parse SGTF bytes back into a float64 array."""
    if len(blob) < 8 or blob[:4] != MAGIC:
        raise ParseError("not an SGTF tensor: bad magic")
    version, rank = struct.unpack_from("<HH", blob, 4)
    if version != VERSION:
        raise ParseError(f"unsupported SGTF version {version}")
    offset = 8 + 8 * rank
    if len(blob) < offset:
        raise ParseError("truncated SGTF header")
    dims = struct.unpack_from(f"<{rank}Q", blob, 8)
    expected = int(np.prod(dims, dtype=np.int64)) if rank else 1
    payload = blob[offset:]
    if len(payload) != expected * _DTYPE.itemsize:
        raise ParseError(
            f"SGTF payload is {len(payload)} bytes, expected {expected * _DTYPE.itemsize}")
    return np.frombuffer(payload, dtype=_DTYPE).reshape(dims).copy()


def save_tensor(path: str | Path, array: np.ndarray) -> None:
    Path(path).write_bytes(write_tensor(array))


def load_tensor(path: str | Path) -> np.ndarray:
    return read_tensor(Path(path).read_bytes())
