import struct

import numpy as np
import pytest

from specmesh.errors import ParseError
from specmesh.tensorfile import MAGIC, load_tensor, read_tensor, save_tensor, write_tensor


def _special_values(shape, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    flat[: 5] = [-0.0, np.inf, -np.inf, 5e-324, np.nan][: flat.size]
    return x


@pytest.mark.parametrize("shape", [(7,), (3, 4), (2, 3, 5), (0, 4), ()])
def test_version2_roundtrip_bit_exact(shape):
    x = _special_values(shape)
    y = read_tensor(write_tensor(x))
    assert y.dtype == np.float64 and y.shape == x.shape
    assert y.tobytes() == x.tobytes()


def test_file_roundtrip(tmp_path):
    x = _special_values((5, 3), seed=2)
    save_tensor(tmp_path / "x.sgtf", x)
    assert load_tensor(tmp_path / "x.sgtf").tobytes() == x.tobytes()


def test_bad_magic():
    blob = write_tensor(np.ones(3))
    with pytest.raises(ParseError, match="magic"):
        read_tensor(b"XGTF" + blob[4:])
    with pytest.raises(ParseError, match="magic"):
        read_tensor(MAGIC)


def test_unknown_version():
    for version in (1, 3):
        blob = bytearray(write_tensor(np.ones(3)))
        struct.pack_into("<H", blob, 4, version)
        with pytest.raises(ParseError, match="version"):
            read_tensor(bytes(blob))


def test_truncated():
    blob = write_tensor(np.ones((2, 3)))
    with pytest.raises(ParseError, match="payload"):
        read_tensor(blob[:-1])
    with pytest.raises(ParseError, match="payload"):
        read_tensor(blob + b"\0")
    with pytest.raises(ParseError, match="header"):
        read_tensor(blob[:12])
