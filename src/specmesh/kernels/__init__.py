"""Geometry kernel backend selection.

The compiled extension is preferred when it imported cleanly; the NumPy
fallback is always available and semantically identical. Set
``SPECMESH_NO_EXT=1`` to force the fallback even where the extension is
built.
"""
import os

from . import _geomnp

if os.environ.get("SPECMESH_NO_EXT") == "1":
    _impl = _geomnp
    BACKEND = "numpy"
else:
    try:
        from . import _geomfast as _impl
        BACKEND = "cython"
    except ImportError:
        _impl = _geomnp
        BACKEND = "numpy"

ray_crossings = _impl.ray_crossings
nearest_vertex = _impl.nearest_vertex
point_triangle_dists = _impl.point_triangle_dists

__all__ = ["BACKEND", "ray_crossings", "nearest_vertex", "point_triangle_dists"]
