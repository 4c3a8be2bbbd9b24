"""Minimal reverse-mode automatic differentiation on NumPy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every tensor with ``requires_grad``. Each op has
an exact analytic adjoint. Everything is float64-friendly and deterministic:
ties in ``max`` route to the first occurrence, and there is no hidden RNG.

What the tape holds: a tensor that needs a gradient owns a graph node:
its gradient slot, the nodes of its op's inputs that need a gradient, and
its op's backward closure. ``backward()`` walks nodes, never tensors, so a node
does not keep its tensor's ``data`` alive. A tensor that needs no gradient
has no node, so ops on constants alone (the model's eval forward) build no
tape, and a closure runs only for a node whose output needs a gradient.

What a closure captures: the nodes it hands gradients to and only the
arrays its adjoint reads for the inputs that need a gradient. ``add``,
``neg``, ``reshape``, ``transpose``, ``concat``, ``getitem``, ``take``,
``reduce_sum`` and ``axis_matrix`` keep shapes but no input array; ``mul``
keeps each operand only for the other's gradient; ``relu`` keeps its own
output, whose sign is its input's; ``layer_norm`` its normalized input,
not the input. So an activation stays alive only while a closure still to
be walked reads it or the caller holds its tensor.

A graph is walked once and released as the walk goes: each interior node
drops its backward closure and its parents right after its closure has
run, so the arrays that closure captured (a layer norm's normalized input,
a Chebyshev basis, an attention node's per-row softmax statistics) are
freed as soon as no node still to be walked reads them. Leaves keep their
gradients. An interior node keeps its gradient only while the caller still
holds the tensor; a second ``backward()`` that reaches a walked node raises
``ArgumentError``.

Gradient ownership: a backward closure hands each parent node its gradient
through ``_accumulate``. The first gradient a node receives becomes its
``grad`` array as it is, without a zero-filled copy, when the closure marks
it owned, and later ones are added into that array in place. So a closure
may pass an array as owned only if it allocated it and keeps no other
reference to it. Views of the incoming gradient (``reshape``,
``transpose``, ``concat`` slices) and the incoming gradient itself (the
pass-through of ``add``, which both operands receive) are held by the
node's own ``grad`` and possibly by another operand: adopting one would let
a later accumulation into the parent rewrite them, so they are copied.

Leaf finality: a leaf's gradient is final once every node of the walk that
consumes it has been walked, since only a consumer's closure adds into it.
``backward(on_final)`` reports each leaf that needs a gradient at that
moment, so a caller can update the leaf and drop its gradient while the
rest of the graph is still being walked. This is safe because of a read
contract that every op here keeps: a backward closure reads a leaf's
array only when that leaf is a parent of its node. A node whose data is
a view of a leaf (``reshape``, ``transpose``, basic ``getitem``) is that
leaf's consumer, and every node that reads the view consumes the view, so
they are all walked before the leaf is reported. A new op must keep the
contract: a closure that captured a leaf's array without making the leaf a
parent could read it after an in-place update.

Intra-op threads: the module keeps one thread pool, ``POOL``, and the nodes
that dominate a full-config step split their NumPy/SciPy work into
independent pieces on it (``Pool.run``): ``attention`` (forward by head
and row block, backward by head), ``linear`` and ``matmul`` (forward by row
block of a 2-D left operand, backward with the input- and weight-gradient
products side by side), ``upconv3x3`` (by tap and by image) and
``Adam.step`` (by chunk range). It mirrors intra-op parallelism as in
PyTorch (Paszke et al., 2019), and a result is the same bits at any pool
width:

- The pieces depend on array shapes only, never on the pool's width or on
  ``POOL_FLOOR``: row blocks are cut on a multiple of 64 rows
  (``_row_blocks``), each piece writes a disjoint slice of a preallocated
  output, and any sum across pieces runs on the calling thread afterwards,
  in the order of the unsplit code. So a result is the same bits at any
  width, run inline or pooled. (``Adam.step`` cuts one range of chunks
  per thread; its update is elementwise, so no cut changes a bit.) Rows
  are cut only where BLAS runs one thread per call (see ``_row_blocks``).
- The width is the number of CPUs the process may use divided by the BLAS
  threads per call, at least 1 (``pool_width``), so the pool only fills
  cores that BLAS leaves idle. Where the BLAS thread count cannot be read,
  the width is 1 and every piece runs inline.
- Work below ``POOL_FLOOR`` runs inline, in piece order, on the caller.
- A piece runs in a copy of the caller's ``contextvars`` context, so
  ``np.errstate`` applies in workers as on the caller.
- Workers run array code only: never an op of this module, ``Adam.step``
  or ``_accumulate`` (which mutates a node), nor a function of ``model``.
  The benchmark's tracer wraps those by name, and its span stack is not
  thread-safe; every gradient is accumulated on the calling thread.
"""
from __future__ import annotations

import contextvars
import ctypes
import functools
import glob
import itertools
import math
import os
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import ArgumentError

# Work, in multiply-adds of a float64 product, below which a run of pieces
# stays on the calling thread. Timed with one BLAS thread on a 2-core x86
# (median of 41, best of 3), a (rows, k) @ (k, n) product by two row blocks
# took inline -> pooled: 1.0M multiply-adds 57 -> 141 us, 2.4M 161 -> 208,
# 4.2M 260 -> 257, 6.3M 387 -> 299, 8.4M 413 -> 372, 13.8M 1003 -> 667; a
# toy-config train step, whose largest run is 5.3M, only lost by pooling.
POOL_FLOOR = 1 << 23


def _blas_threads() -> int | None:
    """Threads per call of the OpenBLAS that NumPy loaded, or None if it cannot be asked."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)  # already loaded by NumPy: the same handle
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return query()
    return None


def pool_width() -> int:
    """CPUs this process may use over BLAS threads per call, at least 1; 1 if
    the BLAS thread count cannot be read."""
    blas = _blas_threads()
    if not blas or blas < 1:
        return 1
    return max(1, len(os.sched_getaffinity(0)) // blas)


class Pool:
    """Runs independent pieces of array work on ``width`` threads, the caller one of them."""

    def __init__(self, width: int):
        self.width = width
        self._executor = (ThreadPoolExecutor(width - 1, thread_name_prefix="specmesh-autodiff")
                          if width > 1 else None)

    def run(self, pieces, work: int) -> list:
        """Call each of ``pieces`` (no-argument callables) and return their results in order.

        Pieces must not depend on each other: each writes its own outputs.
        Below ``POOL_FLOOR`` of ``work``, or at width 1, they run inline, in
        order. Pooled, the caller and the workers claim pieces in order,
        each in a copy of the caller's context. Every piece runs even if one
        raises; then the exception of the first failing piece is raised on
        the caller, as inline.
        """
        if self.width < 2 or work < POOL_FLOOR or len(pieces) < 2:
            return [piece() for piece in pieces]
        results, errors = [None] * len(pieces), {}
        claims = itertools.count()  # next() on it is atomic under the GIL
        unfinished, lock, done = [len(pieces)], threading.Lock(), threading.Event()

        def drain():
            while (i := next(claims)) < len(pieces):
                try:
                    results[i] = pieces[i]()
                except BaseException as exc:
                    errors[i] = exc
                with lock:
                    unfinished[0] -= 1
                    if not unfinished[0]:
                        done.set()

        for _ in range(min(self.width, len(pieces)) - 1):
            self._executor.submit(contextvars.copy_context().run, drain)
        drain()
        # drain() keeps every exception, so no future holds one; and waiting on the
        # futures would wait for a worker that never starts, whose share the caller ran
        done.wait()
        if errors:
            raise errors[min(errors)]
        return results

    def close(self):
        if self._executor is not None:
            self._executor.shutdown()


POOL = Pool(pool_width())
# Whether _row_blocks cuts: only where BLAS runs one thread per call
_ROW_CUTS = _blas_threads() == 1


def _row_blocks(rows: int) -> list[slice]:
    """Two row blocks of a product's left operand, cut on a multiple of 64
    near the middle; one block under 128 rows, or unless ``_ROW_CUTS``.

    Whether a cut keeps the bits of the uncut product depends on the BLAS
    kernel and its threads. With one OpenBLAS thread, these cuts kept them
    for every forward product of the full config on the SkylakeX, Haswell
    and Sandybridge kernels (``tests/test_autodiff.py::TestRowCuts`` checks
    the kernel it runs on); cuts at row 400, 402 or 448 of 804 did not.
    With two OpenBLAS threads, a cut changed the bits of 6 of the full
    config's 24 distinct ``linear`` and ``matmul`` forward products, so
    there no row is cut.
    """
    if rows < 128 or not _ROW_CUTS:
        return [slice(0, rows)]
    cut = 64 * ((rows + 64) // 128)
    return [slice(0, cut), slice(cut, rows)]


def _rowwise_matmul(a: np.ndarray, b: np.ndarray, bias=None) -> np.ndarray:
    """``a @ b``, then ``+= bias`` if given, by row blocks of a 2-D ``a`` on the pool."""
    blocks = _row_blocks(a.shape[0]) if a.ndim == 2 and b.ndim == 2 else ()
    if len(blocks) < 2:
        out = a @ b
        if bias is not None:
            out += bias
        return out
    out = np.empty((a.shape[0], b.shape[1]))

    def block(rows):
        np.matmul(a[rows], b, out=out[rows])
        if bias is not None:
            out[rows] += bias

    POOL.run([functools.partial(block, r) for r in blocks], a.size * b.shape[1])
    return out


class _Node:
    """What ``backward()`` walks for one tensor that needs a gradient.

    ``parents`` are the nodes of the op's inputs that need a gradient and
    ``backward`` the op's closure, ``None`` for a leaf. A leaf's node also
    refers weakly to its tensor, which ``on_final`` hands over.
    """

    __slots__ = ("grad", "parents", "backward", "leaf")

    def __init__(self, parents, backward, leaf):
        self.grad = None
        self.parents = parents
        self.backward = backward
        self.leaf = leaf


class Tensor:
    __slots__ = ("data", "name", "_node", "__weakref__")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
        self._node = None
        if requires_grad:
            parents = tuple(p._node for p in _parents if p._node is not None)
            leaf = weakref.ref(self) if _backward is None else None
            self._node = _Node(parents, _backward, leaf)

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        if self._node is not None:
            self._node.grad = value
        elif value is not None:
            raise ArgumentError("a tensor that needs no gradient cannot hold one")

    @property
    def _backward(self):
        """The op's backward closure; settable, so a caller can wrap it."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, fn):
        self._node.backward = fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def backward(self, on_final=None):
        """Accumulate d(self)/d(leaf) into every reachable leaf's ``grad``.

        The graph is walked once and released as it goes (see the module
        docstring): afterwards only the leaves and the interior tensors the
        caller still holds keep a ``grad``, and walking the graph again
        raises ``ArgumentError``. On a tensor that needs no gradient there
        is nothing to walk.

        ``on_final(leaf)``, when given, is called once for each reached leaf
        with ``requires_grad`` that the caller still holds, as soon as its
        gradient is final: right after the last node that consumes it has
        been walked (its closure run, or skipped because the node received
        no gradient), or at once for a leaf that is ``self``. Constants are
        never reported. The callback may update ``leaf.data`` in place and
        set ``leaf.grad`` to ``None``; see the read contract in the module
        docstring. An exception raised partway through the walk, by a
        closure or by the callback, ends it with only the leaves reported
        so far handed to the callback, so a caller that updates them is
        left with a partial update.

        Raises:
            ArgumentError: ``self`` is not a scalar, or the walk reaches a
                node an earlier ``backward()`` already walked and released.
        """
        if self.data.size != 1:
            raise ArgumentError("backward() only on scalar tensors")
        root = self._node
        if root is None:
            return
        topo: list[_Node] = []
        seen: set[int] = set()
        stack = [(root, False)]
        while stack:  # iterative DFS: graphs can be deep (training unrolls)
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        pending: dict[int, int] = {}  # id(leaf node) -> consumer edges still to walk
        for node in topo:
            node.grad = None
            if on_final is not None and node.backward is not None:
                for p in node.parents:
                    if p.backward is None:
                        pending[id(p)] = pending.get(id(p), 0) + 1
        root.grad = np.ones_like(self.data)
        if on_final is not None and root.backward is None:
            on_final(self)  # a leaf root has no consumer to wait for
        while topo:  # popping lets each walked node go once nothing else holds it
            node = topo.pop()
            if node.backward is None:
                continue
            if node.grad is not None:
                node.backward(node.grad)
            parents = node.parents
            node.backward, node.parents = _walked, ()
            for p in parents:
                if id(p) in pending:
                    pending[id(p)] -= 1
                    leaf = None if pending[id(p)] else p.leaf()
                    if leaf is not None:  # final, and the caller still holds it
                        on_final(leaf)

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, as_tensor(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(as_tensor(other)))

    def __rsub__(self, other):
        return add(as_tensor(other), neg(self))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def item(self) -> float:
        return float(self.data)

    def sum(self, axis=None, keepdims=False):
        return reduce_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims=False):
        return reduce_mean(self, axis, keepdims)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def transpose(self, axes):
        return transpose(self, axes)

    def __getitem__(self, key):
        return getitem(self, key)


def _walked(g):
    """Backward of a node that an earlier ``backward()`` walked and released."""
    raise ArgumentError("backward() reached a graph that an earlier backward() already "
                        "walked and released; build the graph again for new gradients")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name="") -> Tensor:
    # C order: Adam updates parameters in place through their flat views
    return Tensor(np.array(data, dtype=np.float64, order="C"), requires_grad=True, name=name)


def constant(data, name="") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def _accumulate(node: _Node, g: np.ndarray, owned: bool = True):
    """Add ``g`` into ``node.grad``; see the module docstring for ``owned``."""
    if node.grad is None:
        node.grad = np.asarray(g) if owned else g.copy()  # 0-d products are NumPy scalars
    else:
        node.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a gradient back to the shape it was broadcast from."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _needs(*tensors):
    return any(t.requires_grad for t in tensors)


def _read_for(t: Tensor, other: Tensor):
    """``t.data`` if ``other``'s gradient needs it, i.e. ``other`` needs one."""
    return t.data if other.requires_grad else None


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data
    targets = [(t._node, t.shape) for t in (a, b) if t.requires_grad]

    def backward(g):
        for node, shape in targets:
            gt = _unbroadcast(g, shape)
            _accumulate(node, gt, owned=gt is not g)

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def neg(a: Tensor) -> Tensor:
    node = a._node

    def backward(g):
        _accumulate(node, -g)

    return Tensor(-a.data, a.requires_grad, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    a_data, b_data = _read_for(a, b), _read_for(b, a)

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g * b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(g * a_data, b_shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data
    na, nb, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    a_data, b_data = _read_for(a, b), b.data

    def backward(g):
        if na is not None:
            _accumulate(na, _unbroadcast(g / b_data, a_shape))
        if nb is not None:
            _accumulate(nb, _unbroadcast(-g * a_data / (b_data**2), b_shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = _rowwise_matmul(a.data, b.data)
    na, nb, a_shape, b_shape = a._node, b._node, a.shape, b.shape
    a_data, b_data = _read_for(a, b), _read_for(b, a)

    def backward(g):
        pieces = []
        if na is not None:
            pieces.append(lambda: g @ np.swapaxes(b_data, -1, -2))
        if nb is not None:
            pieces.append(lambda: np.swapaxes(a_data, -1, -2) @ g)
        grads = iter(POOL.run(pieces, len(pieces) * g.size * a_shape[-1]))
        for node, shape in ((na, a_shape), (nb, b_shape)):
            if node is not None:
                _accumulate(node, _unbroadcast(next(grads), shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)
    node, in_shape = a._node, a.shape

    def backward(g):
        _accumulate(node, g.reshape(in_shape), owned=False)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    node = a._node

    def backward(g):
        _accumulate(node, g.transpose(inverse), owned=False)

    return Tensor(a.data.transpose(axes), a.requires_grad, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)
    targets = [(t._node, lo, hi) for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:])
               if t.requires_grad]

    def backward(g):
        for node, lo, hi in targets:
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(node, g[tuple(idx)], owned=False)

    return Tensor(out_data, _needs(*tensors), tuple(tensors), backward)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing / slicing; the adjoint scatters into the source shape.

    Raises:
        ArgumentError: ``key`` holds an integer array, a list or a boolean.
            Those index by gather, and the scatter would keep only one of
            repeated indices; use ``take`` instead.
    """
    for k in key if isinstance(key, tuple) else (key,):
        basic = k is None or k is Ellipsis or isinstance(k, (slice, int, np.integer))
        if not basic or isinstance(k, bool):
            raise ArgumentError(f"getitem takes ints, slices, None and Ellipsis, got "
                                f"{type(k).__name__} {k!r}; gather with ad.take instead")
    out_data = a.data[key]
    node, shape = a._node, a.shape

    def backward(g):
        ga = np.zeros(shape)
        ga[key] = g
        _accumulate(node, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def take(a: Tensor, indices, axis=0) -> Tensor:
    """Gather along an axis; the adjoint scatter-adds (indices may repeat)."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take(a.data, indices, axis=axis)
    node, shape = a._node, a.shape

    def backward(g):
        ga = np.zeros(shape)
        moved = np.moveaxis(ga, axis, 0)
        np.add.at(moved, indices, np.moveaxis(g, axis, 0))
        _accumulate(node, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    node, shape = a._node, a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(node, np.broadcast_to(g, shape).copy())

    return Tensor(out_data, a.requires_grad, (a,), backward)


def reduce_mean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    if axis is None:
        count = a.data.size
    elif isinstance(axis, tuple):
        count = int(np.prod([a.shape[i] for i in axis]))
    else:
        count = a.shape[axis]
    return mul(reduce_sum(a, axis, keepdims), constant(1.0 / count))


def reduce_max(a: Tensor, axis: int) -> Tensor:
    """Max over one axis; ties route the gradient to the first occurrence."""
    out_data = a.data.max(axis=axis)
    node, a_data = a._node, a.data

    def backward(g):
        expanded = np.expand_dims(out_data, axis)
        hit = a_data == expanded
        first = np.cumsum(hit, axis=axis) == 1
        mask = hit & first
        _accumulate(node, mask * np.expand_dims(g, axis))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)
    node = a._node

    def backward(g):
        # out > 0 exactly where a > 0: a NaN stays NaN, and -0.0 becomes a zero
        _accumulate(node, g * (out_data > 0))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    node, a_data = a._node, a.data

    def backward(g):
        _accumulate(node, g * np.sign(a_data))

    return Tensor(np.abs(a.data), a.requires_grad, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    node = a._node

    def backward(g):
        _accumulate(node, g * out_data)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)
    node = a._node

    def backward(g):
        _accumulate(node, g * 0.5 / out_data)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)
    node = a._node

    def backward(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        _accumulate(node, out_data * (g - inner))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def axis_matrix(a: Tensor, matrix: np.ndarray, axis: int) -> Tensor:
    """Multiply one axis by a fixed matrix: out[..., i, ...] = sum_j M[i, j] x[..., j, ...].

    No package code calls it; the upsampling in tests/oracles.py and the benchmark's tracer do.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    moved = np.moveaxis(a.data, axis, 0)
    out_data = np.moveaxis(np.tensordot(matrix, moved, axes=([1], [0])), 0, axis)
    node = a._node

    def backward(g):
        gm = np.moveaxis(g, axis, 0)
        ga = np.moveaxis(np.tensordot(matrix.T, gm, axes=([1], [0])), 0, axis)
        _accumulate(node, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def upconv3x3(x: Tensor, weight: Tensor, taps) -> Tensor:
    """Bilinear x2 upsampling then a valid 3x3 convolution, one tape node.

    ``x`` is (N, h, w, C_in), ``weight`` (3, 3, C_in, C_out) without bias,
    and the output (N, 2h-2, 2w-2, C_out). Both steps are linear, so the
    node mixes channels on the coarse grid first: one batched product gives
    every coarse pixel's contribution through each of the 9 taps, and the
    fixed sparse ``taps`` ((2h-2)(2w-2), 9 h w) sums them onto the output
    grid, per image. Column t*h*w + p of ``taps`` weighs coarse pixel p
    (row-major) seen through tap t = 3 dy + dx. The backward applies the
    transposes of the two steps; no array of the upsampled grid is made.
    On the pool, the dense products run one piece per tap and the sparse
    ones one piece per image; the input gradient's sum over taps runs on
    the caller.
    """
    n, h, w, c_in = x.shape
    c_out = weight.shape[3]
    hw = h * w
    if weight.shape != (3, 3, c_in, c_out) or taps.shape != ((2 * h - 2) * (2 * w - 2), 9 * hw):
        raise ArgumentError(f"upconv3x3 needs a (3, 3, {c_in}, C_out) weight and "
                            f"({(2 * h - 2) * (2 * w - 2)}, {9 * hw}) taps, "
                            f"got {weight.shape} and {taps.shape}")
    rows = x.data.reshape(n * hw, c_in)
    kernels = weight.data.reshape(9, c_in, c_out)
    mixed = np.empty((9, n * hw, c_out))  # tap t's mix of every coarse pixel
    POOL.run([functools.partial(np.matmul, rows, kernels[t], out=mixed[t]) for t in range(9)],
             9 * rows.size * c_out)
    mixed = mixed.reshape(9, n, hw, c_out)
    out_data = np.empty((n, taps.shape[0], c_out))

    def image(i):
        out_data[i] = taps @ mixed[:, i].reshape(9 * hw, c_out)

    POOL.run([functools.partial(image, i) for i in range(n)], n * taps.nnz * c_out)
    nx, nw, x_shape, w_shape = x._node, weight._node, x.shape, weight.shape
    x_rows = rows if weight.requires_grad else None  # the weight's gradient reads x
    w_kernels = kernels if x.requires_grad else None

    def backward(g):
        g = g.reshape(n, -1, c_out)
        taps_t = taps.T
        g_mixed = np.empty((9, n, hw, c_out))

        def image(i):
            g_mixed[:, i] = (taps_t @ g[i]).reshape(9, hw, c_out)

        POOL.run([functools.partial(image, i) for i in range(n)], n * taps.nnz * c_out)
        g_mixed = g_mixed.reshape(9, n * hw, c_out)
        pieces = []
        if nw is not None:
            g_w = np.empty((9, c_in, c_out))
            pieces += [functools.partial(np.matmul, x_rows.T, g_mixed[t], out=g_w[t])
                       for t in range(9)]
        if nx is not None:
            g_x = np.empty((9, n * hw, c_in))  # per tap, summed over taps below
            pieces += [functools.partial(np.matmul, g_mixed[t], w_kernels[t].T, out=g_x[t])
                       for t in range(9)]
        POOL.run(pieces, len(pieces) * n * hw * c_in * c_out)
        if nw is not None:
            _accumulate(nw, g_w.reshape(w_shape))
        if nx is not None:
            _accumulate(nx, g_x.sum(axis=0).reshape(x_shape))

    return Tensor(out_data.reshape(n, 2 * h - 2, 2 * w - 2, c_out), _needs(x, weight),
                  (x, weight), backward)


def _cheb_basis(scaled_l, x: np.ndarray, order: int) -> list[np.ndarray]:
    """T_0(L~) x .. T_{order-1}(L~) x by the recurrence T_k = 2 L~ T_{k-1} - T_{k-2}."""
    basis = [x]
    if order >= 2:
        basis.append(scaled_l @ x)
    for _ in range(2, order):
        basis.append(2.0 * (scaled_l @ basis[-1]) - basis[-2])
    return basis


def cheb_filter(scaled_l, theta: Tensor, signal: Tensor) -> Tensor:
    """Chebyshev spectral graph filtering, sum_k T_k(L~) signal theta_k, one tape node.

    The filter g(lam) = sum_k theta_k T_k(2 lam / lam_max - 1) of Defferrard
    et al. (2016) is evaluated by the T_k recurrence, without eigenvectors.
    ``scaled_l`` is the Laplacian already rescaled into [-1, 1], as a CSR
    matrix; theta is (order, F_in, F_out), signal (|V|, F_in) and the result
    (|V|, F_out). The node keeps the forward's basis for theta's gradient
    and theta for the signal's.
    L~ is symmetric, so the signal's gradient is the same recurrence run on
    the upstream gradient.

    Raises:
        ArgumentError: shape mismatch between theta, signal, and operator.
    """
    n = scaled_l.shape[0]
    if theta.ndim != 3 or signal.shape != (n, theta.shape[1]):
        raise ArgumentError(f"cheb_filter needs an (order, F_in, F_out) theta and an "
                            f"({n}, F_in) signal, got {theta.shape} and {signal.shape}")
    order = theta.shape[0]
    basis = _cheb_basis(scaled_l, signal.data, order)
    out_data = np.zeros((n, theta.shape[2]))
    for k, tk in enumerate(basis):
        out_data += tk @ theta.data[k]
    n_theta, n_signal, signal_shape = theta._node, signal._node, signal.shape
    kept_basis = basis if theta.requires_grad else None
    theta_data = _read_for(theta, signal)

    def backward(g):
        if n_theta is not None:
            _accumulate(n_theta, np.stack([tk.T @ g for tk in kept_basis], axis=0))
        if n_signal is not None:
            grad_signal = np.zeros(signal_shape)
            for k, gk in enumerate(_cheb_basis(scaled_l, g, order)):
                grad_signal += gk @ theta_data[k].T
            _accumulate(n_signal, grad_signal)

    return Tensor(out_data, _needs(theta, signal), (theta, signal), backward)


LN_EPS = 1e-6  # added to the variance in layer_norm


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalization over the last axis with learned gain and bias, one tape node.

    The forward evaluates the textbook expressions in order (mean, centered
    values, variance, 1/sqrt(var + LN_EPS), then gain and bias); the backward
    is the closed form dx = inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)).
    The node keeps xhat and inv, not the input.
    """
    inv_n = 1.0 / a.shape[-1]
    xhat = a.data - a.data.sum(axis=-1, keepdims=True) * inv_n
    var = (xhat * xhat).sum(axis=-1, keepdims=True) * inv_n
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv
    out_data = xhat * gain.data
    out_data += bias.data
    na, n_gain, n_bias = a._node, gain._node, bias._node
    gain_data = _read_for(gain, a)

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        if n_bias is not None:
            _accumulate(n_bias, g.sum(axis=lead))
        if n_gain is not None:
            _accumulate(n_gain, (g * xhat).sum(axis=lead))
        if na is not None:
            d = g * gain_data  # gradient w.r.t. xhat
            along_xhat = (d * xhat).mean(axis=-1, keepdims=True)
            d -= d.mean(axis=-1, keepdims=True)
            d -= xhat * along_xhat
            d *= inv
            _accumulate(na, d)

    return Tensor(out_data, _needs(a, gain, bias), (a, gain, bias), backward)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis, one tape node: x @ weight (+ bias).

    ``weight`` is (C_in, C_out) and ``bias`` (C_out,); ``x`` may have any
    leading axes, which the weight and bias gradients sum over in one
    matrix product.
    """
    out_data = _rowwise_matmul(x.data, weight.data, None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)
    nx, nw, nb = x._node, weight._node, None if bias is None else bias._node
    x_data, w_data, c_in = _read_for(x, weight), _read_for(weight, x), weight.shape[0]

    def backward(g):
        rows = g.reshape(-1, g.shape[-1])
        pieces = []
        if nx is not None:
            pieces.append(lambda: g @ w_data.T)
        if nw is not None:
            pieces.append(lambda: x_data.reshape(-1, x_data.shape[-1]).T @ rows)
        grads = iter(POOL.run(pieces, len(pieces) * g.size * c_in))
        for node in (nx, nw):
            if node is not None:
                _accumulate(node, next(grads))
        if nb is not None:
            _accumulate(nb, rows.sum(axis=0))

    return Tensor(out_data, _needs(*parents), parents, backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q``, ``k`` and ``v`` are (tokens, heads * dk); head h reads columns
    h*dk to (h+1)*dk. Each head computes softmax(q k^T / sqrt(dk)) v, and
    the heads are merged back to (tokens, heads * dk).

    The node works one head at a time and keeps no (tokens, tokens) array:
    only each row's score maximum and exponential sum, (heads, tokens, 1)
    each. The backward recomputes a head's weights from q, k and those
    statistics by the forward's own operations, so they are the forward's
    bits, at the cost of one more q k^T product per head (after Rabe &
    Staats, 2021, and FlashAttention, Dao et al., 2022). The softmax's row
    term sum_j w_ij dL/dw_ij equals g_i . out_i, with g the upstream
    gradient and out this node's output, so it is a (tokens, dk) product.
    On the pool, the forward runs one piece per head and row block
    (``_row_blocks``) and the backward one per head, which recomputes the
    weights by the same row blocks. At most two (tokens, tokens)
    temporaries are alive per running piece.

    Raises:
        ArgumentError: ``heads`` is below 1, or q, k and v differ in shape
            or have a width that ``heads`` does not divide.
    """
    if heads < 1:
        raise ArgumentError(f"attention needs heads >= 1, got heads={heads}")
    tokens, inner = q.shape
    if inner % heads or k.shape != q.shape or v.shape != q.shape:
        raise ArgumentError(f"attention needs q, k, v of one shape (tokens, heads*dk) "
                            f"with {heads} heads, got {q.shape}, {k.shape}, {v.shape}")
    dk = inner // heads
    scale = 1.0 / math.sqrt(dk)

    def split(x):  # (tokens, heads*dk) -> (heads, tokens, dk)
        return x.reshape(tokens, heads, dk).transpose(1, 0, 2)

    def merge(x):  # (heads, tokens, dk) -> new (tokens, heads*dk) array
        return x.transpose(1, 0, 2).reshape(tokens, inner)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    blocks = _row_blocks(tokens)
    row_max, row_sum = np.empty((heads, tokens, 1)), np.empty((heads, tokens, 1))

    # one row block of head h's weights; the forward fills the statistics, the backward reads them
    def weights(h, rows, first, out=None):
        w = np.matmul(qh[h][rows], kh[h].T, out=out)
        w *= scale
        if first:
            row_max[h, rows] = w.max(axis=-1, keepdims=True)
        w -= row_max[h, rows]
        np.exp(w, out=w)
        if first:
            row_sum[h, rows] = w.sum(axis=-1, keepdims=True)
        w /= row_sum[h, rows]
        return w

    out_heads = np.empty((heads, tokens, dk))

    def forward_piece(h, rows):
        np.matmul(weights(h, rows, True), vh[h], out=out_heads[h, rows])

    POOL.run([functools.partial(forward_piece, h, r) for h in range(heads) for r in blocks],
             2 * heads * tokens * tokens * dk)
    out_data = merge(out_heads)
    nodes = (q._node, k._node, v._node)

    def backward(g):
        gh = split(g)
        rows = (gh * split(out_data)).sum(axis=-1, keepdims=True)  # sum_j w_ij dL/dw_ij
        gq, gk, gv = (np.empty((heads, tokens, dk)) if node is not None else None
                      for node in nodes)

        def head(h):
            w = np.empty((tokens, tokens))
            for r in blocks:  # the forward's row blocks give the forward's bits
                weights(h, r, False, out=w[r])
            if gv is not None:
                gv[h] = w.T @ gh[h]
            if gq is None and gk is None:
                return
            d = gh[h] @ vh[h].T  # gradient w.r.t. the weights
            d -= rows[h]
            d *= w
            d *= scale  # now the gradient w.r.t. q k^T
            if gq is not None:
                gq[h] = d @ kh[h]
            if gk is not None:
                gk[h] = (qh[h].T @ d).T

        POOL.run([functools.partial(head, h) for h in range(heads)],
                 5 * heads * tokens * tokens * dk)
        for node, gt in zip(nodes, (gq, gk, gv)):
            if gt is not None:
                _accumulate(node, merge(gt))

    return Tensor(out_data, _needs(q, k, v), (q, k, v), backward)


ADAM_CHUNK = 32768  # elements per Adam chunk; see the Adam docstring
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


class Adam:
    """Standard Adam (Kingma & Ba, 2015) over a name->Tensor parameter dict.

    ``step`` updates ``m``, ``v`` and each parameter's data in place, for
    the parameters it is given, which may be any subset of those ``Adam``
    was built with. Each parameter keeps its own step count in ``t``, so
    stepping the parameters one at a time, as ``model.train_step`` does
    from inside ``backward``, gives the same bits as one ``step`` over all
    of them. It walks every tensor's flat view in chunks of ``ADAM_CHUNK``
    elements with scratch buffers allocated here, so a step allocates no
    array as large as a parameter. Each chunk applies the textbook
    expressions in their usual order, ``b1*m + (1-b1)*g``,
    ``b2*v + ((1-b2)*g)*g`` and ``p - lr*m_hat / (sqrt(v_hat) + eps)``, with
    b1, b2 and eps ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``, so
    the parameters are the same bits as with whole-array expressions. A
    parameter whose ``grad`` is ``None`` steps with a zero gradient. On the
    pool (see the module docstring), a tensor's chunks are cut into up to
    ``POOL.width`` contiguous ranges, one piece each with a scratch pair of
    its own, and ``Pool.run`` runs them inline below its floor; the update
    is elementwise, so any cut gives the same bits.

    The chunk size was chosen by timing one step over the full config's
    41.5M parameters (best of 4, one BLAS thread, 2-core x86): whole-array
    expressions took 1432 ms, chunks of 4K elements 604 ms, 16K 480 ms,
    32K 425 ms, 64K 434 ms and 128K 492 ms. Small chunks pay per-call
    overhead on 13 ufunc calls; large ones stream each operand from memory
    once per call. These are timings of one thread: on the pool, each
    worker walks its own range of chunks in this way.
    """

    def __init__(self, params: dict, lr: float = 1e-4):
        self.lr = lr
        self.t = {k: 0 for k in params}  # steps taken, per parameter
        # np.zeros leaves the zeroing to the first step (zeros_like writes it now)
        self.m = {k: np.zeros(p.data.shape) for k, p in params.items()}
        self.v = {k: np.zeros(p.data.shape) for k, p in params.items()}
        # one pair of chunk buffers per piece of a step, so at most one per pool thread
        self._scratch = [(np.empty(ADAM_CHUNK), np.empty(ADAM_CHUNK)) for _ in range(POOL.width)]

    def step(self, params: dict):
        """One Adam update of each of ``params``, a name->Tensor dict.

        Raises:
            ArgumentError: a name that ``Adam(...)`` was not built with, a
                parameter whose data is not C-contiguous, or a gradient of
                another shape than its parameter; checked before any
                parameter is updated.
        """
        for key, p in params.items():
            if key not in self.t:
                raise ArgumentError(f"Adam was not built with parameter {key!r}")
            if not p.data.flags.c_contiguous:
                raise ArgumentError(f"Adam updates {key!r} in place; its data must be "
                                    "C-contiguous")
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise ArgumentError(f"Adam got a gradient of shape {p.grad.shape} for "
                                    f"{key!r} of shape {p.data.shape}")
        for key, p in params.items():
            self.t[key] += 1
            data, m, v = p.data.reshape(-1), self.m[key].reshape(-1), self.v[key].reshape(-1)
            grad = None if p.grad is None else p.grad.reshape(-1)
            starts = range(0, data.size, ADAM_CHUNK)
            ways = min(len(self._scratch), len(starts))
            # an element update takes as long as 128 or more multiply-adds
            POOL.run([functools.partial(self._update, self.t[key], data, m, v, grad,
                                        starts[i * len(starts) // ways:
                                               (i + 1) * len(starts) // ways],
                                        self._scratch[i])
                      for i in range(ways)], 128 * data.size)

    def _update(self, t, data, m, v, grad, starts, scratch):
        """Step ``t`` of the chunks of one flat parameter that begin at ``starts``."""
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, self.lr, ADAM_EPS
        c1, c2 = 1 - b1**t, 1 - b2**t
        for lo in starts:
            hi = min(lo + ADAM_CHUNK, data.size)
            x, mc, vc = data[lo:hi], m[lo:hi], v[lo:hi]
            a, b = (buf[:hi - lo] for buf in scratch)
            if grad is None:
                g = b  # b is free until v_hat below
                g.fill(0.0)
            else:
                g = grad[lo:hi]
            np.multiply(mc, b1, out=mc)
            np.multiply(g, 1 - b1, out=a)
            np.add(mc, a, out=mc)
            np.multiply(vc, b2, out=vc)
            np.multiply(g, 1 - b2, out=a)
            np.multiply(a, g, out=a)
            np.add(vc, a, out=vc)
            np.divide(mc, c1, out=a)  # m_hat
            np.multiply(a, lr, out=a)
            np.divide(vc, c2, out=b)  # v_hat
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)
            np.divide(a, b, out=a)
            np.subtract(x, a, out=x)
