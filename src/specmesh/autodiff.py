"""Minimal reverse-mode automatic differentiation on NumPy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
``backward()`` on a scalar walks the graph in reverse topological order and
accumulates gradients into every tensor with ``requires_grad``. Only the
operations the reconstruction model needs are implemented, each with an
exact analytic adjoint. Everything is float64-friendly and deterministic:
ties in ``max`` route to the first occurrence, and there is no hidden RNG.
"""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .filters import chebyshev_filter as _cheb_forward
from .filters import filter_gradient as _cheb_backward


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None, name=""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def backward(self):
        if self.data.size != 1:
            raise ArgumentError("backward() only on scalar tensors")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:  # iterative DFS: graphs can be deep (training unrolls)
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(data, name="") -> Tensor:
    return Tensor(np.array(data, dtype=np.float64), requires_grad=True, name=name)


def constant(data, name="") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


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


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, -g)

    return Tensor(-a.data, a.requires_grad, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data / b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data**2), b.shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return Tensor(out_data, _needs(a, b), (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    out_data = a.data.reshape(shape)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.reshape(a.shape))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g.transpose(inverse))

    return Tensor(a.data.transpose(axes), a.requires_grad, (a,), backward)


def concat(tensors, axis=0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                _accumulate(t, g[tuple(idx)])

    return Tensor(out_data, _needs(*tensors), tuple(tensors), backward)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing / slicing; the adjoint scatters into the source shape."""
    out_data = a.data[key]

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            ga[key] = g
            _accumulate(a, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def take(a: Tensor, indices, axis=0) -> Tensor:
    """Gather along an axis; the adjoint scatter-adds (indices may repeat)."""
    indices = np.asarray(indices, dtype=np.int64)
    out_data = np.take(a.data, indices, axis=axis)

    def backward(g):
        if a.requires_grad:
            ga = np.zeros_like(a.data)
            moved = np.moveaxis(ga, axis, 0)
            np.add.at(moved, indices, np.moveaxis(g, axis, 0))
            _accumulate(a, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def reduce_sum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if a.requires_grad:
            if axis is None:
                _accumulate(a, np.broadcast_to(g, a.shape).copy())
            else:
                gk = g if keepdims else np.expand_dims(g, axis)
                _accumulate(a, np.broadcast_to(gk, a.shape).copy())

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

    def backward(g):
        if a.requires_grad:
            expanded = np.expand_dims(out_data, axis)
            hit = a.data == expanded
            first = np.cumsum(hit, axis=axis) == 1
            mask = hit & first
            _accumulate(a, mask * np.expand_dims(g, axis))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0.0)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * (a.data > 0))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def absolute(a: Tensor) -> Tensor:
    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * np.sign(a.data))

    return Tensor(np.abs(a.data), a.requires_grad, (a,), backward)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * out_data)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def sqrt(a: Tensor) -> Tensor:
    out_data = np.sqrt(a.data)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g * 0.5 / out_data)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            _accumulate(a, out_data * (g - inner))

    return Tensor(out_data, a.requires_grad, (a,), backward)


def axis_matrix(a: Tensor, matrix: np.ndarray, axis: int) -> Tensor:
    """Multiply one axis by a fixed matrix: out[..., i, ...] = sum_j M[i, j] x[..., j, ...].

    Used for constant linear resamplings (bilinear upsampling rows/cols).
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    moved = np.moveaxis(a.data, axis, 0)
    out_data = np.moveaxis(np.tensordot(matrix, moved, axes=([1], [0])), 0, axis)

    def backward(g):
        if a.requires_grad:
            gm = np.moveaxis(g, axis, 0)
            ga = np.moveaxis(np.tensordot(matrix.T, gm, axes=([1], [0])), 0, axis)
            _accumulate(a, ga)

    return Tensor(out_data, a.requires_grad, (a,), backward)


def cheb_filter(scaled_l, theta: Tensor, signal: Tensor) -> Tensor:
    """Chebyshev spectral filtering as a differentiable primitive.

    ``scaled_l`` is the rescaled Laplacian as a CSR matrix. Forward and
    adjoint delegate to the filter module's recurrence and its analytic
    gradient.
    """
    out_data = _cheb_forward(scaled_l, theta.data, signal.data)

    def backward(g):
        grad_theta, grad_signal = _cheb_backward(scaled_l, theta.data, signal.data, g)
        if theta.requires_grad:
            _accumulate(theta, grad_theta)
        if signal.requires_grad:
            _accumulate(signal, grad_signal)

    return Tensor(out_data, _needs(theta, signal), (theta, signal), backward)


def layer_norm(a: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalization over the last axis with learned gain and bias."""
    mu = reduce_mean(a, axis=-1, keepdims=True)
    centered = a - mu
    var = reduce_mean(mul(centered, centered), axis=-1, keepdims=True)
    inv = div(constant(1.0), sqrt(add(var, constant(eps))))
    return add(mul(mul(centered, inv), gain), bias)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map on the last axis: x @ weight (+ bias)."""
    out = matmul(x, weight)
    return out if bias is None else add(out, bias)


class Adam:
    """Standard Adam over a name->Tensor parameter dict."""

    def __init__(self, params: dict, lr: float = 1e-4, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for key, p in params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[key] = b1 * self.m[key] + (1 - b1) * g
            self.v[key] = b2 * self.v[key] + (1 - b2) * g * g
            m_hat = self.m[key] / (1 - b1**self.t)
            v_hat = self.v[key] / (1 - b2**self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self, params: dict):
        for p in params.values():
            p.grad = None
