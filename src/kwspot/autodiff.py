"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Define-by-run: every operation on a Tensor that requires gradients records
a closure that knows how to push an upstream gradient to its inputs.
Gradients accumulate by summation and must be zeroed explicitly between
optimizer steps.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, UsageError


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient produced under numpy broadcasting back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """N-dimensional float64 array participating in the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._backward = None

    # ---- bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, g: np.ndarray):
        if not self.requires_grad:
            return
        g = _unbroadcast(g, self.data.shape)
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad = self.grad + g

    # ---- elementwise arithmetic --------------------------------------

    def __add__(self, other):
        other = _ensure(other)
        out_data = self.data + other.data

        def bw(g):
            self._accumulate(g)
            other._accumulate(g)

        return _node(out_data, (self, other), bw)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ensure(other)
        out_data = self.data - other.data

        def bw(g):
            self._accumulate(g)
            other._accumulate(-g)

        return _node(out_data, (self, other), bw)

    def __rsub__(self, other):
        return _ensure(other) - self

    def __mul__(self, other):
        other = _ensure(other)
        out_data = self.data * other.data

        def bw(g):
            self._accumulate(g * other.data)
            other._accumulate(g * self.data)

        return _node(out_data, (self, other), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ensure(other)
        out_data = self.data / other.data

        def bw(g):
            self._accumulate(g / other.data)
            other._accumulate(-g * self.data / (other.data * other.data))

        return _node(out_data, (self, other), bw)

    def __rtruediv__(self, other):
        return _ensure(other) / self

    def __neg__(self):
        def bw(g):
            self._accumulate(-g)

        return _node(-self.data, (self,), bw)

    def __pow__(self, exponent: float):
        p = float(exponent)
        out_data = self.data ** p

        def bw(g):
            self._accumulate(g * p * self.data ** (p - 1.0))

        return _node(out_data, (self,), bw)

    # ---- structure ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.data.shape

        def bw(g):
            self._accumulate(g.reshape(src_shape))

        return _node(out_data, (self,), bw)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes)
        inverse = tuple(np.argsort(axes))

        def bw(g):
            self._accumulate(g.transpose(inverse))

        return _node(out_data, (self,), bw)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]
        src = self

        def bw(g):
            full = np.zeros_like(src.data)
            full[key] += g
            src._accumulate(full)

        return _node(out_data, (self,), bw)

    def __matmul__(self, other):
        other = _ensure(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ShapeError(
                f"matmul needs rank >= 2 operands, got {self.shape} @ {other.shape}"
            )
        if self.shape[-1] != other.shape[-2]:
            raise ShapeError(
                f"matmul inner dimensions differ: {self.shape} @ {other.shape}"
            )
        out_data = np.matmul(self.data, other.data)

        def bw(g):
            self._accumulate(np.matmul(g, other.data.swapaxes(-1, -2)))
            other._accumulate(np.matmul(self.data.swapaxes(-1, -2), g))

        return _node(out_data, (self, other), bw)

    # ---- reductions --------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)
        src_shape = self.data.shape

        def bw(g):
            if axis is None:
                self._accumulate(np.broadcast_to(g, src_shape))
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, src_shape))

        return _node(out_data, (self,), bw)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = 1
            for a in axes:
                count *= self.shape[a]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ---- nonlinearities ----------------------------------------------

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def bw(g):
            self._accumulate(g * out_data * (1.0 - out_data))

        return _node(out_data, (self,), bw)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def bw(g):
            self._accumulate(g * (1.0 - out_data * out_data))

        return _node(out_data, (self,), bw)

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def bw(g):
            self._accumulate(g * (self.data > 0.0))

        return _node(out_data, (self,), bw)

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def bw(g):
            self._accumulate(g * out_data)

        return _node(out_data, (self,), bw)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def bw(g):
            self._accumulate(g / self.data)

        return _node(out_data, (self,), bw)

    def softmax(self, axis: int = -1) -> "Tensor":
        # max subtraction keeps exp in range; the shift cancels exactly
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * out_data).sum(axis=axis, keepdims=True)
            self._accumulate(out_data * (g - inner))

        return _node(out_data, (self,), bw)


def _ensure(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(p for p in parents if p.requires_grad)
        out._backward = backward
    return out


def custom_op(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Record an externally implemented primitive (conv, pooling, ...)."""
    return _node(data, parents, backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    cuts = np.cumsum(sizes)[:-1]

    def bw(g):
        for t, piece in zip(tensors, np.split(g, cuts, axis=axis)):
            t._accumulate(piece)

    return _node(out_data, tuple(tensors), bw)


def backward(loss: Tensor):
    """Backpropagate from a scalar loss, populating .grad on reachable tensors.

    The recorded graph is released afterwards; a fresh forward pass is
    needed before the next backward.
    """
    if loss.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    for node in topo:
        if node._backward is not None:
            node._backward = None
            node._parents = ()


def grad_check(fn, params, eps: float = 1e-5, rng=None, max_per_param: int | None = None) -> float:
    """Compare analytic gradients of fn() against central finite differences.

    fn is a no-argument callable returning a scalar Tensor and re-running
    the forward pass; params are the leaf tensors to perturb. Returns the
    max over checked elements of |analytic - numeric| / max(1e-8,
    |analytic| + |numeric|). Set max_per_param to subsample large tensors.
    """
    for p in params:
        p.zero_grad()
    loss = fn()
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        a_flat = a.reshape(-1)
        indices = np.arange(flat.size)
        if max_per_param is not None and flat.size > max_per_param:
            rng = rng or np.random.default_rng(0)
            indices = rng.choice(flat.size, size=max_per_param, replace=False)
        for i in indices:
            saved = flat[i]
            flat[i] = saved + eps
            hi = fn().item()
            flat[i] = saved - eps
            lo = fn().item()
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(a_flat[i] - numeric) / max(1e-8, abs(a_flat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst
