"""Minimal reverse-mode automatic differentiation over dense float32 or
float64 arrays.

Define-by-run: every operation on a Tensor that requires gradients records
a graph Node. A Node holds the nodes of its parents that require
gradients, its backward closure and its accumulated gradient, but no
forward value. The closure captures only the arrays its backward reads and
maps an upstream gradient to one gradient per parent, or None where a
parent needs none; the engine accumulates those of the parents that do.
A Tensor holds its value and its node, so a value that no closure saved
is freed as soon as the forward drops its Tensor. A leaf Tensor that
requires gradients is its own accumulation target. Gradients accumulate
by summation; a leaf keeps its gradient after backward, so it must be
zeroed explicitly between optimizer steps.

Every operation keeps its operands' dtype: a Python or NumPy scalar is cast
to the dtype of the Tensor it meets, so a float32 graph stays float32.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import ConfigError


# numpy gathers the operands of a strided or broadcast elementwise pass into
# its ufunc buffer when one of their rows fits in half of it, and such a pass
# runs about 3x slower than on contiguous data. Rows of more than 512 values
# (batch norm's 3920 and 980, col2im's 1078) are not gathered at this size.
UFUNC_BUFSIZE = 1024


@contextmanager
def ufunc_buffer():
    """Run the block with numpy's ufunc buffer at UFUNC_BUFSIZE elements;
    the caller's buffer size and error handling come back on exit. It
    changes how numpy walks the operands, not the arithmetic, as long as
    the block holds no reduction that casts: that one would sum in
    buffer-sized chunks."""
    with np.errstate():
        np.setbufsize(UFUNC_BUFSIZE)
        yield


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a gradient produced under numpy broadcasting back to `shape`."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _accumulate(target, g: np.ndarray):
    """Add g, reduced to target.shape, into target.grad (a Node or a leaf)."""
    g = _unbroadcast(g, target.shape)
    # the first gradient is stored as given, possibly a view shared with
    # other targets: nothing may write into a .grad in place
    target.grad = g if target.grad is None else target.grad + g


class Node:
    """The record of one operation whose output requires gradients: the
    output's shape, its gradient during backward, the nodes (or leaves) of
    the parents that require gradients with their positions `_which` among
    all parents, and the backward closure."""

    __slots__ = ("shape", "grad", "_parents", "_which", "_backward")

    def __init__(self, shape: tuple, parents: tuple, which: tuple, backward):
        self.shape = shape
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._which = which
        self._backward = backward


class Tensor:
    """N-dimensional array participating in the autodiff graph: a float32
    array is kept as float32, anything else becomes float64."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: Node | None = None

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

    @property
    def _parents(self) -> tuple:
        """The parents of this tensor's node; () for a leaf or a constant."""
        return () if self._node is None else self._node._parents

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ---- elementwise arithmetic --------------------------------------

    def __add__(self, other):
        other = _ensure(other, self)
        return record(self.data + other.data, (self, other), lambda g: (g, g))

    def __mul__(self, other):
        other = _ensure(other, self)
        # each side's gradient reads the other side's value: save a value
        # only if the other side needs it
        for_self = other.data if self.requires_grad else None
        for_other = self.data if other.requires_grad else None

        def bw(g):
            return (None if for_self is None else g * for_self,
                    None if for_other is None else g * for_other)

        return record(self.data * other.data, (self, other), bw)

    # ---- structure ---------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        src_shape = self.shape
        return record(self.data.reshape(shape), (self,), lambda g: (g.reshape(src_shape),))

    def transpose(self, *axes) -> "Tensor":
        inverse = tuple(np.argsort(axes))
        return record(self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),))

    def __getitem__(self, key) -> "Tensor":
        src_shape, dtype = self.shape, self.data.dtype

        def bw(g):
            full = np.zeros(src_shape, dtype)
            # unbuffered: an index repeated by advanced indexing adds once
            # per occurrence
            np.add.at(full, key, g)
            return (full,)

        return record(self.data[key], (self,), bw)

    def __matmul__(self, other):
        other = _ensure(other, self)
        if self.ndim < 2 or other.ndim < 2:
            raise ConfigError(
                f"matmul needs rank >= 2 operands, got {self.shape} @ {other.shape}"
            )
        if self.shape[-1] != other.shape[-2]:
            raise ConfigError(
                f"matmul inner dimensions differ: {self.shape} @ {other.shape}"
            )
        for_self = other.data if self.requires_grad else None
        for_other = self.data if other.requires_grad else None

        def bw(g):
            return (None if for_self is None else np.matmul(g, for_self.swapaxes(-1, -2)),
                    None if for_other is None else np.matmul(for_other.swapaxes(-1, -2), g))

        return record(np.matmul(self.data, other.data), (self, other), bw)

    # ---- reductions --------------------------------------------------

    def sum(self, axis=None) -> "Tensor":
        src_shape = self.shape

        def bw(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, src_shape),)

        return record(self.data.sum(axis=axis), (self,), bw)

    def mean(self, axis: int) -> "Tensor":
        return self.sum(axis=axis) * (1.0 / self.shape[axis])

    # ---- nonlinearities ----------------------------------------------

    def relu(self) -> "Tensor":
        # the backward reads a boolean mask, so that neither the input nor
        # the output is kept for it
        keep = self.data > 0.0 if self.requires_grad else None
        return record(np.maximum(self.data, 0.0), (self,), lambda g: (g * keep,))

    def softmax(self, axis: int = -1) -> "Tensor":
        # max subtraction keeps exp in range; the shift cancels exactly
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out = e / e.sum(axis=axis, keepdims=True)

        def bw(g):
            inner = (g * out).sum(axis=axis, keepdims=True)
            return (out * (g - inner),)

        return record(out, (self,), bw)


def _ensure(value, like: Tensor) -> Tensor:
    """value as is if it is a Tensor, else as a constant of like's dtype."""
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.data.dtype))


def record(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """The one recording function, of the Tensor methods and of the
    primitives written outside this module (conv, pooling, ...): a Tensor of
    `data` with a Node if any parent requires gradients. backward(g) returns
    one gradient per parent and must capture arrays only, never a Tensor,
    whose value it would keep alive."""
    out = Tensor(data)
    which = tuple(i for i, p in enumerate(parents) if p.requires_grad)
    if which:
        out.requires_grad = True
        targets = tuple(parents[i] if parents[i]._node is None else parents[i]._node
                        for i in which)
        out._node = Node(out.shape, targets, which, backward)
    return out


@ufunc_buffer()
def backward(loss: Tensor):
    """Backpropagate from a scalar loss, populating .grad on the reachable
    leaves.

    Each node's gradient and closure are released as soon as the sweep has
    passed them on, so only the leaves hold a .grad afterwards; a fresh
    forward pass is needed before the next backward.
    """
    if loss.size != 1:
        raise ConfigError(f"backward requires a scalar loss, got shape {loss.shape}")
    root = loss if loss._node is None else loss._node
    topo: list = []
    seen: set[int] = set()
    stack: list = [(root, False)]
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
    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if isinstance(node, Tensor):
            continue  # a leaf keeps its gradient
        if node.grad is not None:
            grads = node._backward(node.grad)
            for i, parent in zip(node._which, node._parents):
                _accumulate(parent, grads[i])
        node.grad = None
        node._backward = None
        node._parents = ()

