import gc
import re
import weakref
import zlib

import numpy as np
import pytest

from kwspot.autodiff import Tensor, backward, grad_check
from kwspot.errors import ShapeError, UsageError
from kwspot.layers import max_pool


class TestForwardValues:
    def test_additive_identity(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal((x + 0.0).data, x.data)

    def test_identity_matmul(self):
        a = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        out = Tensor(np.eye(3)) @ a
        assert np.allclose(out.data, a.data)

    def test_matmul_shape_error(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((4, 2)))

    @pytest.mark.parametrize("a,b", [((3,), (3, 2)), ((2, 3), (3,))])
    def test_matmul_rank_one_refused(self, a, b):
        message = f"matmul needs rank >= 2 operands, got {a} @ {b}"
        with pytest.raises(ShapeError, match=re.escape(message)):
            Tensor(np.zeros(a)) @ Tensor(np.zeros(b))

    def test_softmax_contract(self):
        out = Tensor(np.array([1.0, 2.0, 3.0])).softmax()
        assert out.data.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(out.data) > 0)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(4, 7))
        a = Tensor(x).softmax(axis=1).data
        b = Tensor(x + 123.456).softmax(axis=1).data
        assert np.abs(a - b).max() < 1e-12
        assert np.abs(a.sum(axis=1) - 1.0).max() < 1e-12

    def test_deterministic_forward(self):
        x = np.random.default_rng(2).normal(size=(3, 3))
        a = (Tensor(x).tanh() @ Tensor(x)).data
        b = (Tensor(x).tanh() @ Tensor(x)).data
        assert np.array_equal(a, b)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)), requires_grad=True)
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones((2, 4)))

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        backward((x * x).sum())
        assert np.allclose(x.grad, 2 * x.data)

    @pytest.mark.parametrize("key, want", [
        (np.array([0, 0, 2]), [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]),
        ((np.array([1, 1, 1]), np.array([0, 1, 0])), [[0.0, 0.0], [2.0, 1.0], [0.0, 0.0]]),
        ((slice(None), 1), [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]),
        (np.array([True, False, True]), [[1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]),
    ], ids=["repeated-rows", "repeated-pairs", "slice", "mask"])
    def test_getitem_gradient_counts_repeats(self, key, want):
        # an index repeated by advanced indexing adds its gradient once per
        # occurrence
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        backward(x[key].sum())
        assert np.array_equal(x.grad, want)

    def test_non_scalar_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            backward(x * 2.0)

    def test_accumulation_over_reuse(self):
        # x used twice: grad of sum(x*y + x*z) must equal y + z
        rng = np.random.default_rng(4)
        y, z = rng.normal(size=5), rng.normal(size=5)
        x = Tensor(rng.normal(size=5), requires_grad=True)
        backward((x * Tensor(y) + x * Tensor(z)).sum())
        assert np.allclose(x.grad, y + z)

    def test_shared_first_gradient_not_aliased(self):
        # the outer add hands one array to both (a + b) and a; it becomes
        # a.grad as is, so adding the inner add's gradient into a.grad in
        # place would change the gradient b receives
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        y = (a + b) + a
        backward((y * Tensor(np.ones(3))).sum())
        assert np.array_equal(a.grad, np.full(3, 2.0))
        assert np.array_equal(b.grad, np.ones(3))

    def test_interior_gradients_freed(self):
        # only the leaves keep a gradient once the sweep has passed a node
        a = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([0.5, 4.0, -1.0]), requires_grad=True)
        prod = a * b
        loss = (prod * prod).sum()
        backward(loss)
        assert prod.grad is None and loss.grad is None
        assert np.array_equal(a.grad, 2 * prod.data * b.data)
        assert np.array_equal(b.grad, 2 * prod.data * a.data)

    def test_explicit_zeroing_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(x.sum())
        backward(x.sum())
        assert np.array_equal(x.grad, 2 * np.ones(3))  # accumulates
        x.zero_grad()
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones(3))


class TestSavedValues:
    """A node holds no forward value: each backward closure captures only
    the arrays it reads and returns no gradient for a constant parent."""

    @pytest.mark.parametrize("op", [
        lambda a, b: a * b,
        lambda a, b: a @ b,
    ], ids=["mul", "matmul"])
    def test_no_gradient_for_constant_parent(self, op):
        # a dropout mask or a loss one-hot needs no gradient: its backward
        # must not compute the product that would give one
        rng = np.random.default_rng(15)
        var = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        const = Tensor(rng.normal(size=(3, 3)))
        for out, var_at in ((op(var, const), 0), (op(const, var), 1)):
            grads = out._node._backward(np.ones(out.shape))
            assert grads[1 - var_at] is None
            assert grads[var_at].shape == (3, 3)

    def test_value_no_backward_reads_is_freed(self):
        # relu keeps a mask and the product with a constant keeps the
        # constant, so the relu output dies with its Tensor
        rng = np.random.default_rng(16)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        mask = rng.random((3, 4)) >= 0.5
        hidden = a.relu()
        ref = weakref.ref(hidden.data)
        loss = (hidden * Tensor(mask.astype(float))).sum()
        del hidden
        gc.collect()
        assert ref() is None
        backward(loss)
        assert np.array_equal(a.grad, ((a.data > 0) & mask).astype(float))


class TestMaxPoolRouting:
    # one 2x2 window per sample, in scan order, and the position its
    # gradient routes to: the first maximum, none for a NaN window
    WINDOWS = [
        [np.nan, 1.0, 2.0, 3.0],
        [1.0, 5.0, np.nan, 0.0],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 3.0, 3.0, 0.0],
        [-0.0, 0.0, -1.0, -2.0],
        [-1.0, 0.0, -0.0, -3.0],
        [-4.0, -4.0, -5.0, -0.5],
        # the code's last factor is isnan(max), not a fourth compare: these
        # separate a NaN window (code 4) from a maximum in view 3 (code 3)
        [1.0, np.nan, 2.0, 3.0],
        [1.0, 5.0, 2.0, np.nan],
        [1.0, 2.0, 3.0, 4.0],
    ]
    ROUTED_TO = [None, None, 0, 1, 0, 1, 3, None, None, 3]

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_first_maximum_in_scan_order(self, sign):
        n = len(self.WINDOWS)
        x = Tensor(np.array(self.WINDOWS).reshape(n, 1, 2, 2), requires_grad=True)
        out = max_pool(x)
        g = sign * np.arange(1.0, n + 1)
        backward((out * Tensor(g.reshape(n, 1, 1, 1))).sum())
        want = np.zeros((n, 4))
        for row, at in enumerate(self.ROUTED_TO):
            if at is not None:  # a NaN window routes no gradient
                want[row, at] = g[row]
        assert np.array_equal(x.grad.reshape(n, 4), want)
        # a tie of 0.0 and -0.0 keeps the first one's sign
        assert np.signbit(out.data.reshape(-1)).tolist() == [
            False, False, False, False, True, False, True, False, False, False]
        assert np.isnan(out.data.reshape(-1)).tolist() == [
            at is None for at in self.ROUTED_TO]


PRIMITIVE_CASES = [
    ("add", lambda a, b: (a + b).sum(), 2),
    ("mul", lambda a, b: (a * b).sum(), 2),
    ("matmul", lambda a, b: (a @ b).sum(), "matmul"),
    ("reshape", lambda a: a.reshape(-1).sum(), 1),
    ("transpose", lambda a: (a.reshape(2, 2, 6).transpose(2, 0, 1) * a.reshape(6, 2, 2)).sum(),
     1),
    ("slice", lambda a: a[1:, ::2].sum(), 1),
    ("sum_axis", lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), 1),
    ("mean_axis", lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), 1),
    ("tanh", lambda a: a.tanh().sum(), 1),
    ("softmax", lambda a: (a.softmax(axis=1) * a).sum(), 1),
]


@pytest.mark.parametrize("name,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, fn, arity):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for trial in range(3):
        if arity == "matmul":
            a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
            params = [a, b]
        elif arity == 2:
            a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            params = [a, b]
        else:
            a = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
            params = [a]
        assert grad_check(lambda: fn(*params), params) < 1e-6


def test_relu_gradient_off_kink():
    rng = np.random.default_rng(10)
    data = rng.normal(size=(4, 6))
    data[np.abs(data) < 0.05] = 0.1  # keep away from the kink
    a = Tensor(data, requires_grad=True)
    assert grad_check(lambda: a.relu().sum(), [a]) < 1e-6


def test_broadcast_gradient():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(1, 5)), requires_grad=True)
    params = [a, b]
    assert grad_check(lambda: ((params[0] + params[1]) ** 2.0).sum(), params) < 1e-6


def test_random_shapes_property():
    rng = np.random.default_rng(13)
    for trial in range(10):
        shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
        a = Tensor(rng.normal(size=shape), requires_grad=True)
        assert grad_check(lambda: (a * a.tanh()).sum(), [a]) < 1e-6


class TestGradCheckItself:
    def test_constant_function(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert grad_check(lambda: Tensor(np.array(5.0)) + a.sum() * 0.0, [a]) == 0.0

    def test_sigmoid_network(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        params = [w, x]
        # the engine has no sigmoid: sigmoid(z) = tanh(z / 2) / 2 + 1 / 2
        assert grad_check(lambda: ((params[1] @ params[0] * 0.5).tanh() * 0.5 + 0.5).sum(),
                          params) < 1e-6
