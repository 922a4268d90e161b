import numpy as np
import pytest

from kwspot.autodiff import Tensor, backward, concat, grad_check
from kwspot.errors import ShapeError, UsageError


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

    def test_explicit_zeroing_required(self):
        x = Tensor(np.ones(3), requires_grad=True)
        backward(x.sum())
        backward(x.sum())
        assert np.array_equal(x.grad, 2 * np.ones(3))  # accumulates
        x.zero_grad()
        backward(x.sum())
        assert np.array_equal(x.grad, np.ones(3))


PRIMITIVE_CASES = [
    ("add", lambda a, b: (a + b).sum(), 2),
    ("sub", lambda a, b: (a - b).sum(), 2),
    ("mul", lambda a, b: (a * b).sum(), 2),
    ("div", lambda a, b: (a / (b * b + 1.0)).sum(), 2),
    ("matmul", lambda a, b: (a @ b).sum(), "matmul"),
    ("reshape", lambda a: a.reshape(-1).sum(), 1),
    ("transpose", lambda a: (a.transpose() * a.transpose()).sum(), 1),
    ("slice", lambda a: a[1:, ::2].sum(), 1),
    ("sum_axis", lambda a: (a.sum(axis=0) * a.sum(axis=0)).sum(), 1),
    ("mean_axis", lambda a: (a.mean(axis=1) * a.mean(axis=1)).sum(), 1),
    ("sigmoid", lambda a: a.sigmoid().sum(), 1),
    ("tanh", lambda a: a.tanh().sum(), 1),
    ("exp", lambda a: a.exp().sum(), 1),
    ("log", lambda a: (a * a + 0.5).log().sum(), 1),
    ("softmax", lambda a: (a.softmax(axis=1) * a).sum(), 1),
]


@pytest.mark.parametrize("name,fn,arity", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, fn, arity):
    rng = np.random.default_rng(hash(name) % 2 ** 32)
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


def test_concat_gradient():
    rng = np.random.default_rng(11)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
    params = [a, b]
    assert grad_check(lambda: (concat(params, axis=1) ** 2.0).sum(), params) < 1e-6


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
        assert grad_check(lambda: (a.tanh() * a.sigmoid()).sum(), [a]) < 1e-6


class TestGradCheckItself:
    def test_constant_function(self):
        a = Tensor(np.ones(3), requires_grad=True)
        assert grad_check(lambda: Tensor(np.array(5.0)) + a.sum() * 0.0, [a]) == 0.0

    def test_sigmoid_network(self):
        rng = np.random.default_rng(14)
        w = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
        x = Tensor(rng.normal(size=(2, 6)), requires_grad=True)
        params = [w, x]
        assert grad_check(lambda: (params[1] @ params[0]).sigmoid().sum(), params) < 1e-6
