import numpy as np
import pytest

from mcdenoise import model as M
from mcdenoise import tensor as T
from mcdenoise.errors import ContractError
from mcdenoise.kernels import conv3d, make_conv_spec

from helpers import check_gradients, relative_error


# -- backward basics ------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = T.Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
    x.sum().backward()
    assert np.array_equal(x.grad, np.ones(4))


def test_backward_sum_of_squares():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    x.square().sum().backward()
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(x + x)


def test_non_participating_leaf_has_zero_grad():
    x = T.Tensor(np.zeros(2), requires_grad=True)
    y = T.Tensor(np.array([1.0, 1.0]), requires_grad=True)
    y.square().sum().backward()
    assert np.array_equal(x.grad, np.zeros(2))


def test_grad_accumulation_is_additive():
    def run(n_backward):
        x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        loss = x.square().sum()
        for _ in range(n_backward):
            T.backward(loss)
        return x.grad.copy()

    assert np.allclose(run(2), 2 * run(1))


def test_backward_linearity_sum_of_losses():
    values = [0.5, -1.5, 2.0]

    def grads_of(combine):
        x = T.Tensor(np.array(values), requires_grad=True)
        a = x.square().sum()
        b = x.mean()
        T.backward(combine(a, b))
        return x.grad.copy()

    combined = grads_of(lambda a, b: a + b)

    x = T.Tensor(np.array(values), requires_grad=True)
    T.backward(x.square().sum())
    T.backward(x.mean())
    assert np.allclose(combined, x.grad, rtol=1e-12, atol=1e-14)


# -- op semantics -----------------------------------------------------------------


def test_relu_values():
    t = T.Tensor(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(t.relu().data, [0.0, 0.0, 2.0])


def test_binary_ops_shape_mismatch():
    a, b = T.Tensor(np.zeros((2, 2))), T.Tensor(np.zeros((2, 3)))
    for op in (T.add, T.sub, T.mul):
        with pytest.raises(ContractError):
            op(a, b)


def test_concat_channel_axis():
    a = T.Tensor(np.zeros((1, 3, 2, 2, 2)))
    b = T.Tensor(np.zeros((1, 5, 2, 2, 2)))
    out = T.concat([a, b])
    assert out.shape == (1, 8, 2, 2, 2)
    c = T.Tensor(np.zeros((1, 5, 2, 2, 3)))
    with pytest.raises(ContractError):
        T.concat([a, c])


def test_scalar_mul_and_neg():
    t = T.Tensor(np.array([1.0, -2.0]))
    assert np.array_equal((2.5 * t).data, [2.5, -5.0])
    assert np.array_equal((-t).data, [-1.0, 2.0])


# -- finite-difference gradient properties -----------------------------------------


def _random_tensor(rng, shape):
    return T.Tensor(rng.normal(0.0, 1.0, shape), requires_grad=True)


def test_gradcheck_elementwise_ops():
    rng = np.random.default_rng(42)
    for _ in range(10):
        shape = tuple(rng.integers(1, hi + 1) for hi in (2, 4, 6, 6, 6))
        a = _random_tensor(rng, shape)
        b = _random_tensor(rng, shape)
        check_gradients(lambda: (T.mul(a, b) + a - b).square().mean(), [a, b])


def test_gradcheck_relu():
    rng = np.random.default_rng(43)
    for _ in range(10):
        shape = tuple(rng.integers(1, hi + 1) for hi in (2, 4, 6, 6, 6))
        a = _random_tensor(rng, shape)
        # keep values away from the kink so the difference quotient is clean
        a.data[np.abs(a.data) < 1e-2] += 0.1
        check_gradients(lambda: a.relu().square().sum(), [a])


def test_gradcheck_concat():
    rng = np.random.default_rng(44)
    for _ in range(5):
        a = _random_tensor(rng, (1, 2, 3, 3, 2))
        b = _random_tensor(rng, (1, 3, 3, 3, 2))
        check_gradients(lambda: T.concat([a, b]).square().mean(), [a, b])


def test_gradcheck_mean_sum_scalar_mul():
    rng = np.random.default_rng(45)
    a = _random_tensor(rng, (2, 3, 4))
    check_gradients(lambda: T.scalar_mul(a.mean() + a.sum(), 0.7), [a])


def test_finite_difference_oracle_detects_errors():
    # Sanity-check the harness itself: a wrong gradient must be caught.
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    loss = a.square().sum()
    T.backward(loss)
    tampered = a.grad + 0.05
    from helpers import finite_difference_grads

    numeric = finite_difference_grads(lambda: a.square().sum(), [a])[0]
    assert relative_error(tampered, numeric) > 1e-4


# -- gradient ownership -----------------------------------------------------------


def _read_only_incoming(loss):
    """Make each closure's incoming gradient read-only before the closure runs."""

    def frozen(fn):
        def run(g):
            g.flags.writeable = False
            fn(g)

        return run

    for node in T._topo_order(loss):
        if node._backward is not None:
            node._backward = frozen(node._backward)


@pytest.mark.parametrize(
    "name, cfg",
    [(M.PROPOSED, M.ScaledConfig(8, 3, (32, 32, 16))), (M.UNET_BASELINE, M.ScaledConfig(8, 3, (16, 16, 8)))],
)
def test_backward_never_writes_a_received_gradient(name, cfg):
    net = M.build_network(name, cfg, seed=2)
    rng = np.random.default_rng(46)
    x = T.Tensor(rng.normal(size=(1, 1) + cfg.input_extents))
    target = T.Tensor(rng.normal(size=(1, 1) + cfg.input_extents))
    params = net.param_tensors()

    def leaf_grads(read_only):
        T.zero_grads(params)
        loss = (M.forward(net, x) - target).square().mean()
        if read_only:
            _read_only_incoming(loss)
        T.backward(loss)
        return [p.grad.copy() for p in params]

    plain = leaf_grads(False)
    for got, want in zip(leaf_grads(True), plain):
        assert np.array_equal(got, want)


def test_fan_out_gradients():
    # add hands one array to y twice; z gets a view of the concat's
    # gradient and, from its second consumer, the conv's input gradient
    rng = np.random.default_rng(47)
    x = _random_tensor(rng, (1, 2, 4, 4, 2))
    spec = make_conv_spec(2, 3, (3, 3, 1), (1, 1, 1), rng)

    def fn():
        y = T.relu(x)
        z = T.add(y, y)
        return T.concat([z, conv3d(z, spec)]).square().mean()

    leaves = [x, *spec.tensors()]
    check_gradients(fn, leaves)

    T.zero_grads(leaves)
    loss = fn()
    T.backward(loss)
    once = [t.grad.copy() for t in leaves]
    T.backward(loss)
    for t, g in zip(leaves, once):
        assert np.array_equal(t.grad, 2.0 * g)


def _backward_keeping_interior_grads(loss):
    """The traversal before interior gradients were dropped after their closures ran."""
    order = T._topo_order(loss)
    for node in order:
        if not node.is_leaf():
            node.grad = None
    loss.grad = np.ones(loss.data.shape)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return order


def test_backward_drops_interior_grads_and_keeps_leaf_grads():
    cfg = M.ScaledConfig(8, 3, (32, 32, 16))
    rng = np.random.default_rng(48)
    x = T.Tensor(rng.normal(size=(1, 1, 32, 32, 16)))
    target = T.Tensor(rng.normal(size=(1, 1, 32, 32, 16)))

    def leaf_grads(run_backward):
        net = M.build_proposed(cfg, seed=2)
        loss = (M.forward(net, x) - target).square().mean()
        run_backward(loss)
        return loss, [p.grad for p in net.param_tensors()]

    kept_loss, kept = leaf_grads(_backward_keeping_interior_grads)
    loss, dropped = leaf_grads(T.backward)
    interior = [node for node in T._topo_order(loss) if not node.is_leaf()]
    assert interior and all(node.grad is None for node in interior)
    assert any(node.grad is not None for node in T._topo_order(kept_loss) if not node.is_leaf())
    for got, want in zip(dropped, kept):
        assert np.array_equal(got, want)
