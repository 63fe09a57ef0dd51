import numpy as np
import pytest

from metatreat.errors import NumericError, ShapeError
from metatreat.nn_core import (
    DenseLayer,
    dense_backward,
    dense_forward,
    dropout_mask,
    init_dense_layer,
    loss_value,
    optimizer_step,
    output_delta,
    param_axpy,
    regularization_grad,
)
from oracles import central_diff, fresh_optimizer, max_rel_error


def _arr(values):
    return np.asarray(values, dtype=np.float64)


def _backward_buffers(layer, x):
    """dense_backward's (dx, dv, dgain, dbias, dW) buffers for one layer."""
    parts = (x, layer.v, layer.gain, layer.bias, layer.v)
    return tuple(np.empty_like(p) for p in parts)


# ---------------------------------------------------------------------------
# dense_forward
# ---------------------------------------------------------------------------


def test_dense_forward_identity_case():
    layer = DenseLayer(np.eye(2), np.ones(2), np.zeros(2), "identity")
    out, norms, w_eff = dense_forward(np.array([[1.0, 2.0]]), layer)
    assert np.array_equal(out, np.array([[1.0, 2.0]]))
    assert np.array_equal(norms, np.ones(2)) and np.array_equal(w_eff, np.eye(2))


def test_dense_forward_norm_cancels_gain():
    # column [3, 4] has norm 5; gain 5 restores the raw column
    layer = DenseLayer(np.array([[3.0], [4.0]]), np.array([5.0]), np.zeros(1), "identity")
    out, norms, w_eff = dense_forward(np.array([[1.0, 0.0], [0.0, 1.0]]), layer)
    assert norms == np.array([5.0])
    assert np.allclose(w_eff, np.array([[3.0], [4.0]]))
    assert np.allclose(out, np.array([[3.0], [4.0]]))


def test_dense_forward_relu_clips_negatives():
    layer = DenseLayer(np.array([[1.0]]), np.array([1.0]), np.zeros(1), "relu")
    assert dense_forward(np.array([[-1.0]]), layer)[0] == np.array([[0.0]])


def test_dense_forward_shape_error():
    layer = DenseLayer(np.eye(2), np.ones(2), np.zeros(2))
    with pytest.raises(ShapeError):
        dense_forward(np.ones((1, 3)), layer)


def test_zero_norm_column_is_degenerate():
    layer = DenseLayer(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2), np.zeros(2))
    with pytest.raises(NumericError):
        dense_forward(np.ones((1, 2)), layer)


def test_weight_norm_reparameterization_properties():
    rng = np.random.default_rng(7)
    layer = DenseLayer(rng.normal(size=(4, 3)), rng.uniform(0.5, 2.0, 3), rng.normal(size=3), "tanh")
    x = rng.normal(size=(5, 4))
    # forward equals a plain dense layer over gain-scaled unit directions
    unit = layer.v / np.linalg.norm(layer.v, axis=0)
    plain = np.tanh(x @ (unit * layer.gain) + layer.bias)
    assert np.allclose(dense_forward(x, layer)[0], plain, atol=1e-12)
    # scaling v by any c > 0 leaves the output unchanged
    for c in (0.1, 3.0, 117.0):
        scaled = DenseLayer(c * layer.v, layer.gain, layer.bias, "tanh")
        assert np.allclose(dense_forward(x, scaled)[0], dense_forward(x, layer)[0], atol=1e-10)


def test_init_gains_match_initial_column_norms():
    rng = np.random.default_rng(0)
    layer = init_dense_layer(rng, 6, 4, "relu")
    assert np.allclose(layer.gain, np.linalg.norm(layer.v, axis=0))
    # so the initial forward pass equals the unnormalized init
    x = rng.normal(size=(3, 6))
    assert np.allclose(dense_forward(x, layer)[0], np.maximum(x @ layer.v + layer.bias, 0.0))


# ---------------------------------------------------------------------------
# dropout masks
# ---------------------------------------------------------------------------


def test_dropout_zero_rate_is_identity():
    mask = dropout_mask((np.random.default_rng(0),), 0.0, np.empty((1, 4, 4)))
    assert np.array_equal(mask, np.ones((1, 4, 4)))


def test_dropout_preserves_expectation():
    # 1e5 mask entries at rate 0.5: survivors scaled by 2, mean within 1%
    rng = np.random.default_rng(3)
    total = 0.0
    draws = 100
    mask = np.empty((1, 100, 10))
    for _ in range(draws):
        dropout_mask((rng,), 0.5, mask)
        assert set(np.unique(mask)) <= {0.0, 2.0}
        total += mask.mean()
    assert abs(total / draws - 1.0) < 0.01


# ---------------------------------------------------------------------------
# backprop through one layer
# ---------------------------------------------------------------------------


def test_backprop_single_unit_hand_case():
    # one linear unit, mse, x=1, y=0, effective weight 1, bias 0:
    # loss = (1*1 - 0)^2 = 1; d loss / d w_eff = 2. Under weight norm the
    # effective-weight gradient lands in the gain (dv is orthogonal, hence 0
    # for a 1-D direction) and the bias gradient equals dz = 2.
    layer = DenseLayer(np.array([[1.0]]), np.array([1.0]), np.zeros(1), "identity")
    x, y = np.array([[1.0]]), np.array([[0.0]])
    pred, norms, w_eff = dense_forward(x, layer)
    assert loss_value(pred, y, "mse") == pytest.approx([1.0])
    dz = output_delta(pred, y, "mse")
    dx, dv, dgain, dbias = dense_backward(layer, x, dz, norms, w_eff, _backward_buffers(layer, x))
    assert dgain[0] == pytest.approx(2.0)
    assert dv[0, 0] == pytest.approx(0.0)
    assert dbias[0] == pytest.approx(2.0)
    assert dx[0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("loss_kind", ["mse", "binary_cross_entropy"])
@pytest.mark.parametrize("reg", [(0.0, 0.0), (1e-3, 1e-2)])
def test_backprop_matches_central_differences(loss_kind, reg):
    # one weight-normalized layer plus loss: dense_backward's chain rule for
    # the input, direction, gain and bias against finite differences
    rng = np.random.default_rng(42 if loss_kind == "mse" else 43)
    head = "sigmoid" if loss_kind == "binary_cross_entropy" else "identity"
    for _ in range(5):
        n_in, n_out = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        layer = init_dense_layer(rng, n_in, n_out, head)
        layer.bias[:] = rng.normal(size=n_out)
        x = rng.normal(size=(int(rng.integers(2, 7)), n_in))
        if loss_kind == "binary_cross_entropy":
            y = (rng.random((x.shape[0], n_out)) > 0.5).astype(np.float64)
        else:
            y = rng.normal(size=(x.shape[0], n_out))
        pred, norms, w_eff = dense_forward(x, layer)
        # one loss per column of outputs, as a stack takes one per fold
        dz = output_delta(pred.T, y.T, loss_kind).T
        buffers = _backward_buffers(layer, x)
        dx, dv, dgain, dbias = dense_backward(layer, x, dz, norms, w_eff, buffers)
        dv += regularization_grad(layer.v, *reg)
        shapes = [x.shape, layer.v.shape, (n_out,), (n_out,)]
        cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]

        def loss_fn(flat):
            xs, v, gain, bias = (
                part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)
            )
            pred = dense_forward(xs, DenseLayer(v, gain, bias, head))[0]
            total = loss_value(pred.T, y.T, loss_kind).sum()
            return total + reg[0] * np.abs(v).sum() + reg[1] * (v**2).sum()

        theta = np.concatenate([x.ravel(), layer.v.ravel(), layer.gain, layer.bias])
        analytic = np.concatenate([dx.ravel(), dv.ravel(), dgain, dbias])
        assert max_rel_error(analytic, central_diff(loss_fn, theta)) <= 1e-5


# ---------------------------------------------------------------------------
# optimizers (in place on plain arrays)
# ---------------------------------------------------------------------------


def test_sgd_single_step():
    state = fresh_optimizer("sgd", 0.1, 1)
    params = _arr([1.0])
    optimizer_step(params, _arr([1.0]), state)
    assert params[0] == pytest.approx(0.9)


def test_sgd_zero_grad_is_identity():
    state = fresh_optimizer("sgd", 0.1, 3)
    params = _arr([1.0, -2.0, 3.0])
    before = params.copy()
    optimizer_step(params, _arr([0.0, 0.0, 0.0]), state)
    assert np.array_equal(params, before)


def test_adam_first_step_moves_by_lr_sign():
    state = fresh_optimizer("adam", 0.01, 2)
    params = _arr([1.0, 1.0])
    optimizer_step(params, _arr([0.5, -3.0]), state)
    # bias correction makes m_hat/sqrt(v_hat) = sign(g) on the first step
    assert np.allclose(params, [1.0 - 0.01, 1.0 + 0.01], atol=1e-6)


def test_optimizer_shape_mismatch():
    state = fresh_optimizer("sgd", 0.1, 1)
    with pytest.raises(ShapeError):
        optimizer_step(_arr([1.0]), _arr([1.0, 2.0]), state)


def test_optimizer_step_matches_out_of_place_rounding():
    # the in-place update rounds exactly like p - lr * update
    rng = np.random.default_rng(8)
    p, g = rng.normal(size=50), rng.normal(size=50)
    for kind in ("sgd", "adam"):
        params = p.copy()
        optimizer_step(params, g, fresh_optimizer(kind, 0.1, 50))
        if kind == "sgd":
            expected = p - 0.1 * g
        else:
            b1, b2 = 0.9, 0.999
            m_hat = (b1 * np.zeros(50) + (1.0 - b1) * g) / (1.0 - b1)
            v_hat = (b2 * np.zeros(50) + (1.0 - b2) * (g * g)) / (1.0 - b2)
            expected = p - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(params, expected)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_param_axpy_endpoints_exact():
    a = _arr([0.1, 1e16, -3.0])
    b = _arr([0.7, 1.0, 2.0])
    out = np.empty(3)
    assert param_axpy(a, b, 1.0, out) is out and np.array_equal(out, b)
    assert np.array_equal(param_axpy(a, b, 0.0, out), a)
    # ``out`` may be ``b`` itself, as the meta-update writes it
    adapted = b.copy()
    param_axpy(a, adapted, 0.5, out=adapted)
    assert adapted.tobytes() == param_axpy(a, b, 0.5, out).tobytes()


def test_param_axpy_midpoint():
    out = param_axpy(_arr([0.0, 0.0]), _arr([1.0, 2.0]), 0.5, np.empty(2))
    assert np.allclose(out, [0.5, 1.0])


def test_param_axpy_layout_mismatch():
    # differently shaped vectors cannot come from the same network layout
    with pytest.raises(ShapeError):
        param_axpy(np.zeros(2), np.zeros(3), 0.5, np.empty(2))
