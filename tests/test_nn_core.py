import warnings

import numpy as np
import pytest

from metatreat.base_learner import BaseLearnerConfig, StepWorkspace, forward, init_weights
from metatreat.errors import ConfigError, NumericError, ShapeError
from metatreat.nn_core import (
    DenseBuffers,
    DenseLayer,
    apply_activation,
    dense_backward,
    dense_forward,
    dropout_mask,
    init_dense_layer,
    loss_and_delta,
    optimizer_step,
    param_axpy,
    record_dense_failures,
    regularization_value,
    weight_norm,
)
from oracles import central_diff, fresh_optimizer, max_rel_error, reference_regularization_value


def _arr(values):
    return np.asarray(values, dtype=np.float64)


def _dense(layer, n_rows):
    """Fresh ``DenseBuffers`` for one layer, as a stack of one, on batches of
    ``n_rows`` rows."""
    layer = DenseLayer(layer.v[None], layer.gain[None], layer.bias[None], layer.activation)
    grads = DenseLayer(*(np.empty_like(a) for a in (layer.v, layer.gain, layer.bias)))
    cols = np.empty((4, 1, layer.n_out))
    squares, w_eff = np.empty_like(layer.v), np.empty_like(layer.v)
    out = np.empty((1, n_rows, layer.n_out))
    return DenseBuffers(
        layer, grads, layer.bias[..., None, :], cols[0], cols[1], cols[2], cols[2][..., None, :],
        cols[3], cols[3][..., None, :], squares, squares.reshape(1, -1), w_eff,
        w_eff.swapaxes(-1, -2), out, np.empty_like(out), None, np.empty((1, n_rows, layer.n_in)),
    )


def _forward(x, layer):
    """One layer's forward pass on ``x`` (rows, n_in), the failure recorded
    after it, as a step checks them, raised: its activations and buffers."""
    d = _dense(layer, len(x))
    with np.errstate(all="ignore"):
        weight_norm([d], d.norms, d.norms_sq)
        out = dense_forward(x[None], d)[0]
    errors = [None]
    record_dense_failures(d, errors, "")
    if errors[0] is not None:
        raise errors[0]
    return out, d


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def test_sigmoid_is_within_2_pow_minus_52_of_scipy_expit():
    from scipy.special import expit

    z = np.concatenate([
        np.linspace(-800.0, 800.0, 3_000_001),
        [np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0, 5e-324, -5e-324],
    ])
    before = z.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = apply_activation("sigmoid", z)
    assert np.array_equal(z, before)
    assert np.abs(got - expit(z)).max() <= 2.0**-52
    assert np.array_equal(got[-8:-4], [1.0, 0.0, 1.0, 0.0])


def test_sigmoid_writes_into_out():
    z = _arr([-2.0, 0.0, 3.0])
    expected = apply_activation("sigmoid", z)
    out = np.empty(3)
    assert apply_activation("sigmoid", z, out=out) is out and np.array_equal(out, expected)
    assert apply_activation("sigmoid", z, out=z) is z and np.array_equal(z, expected)


# ---------------------------------------------------------------------------
# dense_forward
# ---------------------------------------------------------------------------


def test_dense_forward_identity_case():
    layer = DenseLayer(np.eye(2), np.ones(2), np.zeros(2), "identity")
    out, d = _forward(np.array([[1.0, 2.0]]), layer)
    assert np.array_equal(out, np.array([[1.0, 2.0]]))
    assert np.array_equal(d.norms[0], np.ones(2)) and np.array_equal(d.w_eff[0], np.eye(2))


def test_dense_forward_norm_cancels_gain():
    # column [3, 4] has norm 5; gain 5 restores the raw column
    layer = DenseLayer(np.array([[3.0], [4.0]]), np.array([5.0]), np.zeros(1), "identity")
    out, d = _forward(np.array([[1.0, 0.0], [0.0, 1.0]]), layer)
    assert d.norms[0] == np.array([5.0]) and d.norms_sq[0] == np.array([25.0])
    assert np.allclose(d.w_eff[0], np.array([[3.0], [4.0]]))
    assert np.allclose(out, np.array([[3.0], [4.0]]))


def test_dense_forward_relu_clips_negatives():
    layer = DenseLayer(np.array([[1.0]]), np.array([1.0]), np.zeros(1), "relu")
    assert _forward(np.array([[-1.0]]), layer)[0] == np.array([[0.0]])


def test_dense_forward_shape_error():
    # the input width is checked once per batch, where the network takes it
    config = BaseLearnerConfig(n_layers=1, hidden_dim=2, embedding_dim=1)
    ws = StepWorkspace(init_weights(config, 2, 2, np.random.default_rng(0)))
    with pytest.raises(ShapeError):
        forward(ws, np.ones((1, 1, 3)), np.zeros((1, 1), dtype=int), "regression", [None])
    with pytest.raises(ShapeError):
        forward(ws, np.ones((1, 2)), np.zeros((1, 1), dtype=int), "regression", [None])


def test_zero_norm_column_is_degenerate():
    layer = DenseLayer(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2), np.zeros(2))
    with pytest.raises(NumericError, match="direction column 1 has zero norm"):
        _forward(np.ones((1, 2)), layer)


def test_weight_norm_reparameterization_properties():
    rng = np.random.default_rng(7)
    layer = DenseLayer(rng.normal(size=(4, 3)), rng.uniform(0.5, 2.0, 3), rng.normal(size=3), "tanh")
    x = rng.normal(size=(5, 4))
    # forward equals a plain dense layer over gain-scaled unit directions
    unit = layer.v / np.linalg.norm(layer.v, axis=0)
    plain = np.tanh(x @ (unit * layer.gain) + layer.bias)
    assert np.allclose(_forward(x, layer)[0], plain, atol=1e-12)
    # scaling v by any c > 0 leaves the output unchanged
    for c in (0.1, 3.0, 117.0):
        scaled = DenseLayer(c * layer.v, layer.gain, layer.bias, "tanh")
        assert np.allclose(_forward(x, scaled)[0], _forward(x, layer)[0], atol=1e-10)


def test_init_gains_match_initial_column_norms():
    rng = np.random.default_rng(0)
    layer = init_dense_layer(rng, 6, 4, "relu")
    assert np.allclose(layer.gain, np.linalg.norm(layer.v, axis=0))
    # so the initial forward pass equals the unnormalized init
    x = rng.normal(size=(3, 6))
    assert np.allclose(_forward(x, layer)[0], np.maximum(x @ layer.v + layer.bias, 0.0))


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
    pred, d = _forward(x, layer)
    loss = loss_and_delta(pred.T, y.T, "regression", np.empty(1), d.dz[..., 0], np.empty((1, 1)))
    assert loss == pytest.approx([1.0])
    dx = dense_backward(d, x.T[None], 0.0, 0.0)
    assert d.grads.gain[0, 0] == pytest.approx(2.0)
    assert d.grads.v[0, 0, 0] == pytest.approx(0.0)
    assert d.grads.bias[0, 0] == pytest.approx(2.0)
    assert dx[0, 0, 0] == pytest.approx(2.0)


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("reg", [(0.0, 0.0), (1e-3, 1e-2)])
def test_backprop_matches_central_differences(kind, reg):
    # one weight-normalized layer plus loss: dense_backward's chain rule for
    # the input, direction, gain and bias against finite differences
    rng = np.random.default_rng(42 if kind == "regression" else 43)
    head = "sigmoid" if kind == "classification" else "identity"
    for _ in range(5):
        n_in, n_out = int(rng.integers(2, 9)), int(rng.integers(1, 5))
        layer = init_dense_layer(rng, n_in, n_out, head)
        layer.bias[:] = rng.normal(size=n_out)
        x = rng.normal(size=(int(rng.integers(2, 7)), n_in))
        if kind == "classification":
            y = (rng.random((x.shape[0], n_out)) > 0.5).astype(np.float64)
        else:
            y = rng.normal(size=(x.shape[0], n_out))

        def losses(pred, delta=None):
            # one loss per column of outputs, as a stack takes one per fold
            delta = np.empty_like(pred.T) if delta is None else delta
            scratch = np.empty_like(delta)
            return loss_and_delta(pred.T, y.T, kind, np.empty(n_out), delta, scratch)

        pred, d = _forward(x, layer)
        delta = np.empty((n_out, len(x)))
        losses(pred, delta)
        d.dz[0] = delta.T
        dx = dense_backward(d, x.T[None], *reg)
        shapes = [x.shape, layer.v.shape, (n_out,), (n_out,)]
        cuts = np.cumsum([int(np.prod(shape)) for shape in shapes])[:-1]

        def loss_fn(flat):
            xs, v, gain, bias = (
                part.reshape(shape) for part, shape in zip(np.split(flat, cuts), shapes)
            )
            total = losses(_forward(xs, DenseLayer(v, gain, bias, head))[0]).sum()
            return total + reg[0] * np.abs(v).sum() + reg[1] * (v**2).sum()

        theta = np.concatenate([x.ravel(), layer.v.ravel(), layer.gain, layer.bias])
        grads = (dx, d.grads.v, d.grads.gain, d.grads.bias)
        analytic = np.concatenate([g.ravel() for g in grads])
        assert max_rel_error(analytic, central_diff(loss_fn, theta)) <= 1e-5


@pytest.mark.parametrize("kind", ["mse", "Classification"])
def test_loss_takes_only_the_task_kinds(kind):
    # the loss is named by the task kind the network steps, not by a loss
    # name of its own
    pred, y = np.zeros((1, 3)), np.zeros((1, 3))
    with pytest.raises(ConfigError, match=f"unknown task kind '{kind}'"):
        loss_and_delta(pred, y, kind, np.empty(1), np.empty((1, 3)), np.empty((1, 3)))


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
    # scale 1 writes an exact copy of b into a, and leaves b as it is
    theta = a.copy()
    assert param_axpy(theta, b, 1.0) is theta and theta.tobytes() == b.tobytes()
    assert b.tobytes() == _arr([0.7, 1.0, 2.0]).tobytes()
    # in place, with b as scratch, each entry rounds as (b - a) * s + a
    theta, adapted = a.copy(), b.copy()
    assert param_axpy(theta, adapted, 0.3) is theta
    assert theta.tobytes() == ((b - a) * 0.3 + a).tobytes()


def test_param_axpy_midpoint():
    out = param_axpy(_arr([0.0, 0.0]), _arr([1.0, 2.0]), 0.5)
    assert np.allclose(out, [0.5, 1.0])


def test_param_axpy_layout_mismatch():
    # differently shaped vectors cannot come from the same network layout
    with pytest.raises(ShapeError):
        param_axpy(np.zeros(2), np.zeros(3), 0.5)


@pytest.mark.parametrize(
    "l1, l2", [(1e-3, 0.0), (0.0, 1e-3), (1e-2, 1e-4), (1e308, 1e308), (0.0, 0.0)]
)
@pytest.mark.parametrize("overflow", [False, True], ids=["finite", "overflow"])
def test_regularization_value_matches_the_loop_bit_for_bit(l1, l2, overflow):
    # the sums of a term whose coefficient is 0 hold garbage that neither
    # reads; an overflowing case has sums near the float limit and one that
    # overflowed, in fold 0
    rng = np.random.default_rng(3)
    for matrices, folds in ((1, 1), (3, 2), (7, 5)):
        sums = rng.random((matrices, 2, folds))
        if overflow:
            sums *= np.finfo(np.float64).max
            sums[-1, :, 0] = np.inf
        if not l1:
            sums[:, 0] = np.nan
        if not l2:
            sums[:, 1] = np.nan
        with np.errstate(over="ignore"):
            expected = reference_regularization_value(sums, l1, l2)
            got = regularization_value(sums, l1, l2)
        if not (l1 or l2):
            assert got == 0.0 and isinstance(got, float)
            continue
        assert got.shape == (folds,)
        assert got.tobytes() == np.asarray(expected).tobytes()
        if overflow:
            assert np.isinf(got[0])
