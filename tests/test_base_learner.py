import numpy as np
import pytest

from metatreat import base_learner
from metatreat.base_learner import (
    BaseLearnerConfig,
    BaseLearnerWeights,
    StepWorkspace,
    forward,
    init_weights,
    inner_update,
    loss_and_grads,
    stack_weights,
)
from metatreat.errors import ConfigError, DataError, NumericError, ShapeError
from metatreat.eval_harness import SearchSpace, off_grid_fields
from metatreat.meta_learner import fine_tune
from metatreat.nn_core import optimizer_step
from oracles import central_diff, fresh_optimizer, max_rel_error, reference_loss_and_grads

def small_config(**overrides):
    defaults = dict(
        n_layers=2,
        hidden_dim=6,
        embedding_dim=4,
        activation="tanh",
        dropout_rate=0.0,
        reg_kind="l2",
        reg_strength=1e-3,
        optimizer="sgd",
        learning_rate=0.05,
        inner_iterations=3,
    )
    defaults.update(overrides)
    return BaseLearnerConfig(**defaults)


def streams(*seeds):
    """One fresh RNG stream per fold."""
    return tuple(map(np.random.default_rng, seeds))


def one(*arrays):
    """One fold's batch arrays as the batch of a stack of one."""
    return tuple(np.asarray(a)[None] for a in arrays)


def updated(weights, *args):
    """``weights`` after an ``inner_update`` with ``args``, in a fresh
    workspace."""
    ws = StepWorkspace(weights)
    inner_update(ws, *args)
    return ws.net


def make_batch(rng, n, d, n_groups, exclude_group=None):
    x = rng.normal(size=(n, d))
    choices = [g for g in range(n_groups) if g != exclude_group]
    g = rng.choice(choices, size=n)
    g[: len(choices)] = choices  # each allowed group appears
    y = rng.normal(size=n)
    return x, g, y


def test_forward_embedding_path_is_live():
    rng = np.random.default_rng(0)
    config = small_config()
    w = init_weights(config, 3, 3, rng)
    x = np.tile(rng.normal(size=(1, 3)), (2, 1))
    [out] = forward(StepWorkspace(w), *one(x, [0, 1]), "regression", [None])
    assert out[0] != out[1]  # same features, different embeddings


def test_forward_zero_embeddings_and_head_give_zero():
    rng = np.random.default_rng(1)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    w.embeddings[:] = 0.0
    w.head.gain[:] = 0.0
    w.head.bias[:] = 0.0
    x, g = one(rng.normal(size=(4, 3)), np.zeros(4))
    out = forward(StepWorkspace(w), x, g, "regression", [None])
    assert out.shape == (1, 4) and np.all(out == 0.0)


def test_forward_eval_mode_deterministic():
    rng = np.random.default_rng(2)
    config = small_config(dropout_rate=0.2)
    w = init_weights(config, 3, 2, rng)
    x, g = one(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
    ws = StepWorkspace(w)
    a = forward(ws, x, g, "regression", [None])
    b = forward(ws, x, g, "regression", [None])
    assert np.array_equal(a, b)


def test_forward_sigmoid_outputs_in_unit_interval():
    rng = np.random.default_rng(3)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    x, g = one(rng.normal(size=(10, 3)), rng.integers(0, 2, 10))
    out = forward(StepWorkspace(w), x, g, "classification", [None])
    assert np.all((out > 0.0) & (out < 1.0))


def test_forward_unknown_group_rejected():
    rng = np.random.default_rng(4)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    with pytest.raises(DataError):
        forward(StepWorkspace(w), *one(rng.normal(size=(1, 3)), [5]), "regression", [None])


def test_forward_respects_batch_decomposition():
    rng = np.random.default_rng(5)
    config = small_config()
    w = init_weights(config, 4, 3, rng)
    x, g = one(rng.normal(size=(7, 4)), rng.integers(0, 3, 7))
    ws = StepWorkspace(w)
    [batch] = forward(ws, x, g, "regression", [None])
    single = [
        forward(ws, x[:, i : i + 1], g[:, i : i + 1], "regression", [None])[0, 0]
        for i in range(7)
    ]
    assert np.allclose(batch, single, atol=1e-12)


def test_forward_eval_mode_ignores_dropout():
    # the masks a training step drew on the same rows stay out of prediction
    rng = np.random.default_rng(6)
    config = small_config(dropout_rate=0.7)
    w = init_weights(config, 3, 2, rng)
    x, g = one(rng.normal(size=(5, 3)), rng.integers(0, 2, 5))
    ws = StepWorkspace(w)
    loss_and_grads(ws, x, g, np.zeros((1, 5)), "regression", config, streams(0), [None])
    dropped = forward(ws, x, g, "regression", [None])
    kept = forward(StepWorkspace(w), x, g, "regression", [None])
    assert np.array_equal(dropped, kept)


# ---------------------------------------------------------------------------
# one flat parameter vector with named views, for a stack of networks
# ---------------------------------------------------------------------------


def test_named_views_alias_values_and_clone_copies():
    rng = np.random.default_rng(8)
    w = init_weights(small_config(), 3, 3, rng)
    views = [arr for layer in w.extractor for arr in (layer.v, layer.gain, layer.bias)]
    views += [w.embeddings, w.head.v, w.head.gain, w.head.bias]
    # one network, as a stack of one: each view carries the fold axis
    assert w.folds == 1
    assert [view.shape for view in views] == [(1, *shape) for _, shape in w.layout]
    assert np.array_equal(np.concatenate([view.ravel() for view in views]), w.values)
    # writing the vector moves the views, and the other way round
    w.values[:] = np.arange(w.values.size)
    assert np.array_equal(w.head.v.ravel(), w.values[-w.head.v.size - 2 : -2])
    w.head.bias[:] = -1.0
    assert w.values[-1] == -1.0
    # a clone, the same layout over a copy, shares no memory with its source
    copy = BaseLearnerWeights(w.values.copy(), w.layout, w.activations)
    assert not np.shares_memory(copy.values, w.values)
    before = w.values.copy()
    copy.values[:] = 0.0
    copy.head.gain[:] = 5.0
    assert np.array_equal(w.values, before)


# ---------------------------------------------------------------------------
# gradients of the composite network
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("reg_kind", ["l1", "l2", "both"])
def test_composite_gradients_match_central_differences(kind, reg_kind):
    rng = np.random.default_rng(10)
    config = small_config(reg_kind=reg_kind, reg_strength=1e-2)
    w = init_weights(config, 3, 3, rng)
    x, g, y = make_batch(rng, 6, 3, 3)
    if kind == "classification":
        y = (y > 0).astype(float)
    _, grads = loss_and_grads(StepWorkspace(w), *one(x, g, y), kind, config, streams(0), [None])

    l1, l2 = config.l1_l2()
    active = np.unique(g)

    def loss_fn(flat_values):
        cand = BaseLearnerWeights(flat_values, w.layout, w.activations)
        [pred] = forward(StepWorkspace(cand), *one(x, g), kind, [None])
        if kind == "classification":
            p = np.clip(pred, 1e-12, 1.0 - 1e-12)
            total = np.mean(-(y * np.log(p) + (1.0 - y) * np.log1p(-p)))
        else:
            total = np.mean((pred - y) ** 2)
        mats = [layer.v for layer in cand.extractor] + [cand.head.v, cand.embeddings[0, active]]
        for mat in mats:
            total += l1 * np.abs(mat).sum() + l2 * (mat**2).sum()
        return total

    numeric = central_diff(loss_fn, w.values)
    assert max_rel_error(grads.values, numeric) <= 1e-5


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
@pytest.mark.parametrize("reg_kind", ["l1", "l2", "both"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_loss_and_grads_matches_unfused_reference_bitwise(kind, activation, reg_kind, dropout_rate):
    # the fused step computes each layer's weight-norm terms once and writes
    # one flat gradient; it must round exactly like the unfused backprop
    rng = np.random.default_rng(30)
    config = small_config(
        n_layers=3, hidden_dim=7, activation=activation, reg_kind=reg_kind,
        reg_strength=1e-2, dropout_rate=dropout_rate,
    )
    for seed in range(3):
        w = init_weights(config, 4, 4, rng)
        w.values[:] += rng.normal(scale=0.3, size=w.values.size)
        x, g, y = make_batch(rng, 9, 4, 4, exclude_group=3)
        if kind == "classification":
            y = (y > 0).astype(float)
        before = w.values.copy()
        [loss], grads = loss_and_grads(
            StepWorkspace(w), *one(x, g, y), kind, config, streams(seed), [None]
        )
        ref_loss, ref_grads = reference_loss_and_grads(
            w, x, g, y, kind, config, rng=np.random.default_rng(seed)
        )
        assert loss == ref_loss
        assert grads.values.tobytes() == ref_grads.values.tobytes()
        assert not np.shares_memory(grads.values, w.values)
        assert w.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("hidden_dim", [7, 128])
@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("reg_kind", ["l1", "l2", "both"])
@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_inner_update_matches_unfused_reference_bitwise(
    activation, reg_kind, kind, optimizer, hidden_dim
):
    # every step reuses the workspace's per-layer buffers, the squares of
    # the column norms for the L2 term and one pred - y for the loss and
    # its delta; each step must round as the unfused backprop does
    rng = np.random.default_rng(31)
    config = small_config(
        optimizer=optimizer, activation=activation, reg_kind=reg_kind, reg_strength=1e-2,
        hidden_dim=hidden_dim, dropout_rate=0.2, inner_iterations=4,
    )
    w = init_weights(config, 3, 3, rng)
    x, g, y = make_batch(rng, 8, 3, 3)
    if kind == "classification":
        y = (y > 0).astype(float)
    out = updated(w, *one(x, g, y), kind, config, streams(9), [None])
    expected = BaseLearnerWeights(w.values.copy(), w.layout, w.activations)
    state = fresh_optimizer(optimizer, config.learning_rate, w.values.size)
    step_rng = np.random.default_rng(9)
    for _ in range(config.inner_iterations):
        _, grads = reference_loss_and_grads(expected, x, g, y, kind, config, rng=step_rng)
        optimizer_step(expected.values, grads.values, state)
    assert out.values.tobytes() == expected.values.tobytes()


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("hidden_dim", [7, 128])
def test_stacked_loss_and_grads_matches_each_fold_alone(kind, hidden_dim):
    # folds of one layout step together on a leading fold axis; each fold's
    # loss and gradient keep the bits it gets alone, dropout draws included
    rng = np.random.default_rng(32)
    config = small_config(
        n_layers=3, hidden_dim=hidden_dim, activation="relu", reg_kind="both",
        reg_strength=1e-2, dropout_rate=0.2,
    )
    nets = [init_weights(config, 4, 4, rng) for _ in range(3)]
    for net in nets:
        net.values[:] += rng.normal(scale=0.3, size=net.values.size)
    batches = [make_batch(rng, 9, 4, 4, exclude_group=f) for f in range(3)]
    if kind == "classification":
        batches = [(x, g, (y > 0).astype(float)) for x, g, y in batches]
    x, g, y = (np.stack(parts) for parts in zip(*batches))
    stack = stack_weights(nets)
    losses, grads = loss_and_grads(
        StepWorkspace(stack), x, g, y, kind, config, streams(0, 1, 2), [None] * 3
    )
    grads = per_fold(grads)
    assert grads.shape == (3, nets[0].values.size)
    for f, net in enumerate(nets):
        [loss], grad = loss_and_grads(
            StepWorkspace(net), *one(*batches[f]), kind, config, streams(f), [None]
        )
        assert losses[f] == loss
        assert grads[f].tobytes() == grad.values.tobytes()


class CountingStream:
    """A random stream that counts its ``random`` calls."""

    def __init__(self, seed):
        self.stream = np.random.default_rng(seed)
        self.calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return self.stream.random(*args, **kwargs)


def stacked_task(rng, n_folds, n_rows=9):
    batches = [make_batch(rng, n_rows, 4, 4, exclude_group=f) for f in range(n_folds)]
    x, g, y = (np.stack(parts) for parts in zip(*batches))
    return batches, (x, g, y)


def per_fold(stack):
    """A stack's folds as the rows of one (folds, P) array."""
    return np.stack([net.values for net in stack.unstack()])


@pytest.mark.parametrize(
    "n_layers, hidden_dim, embedding_dim", [(1, 5, 3), (3, 7, 4), (2, 6, 0)]
)
def test_stack_unstack_round_trips_bitwise(n_layers, hidden_dim, embedding_dim):
    rng = np.random.default_rng(35)
    config = small_config(n_layers=n_layers, hidden_dim=hidden_dim, embedding_dim=embedding_dim)
    nets = [init_weights(config, 4, 3, rng) for _ in range(3)]
    stack = stack_weights(nets)
    # each part's (folds, *shape) block is contiguous, fold f holding net f
    assert stack.values.size == 3 * nets[0].values.size
    assert stack.embeddings.shape == (3, 3, embedding_dim)
    for f, net in enumerate(nets):
        assert np.array_equal(stack.head.v[f], net.head.v[0])
        assert np.array_equal(stack.extractor[0].gain[f], net.extractor[0].gain[0])
    parts = stack.unstack()
    assert [net.folds for net in parts] == [1, 1, 1]
    assert [net.values.tobytes() for net in parts] == [net.values.tobytes() for net in nets]
    # a stack of one has one network's bytes, and stacks join along the
    # fold axis
    assert stack_weights(nets[:1]).values.tobytes() == nets[0].values.tobytes()
    joined = stack_weights([stack_weights(nets[:2]), nets[2]])
    assert joined.folds == 3 and joined.values.tobytes() == stack.values.tobytes()


def test_update_of_a_workspace_stack_steps_it_in_place():
    # a workspace steps a copy of the stack it was made from, in place, and
    # successive updates in it, on batches of two sizes, give the bits of a
    # fresh workspace per update
    rng = np.random.default_rng(36)
    config = small_config(dropout_rate=0.2, optimizer="adam")
    theta = stack_weights([init_weights(config, 4, 4, rng) for _ in range(3)])
    before = theta.values.copy()
    _, data = stacked_task(rng, 3)
    _, other = stacked_task(rng, 3, n_rows=5)
    ws = StepWorkspace(theta)
    net = ws.net.values
    assert inner_update(ws, *data, "regression", config, streams(5, 6, 7), [None] * 3) is None
    assert ws.net.values is net and net.tobytes() != before.tobytes()
    inner_update(ws, *other, "regression", config, streams(8, 9, 10), [None] * 3)
    inner_update(ws, *data, "regression", config, streams(11, 12, 13), [None] * 3)
    expected = theta
    for batch, seeds in ((data, (5, 6, 7)), (other, (8, 9, 10)), (data, (11, 12, 13))):
        expected = updated(expected, *batch, "regression", config, streams(*seeds), [None] * 3)
    assert net.tobytes() == expected.values.tobytes()
    assert theta.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("embedding_dim", [0, 1, 128])
def test_stacked_embedding_gradient_matches_reference_bitwise(embedding_dim):
    # the stacked step scatters every row's embedding gradient with one flat
    # np.add.at; each fold's gradient keeps the bits of the oracle's add.at,
    # with unequal rows per group and a group whose rows are fitted exactly
    # (zero entries, which the matmul gives as +0.0), so its sum is a zero
    rng = np.random.default_rng(37)
    config = small_config(embedding_dim=embedding_dim, reg_strength=0.0)
    nets = [init_weights(config, 4, 4, rng) for _ in range(3)]
    batches = []
    for f, net in enumerate(nets):
        net.values[:] += rng.normal(scale=0.3, size=net.values.size)
        # 1, 3 and 5 rows of the groups other than f, in shuffled order
        g = rng.permutation(np.repeat([c for c in range(4) if c != f], (1, 3, 5)))
        x, y = rng.normal(size=(9, 4)), rng.normal(size=9)
        fitted = g == g[0]
        y[fitted] = forward(StepWorkspace(net), *one(x, g), "regression", [None])[0, fitted]
        batches.append((x, g, y))
    x, g, y = (np.stack(parts) for parts in zip(*batches))
    stack = stack_weights(nets)
    _, grads = loss_and_grads(
        StepWorkspace(stack), x, g, y, "regression", config, streams(0, 1, 2), [None] * 3
    )
    got = per_fold(grads)
    for f, net in enumerate(nets):
        _, expected = reference_loss_and_grads(net, *batches[f], "regression", config)
        assert got[f].tobytes() == expected.values.tobytes()
        fitted_group = batches[f][1][0]
        assert not expected.embeddings[0, fitted_group].any()


def test_stacked_inner_update_draws_each_folds_masks_once_per_step():
    # every extractor layer's mask comes from one draw per fold per step,
    # in layer order, so each stream moves exactly as per-layer draws would
    rng = np.random.default_rng(33)
    config = small_config(
        n_layers=3, hidden_dim=7, activation="relu", reg_kind="both", dropout_rate=0.2,
        optimizer="adam", inner_iterations=4,
    )
    nets = [init_weights(config, 4, 4, rng) for _ in range(3)]
    batches, data = stacked_task(rng, 3)
    counting = tuple(CountingStream(seed) for seed in range(3))
    out = per_fold(
        updated(stack_weights(nets), *data, "regression", config, counting, [None] * 3)
    )
    assert [s.calls for s in counting] == [config.inner_iterations] * 3
    for f, net in enumerate(nets):
        expected = BaseLearnerWeights(net.values.copy(), net.layout, net.activations)
        state = fresh_optimizer("adam", config.learning_rate, net.values.size)
        reference = np.random.default_rng(f)
        for _ in range(config.inner_iterations):
            _, grads = reference_loss_and_grads(
                expected, *batches[f], "regression", config, rng=reference
            )
            optimizer_step(expected.values, grads.values, state)
        assert out[f].tobytes() == expected.values.tobytes()
        assert counting[f].stream.random() == reference.random()


def test_step_workspaces_share_no_memory():
    # each workspace writes only its own arrays: a gradient is the
    # workspace's, which its next step overwrites with the bits a fresh
    # workspace gives, and no step in one workspace moves another's
    rng = np.random.default_rng(34)
    config = small_config(dropout_rate=0.2, optimizer="adam")
    w = init_weights(config, 4, 4, rng)
    before = w.values.copy()
    x, g, y = one(*make_batch(rng, 9, 4, 4))
    ws, other = StepWorkspace(w), StepWorkspace(w)
    _, first = loss_and_grads(ws, x, g, y, "regression", config, streams(0), [None])
    assert first is ws.grads
    _, second = loss_and_grads(other, x, g, -y, "regression", config, streams(0), [None])
    kept = second.values.copy()
    _, again = loss_and_grads(ws, x, g, -y, "regression", config, streams(0), [None])
    assert again.values.tobytes() == kept.tobytes() == second.values.tobytes()
    inner_update(ws, x, g, y, "regression", config, streams(1), [None])
    assert second.values.tobytes() == kept.tobytes()
    assert w.values.tobytes() == before.tobytes()
    arrays = [[space.net.values, space._update, *space._arrays.values()] for space in (ws, other)]
    for a in arrays[0]:
        assert not np.shares_memory(a, w.values)
        assert not any(np.shares_memory(a, b) for b in arrays[1])


def test_stack_keeps_each_folds_first_numeric_failure():
    # fold 1 overflows in extractor layer 1; fold 0 goes on with its own bits
    config = small_config(n_layers=2, hidden_dim=1, activation="relu")
    nets = [init_weights(config, 1, 2, np.random.default_rng(seed)) for seed in (20, 21)]
    for layer, gain in zip(nets[1].extractor, (1e150, 1e20)):
        layer.v[:] = 1.0
        layer.gain[:] = gain
        layer.bias[:] = 0.0
    x = np.array([[[1.0]], [[1e150]]])
    g, y = np.zeros((2, 1), dtype=int), np.zeros((2, 1))
    errors = [None, None]
    stack = stack_weights(nets)
    losses, grads = loss_and_grads(
        StepWorkspace(stack), x, g, y, "regression", config, streams(0, 1), errors
    )
    grads = per_fold(grads)
    assert errors[0] is None
    assert str(errors[1]) == "extractor layer 1: dense layer produced non-finite activations"
    [loss], grad = loss_and_grads(
        StepWorkspace(nets[0]), x[:1], g[:1], y[:1], "regression", config, streams(0), [None]
    )
    assert losses[0] == loss and grads[0].tobytes() == grad.values.tobytes()


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_stacked_forward_gives_each_fold_its_own_predictions(kind):
    # one row per fold, each with the bits its network gives alone; a fold
    # with a zero-norm column is recorded and the others are untouched
    rng = np.random.default_rng(36)
    config = small_config(n_layers=2, hidden_dim=7, activation="relu")
    nets = [init_weights(config, 4, 4, rng) for _ in range(3)]
    batches = [make_batch(rng, 9, 4, 4) for _ in range(3)]
    x, g, _ = (np.stack(parts) for parts in zip(*batches))
    preds = forward(StepWorkspace(stack_weights(nets)), x, g, kind, [None] * 3)
    assert preds.shape == (3, 9)
    for f, net in enumerate(nets):
        [alone] = forward(StepWorkspace(net), x[f : f + 1], g[f : f + 1], kind, [None])
        assert preds[f].tobytes() == alone.tobytes()
    nets[1].extractor[1].v[..., 2] = 0.0
    errors = [None] * 3
    again = forward(StepWorkspace(stack_weights(nets)), x, g, kind, errors)
    message = "extractor layer 1: degenerate dense layer: direction column 2 has zero norm"
    assert errors[0] is errors[2] is None and str(errors[1]) == message
    assert again[0].tobytes() == preds[0].tobytes() and again[2].tobytes() == preds[2].tobytes()


@pytest.mark.parametrize("kind", ["regression", "classification"])
@pytest.mark.parametrize("n_pred", [4, 20])
def test_forward_after_an_update_keeps_a_fresh_workspaces_bits(kind, n_pred):
    # prediction reuses the buffers an update just wrote, on a batch smaller
    # than the training batch, or larger, which grows the workspace's
    # arrays and drops the training batch's buffers
    rng = np.random.default_rng(39)
    config = small_config(n_layers=3, hidden_dim=7, activation="relu", dropout_rate=0.2)
    ws = StepWorkspace(stack_weights([init_weights(config, 4, 4, rng) for _ in range(3)]))
    _, (x_train, g_train, y_train) = stacked_task(rng, 3)
    if kind == "classification":
        y_train = (y_train > 0).astype(float)
    inner_update(ws, x_train, g_train, y_train, kind, config, streams(0, 1, 2), [None] * 3)
    x, g = rng.normal(size=(3, n_pred, 4)), rng.integers(0, 4, size=(3, n_pred))
    pred = forward(ws, x, g, kind, [None] * 3)
    assert len(ws._batches) == (2 if n_pred < x_train.shape[1] else 1)
    assert pred.tobytes() == forward(StepWorkspace(ws.net), x, g, kind, [None] * 3).tobytes()


@pytest.mark.parametrize("primitive", ["forward", "loss_and_grads", "inner_update"])
@pytest.mark.parametrize("bad", ["fold count", "1-D group ids", "2-D inputs"])
def test_every_primitive_refuses_a_batch_unlike_its_stack(primitive, bad):
    # one check serves all three: a batch with another fold count than the
    # stack's, group ids without the fold axis, or one network's 2-D inputs
    rng = np.random.default_rng(38)
    config = small_config()
    ws = StepWorkspace(stack_weights([init_weights(config, 4, 4, rng) for _ in range(2)]))
    _, (x, g, y) = stacked_task(rng, 2)
    if bad == "fold count":
        x, g, y = x[:1], g[:1], y[:1]
    elif bad == "1-D group ids":
        g = g[0]
    else:
        x, g, y = x[0], g[0], y[0]
    calls = {
        "forward": lambda: forward(ws, x, g, "regression", [None] * 2),
        "loss_and_grads": lambda: loss_and_grads(
            ws, x, g, y, "regression", config, streams(0, 1), [None] * 2
        ),
        "inner_update": lambda: inner_update(
            ws, x, g, y, "regression", config, streams(0, 1), [None] * 2
        ),
    }
    with pytest.raises(ShapeError):
        calls[primitive]()


@pytest.mark.parametrize("primitive", ["forward", "loss_and_grads", "inner_update", "fine_tune"])
@pytest.mark.parametrize("kind", ["Classification"], ids=["misspelled"])
def test_every_primitive_refuses_an_unknown_task_kind(primitive, kind):
    # the batch check refuses any kind but "regression" and "classification"
    # rather than reading it as regression
    rng = np.random.default_rng(40)
    config = small_config()
    w = init_weights(config, 4, 4, rng)
    ws = StepWorkspace(w)
    x, g, y = one(*make_batch(rng, 6, 4, 4))
    calls = {
        "forward": lambda: forward(ws, x, g, kind, [None]),
        "loss_and_grads": lambda: loss_and_grads(ws, x, g, y, kind, config, streams(0), [None]),
        "inner_update": lambda: inner_update(ws, x, g, y, kind, config, streams(0), [None]),
        "fine_tune": lambda: fine_tune([w], kind, (x[0], g[0], y[0]), (), config, streams(0)),
    }
    with pytest.raises(ConfigError, match="unknown task kind"):
        calls[primitive]()


def test_once_per_step_check_keeps_each_folds_first_failure():
    # a step proves itself healthy with one pass over the norm block and one
    # over the activations and loss; a step that fails walks the layers, so
    # each fold keeps the first message a per-layer check would record
    config = small_config(n_layers=2, hidden_dim=2, embedding_dim=2, activation="relu")
    nets = [init_weights(config, 1, 2, np.random.default_rng(seed)) for seed in range(5)]
    x = np.tile(np.array([[0.5], [1.0]]), (5, 1, 1))
    # fold 0: direction column 1 of extractor layer 1 is zero
    nets[0].extractor[1].v[..., 1] = 0.0
    # fold 1: layer 0 overflows to +inf, which layer 1's negative weights
    # turn into -inf and relu into zeros, so the loss stays finite
    nets[1].extractor[0].v[:] = 1.0
    nets[1].extractor[0].gain[:] = 1e200
    nets[1].extractor[0].bias[:] = 0.0
    nets[1].extractor[1].v[:] = -1.0
    x[1] = 1e200
    # fold 2: the head's output is +inf, which the sigmoid saturates
    nets[2].embeddings[:] = 10.0
    nets[2].head.v[:] = 1.0
    nets[2].head.gain[:] = 1e308
    # fold 3: layer 0's columns have finite norms 1e154, but the L2 sum of
    # their squares (2e308) overflows
    nets[3].extractor[0].v[:] = 1e154
    g = np.tile([0, 1], (5, 1))
    y = np.tile([0.0, 1.0], (5, 1))
    errors = [None] * 5
    losses, _ = loss_and_grads(
        StepWorkspace(stack_weights(nets)), x, g, y, "classification", config,
        streams(*range(5)), errors,
    )
    assert [None if e is None else str(e) for e in errors] == [
        "extractor layer 1: degenerate dense layer: direction column 1 has zero norm",
        "extractor layer 0: dense layer produced non-finite activations",
        "dense layer produced non-finite activations",
        "loss is not finite",
        None,
    ]
    # a check of the loss alone would miss folds 1 and 2, also in a stack
    # whose every loss is finite
    assert np.isfinite(losses[[1, 2, 4]]).all() and not np.isfinite(losses[3])
    errors = [None] * 3
    keep = [1, 2, 4]
    loss_and_grads(
        StepWorkspace(stack_weights([nets[f] for f in keep])), x[keep], g[keep], y[keep],
        "classification", config, streams(*keep), errors,
    )
    assert [None if e is None else str(e) for e in errors] == [
        "extractor layer 0: dense layer produced non-finite activations",
        "dense layer produced non-finite activations",
        None,
    ]
    [loss], _ = loss_and_grads(
        StepWorkspace(nets[4]), x[4:], g[4:], y[4:], "classification", config, streams(4), [None]
    )
    assert losses[4] == loss


def test_untouched_embedding_rows_have_zero_gradient():
    rng = np.random.default_rng(11)
    config = small_config(reg_kind="both", reg_strength=1e-2)
    w = init_weights(config, 3, 4, rng)
    x, g, y = make_batch(rng, 8, 3, 4, exclude_group=2)
    _, grads = loss_and_grads(
        StepWorkspace(w), *one(x, g, y), "regression", config, streams(0), [None]
    )
    [demb] = grads.embeddings
    assert np.all(demb[2] == 0.0)
    assert np.any(demb[0] != 0.0)


def test_loss_and_grads_zero_output_is_stationary():
    # head gain, bias and embeddings 0 give predictions 0; with y = 0 and no
    # regularization, loss and every gradient entry vanish
    rng = np.random.default_rng(18)
    config = small_config(reg_strength=0.0)
    w = init_weights(config, 2, 3, rng)
    w.head.gain[:] = 0.0
    w.head.bias[:] = 0.0
    w.embeddings[:] = 0.0
    [loss], grads = loss_and_grads(
        StepWorkspace(w), *one(np.ones((3, 2)), [0, 1, 2], np.zeros(3)), "regression", config,
        streams(0), [None],
    )
    assert loss == 0.0
    assert grads.values.shape == w.values.shape
    assert np.all(grads.values == 0.0)


def test_loss_and_grads_rejects_empty_batch():
    rng = np.random.default_rng(19)
    config = small_config()
    w = init_weights(config, 2, 2, rng)
    with pytest.raises(DataError):
        loss_and_grads(
            StepWorkspace(w), *one(np.zeros((0, 2)), np.zeros(0), np.zeros(0)), "regression",
            config, streams(0), [None],
        )


def test_loss_and_grads_reports_nonfinite_layer():
    # layer 0 stays finite (1e300); layer 1 overflows to inf and is named
    config = small_config(n_layers=2, hidden_dim=1, activation="relu")
    w = init_weights(config, 1, 2, np.random.default_rng(20))
    for layer, gain in zip(w.extractor, (1e150, 1e20)):
        layer.v[:] = 1.0
        layer.gain[:] = gain
        layer.bias[:] = 0.0
    errors = [None]
    loss_and_grads(
        StepWorkspace(w), *one([[1e150]], [0], [0.0]), "regression", config, streams(0), errors
    )
    assert isinstance(errors[0], NumericError)
    assert str(errors[0]) == "extractor layer 1: dense layer produced non-finite activations"


# ---------------------------------------------------------------------------
# inner update (the k-shot operator)
# ---------------------------------------------------------------------------


def test_inner_update_zero_lr_is_identity():
    rng = np.random.default_rng(12)
    config = small_config(learning_rate=0.0)
    w = init_weights(config, 3, 2, rng)
    out = updated(w, *one(*make_batch(rng, 5, 3, 2)), "regression", config, streams(0), [None])
    assert np.array_equal(out.values, w.values)


def test_inner_update_single_step_matches_hand_sgd():
    # one-unit network: extractor 1x1 identity-ish via tanh? use linear head only.
    # Simplest checkable case: relu extractor with positive pre-activations acts
    # linearly, so a single SGD step equals parameters - lr * analytic gradient.
    rng = np.random.default_rng(13)
    config = small_config(
        n_layers=1, hidden_dim=2, embedding_dim=2, optimizer="sgd",
        learning_rate=0.1, inner_iterations=1, reg_strength=0.0, dropout_rate=0.0,
    )
    w = init_weights(config, 2, 2, rng)
    data = one(rng.normal(size=(4, 2)), [0, 1, 0, 1], rng.normal(size=4))
    _, grads = loss_and_grads(StepWorkspace(w), *data, "regression", config, streams(0), [None])
    expected = w.values - 0.1 * grads.values
    out = updated(w, *data, "regression", config, streams(0), [None])
    assert np.allclose(out.values, expected, atol=1e-12)


def test_inner_update_reduces_convex_loss():
    rng = np.random.default_rng(14)
    config = small_config(
        n_layers=1, hidden_dim=3, optimizer="sgd", learning_rate=0.01,
        inner_iterations=5, reg_strength=0.0,
    )
    w = init_weights(config, 2, 2, rng)
    data = one(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), rng.normal(size=20))
    batch = (*data, "regression", config, streams(0), [None])
    ws = StepWorkspace(w)
    [loss0], _ = loss_and_grads(ws, *batch)
    inner_update(ws, *data, "regression", config, streams(0), [None])
    [loss1], _ = loss_and_grads(ws, *batch)
    assert loss1 <= loss0


def test_inner_update_does_not_mutate_input():
    rng = np.random.default_rng(15)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    before = w.values.copy()
    data = one(*make_batch(rng, 6, 3, 2))
    inner_update(StepWorkspace(w), *data, "regression", config, streams(0), [None])
    assert np.array_equal(w.values, before)


def test_inner_update_is_pure_given_seed():
    rng = np.random.default_rng(16)
    config = small_config(dropout_rate=0.1)
    w = init_weights(config, 3, 2, rng)
    data = one(*make_batch(rng, 6, 3, 2))
    a = updated(w, *data, "regression", config, streams(7), [None])
    b = updated(w, *data, "regression", config, streams(7), [None])
    assert np.array_equal(a.values, b.values)


def test_plain_training_never_touches_held_out_embedding():
    # the motivating failure of the plain base-learner: an unused group's
    # embedding row stays bitwise at its initialization
    rng = np.random.default_rng(17)
    g_star = 2
    for optimizer in ("sgd", "adam"):
        config = small_config(
            optimizer=optimizer, reg_kind="both", reg_strength=1e-3,
            dropout_rate=0.1, inner_iterations=4,
        )
        w = init_weights(config, 3, 3, rng)
        frozen = w.embeddings[0, g_star].copy()
        ws = StepWorkspace(w)
        current = ws.net
        for step in range(3):
            data = one(*make_batch(rng, 7, 3, 3, exclude_group=g_star))
            inner_update(ws, *data, "regression", config, streams(step), [None])
        assert np.array_equal(current.embeddings[0, g_star], frozen)
        assert not np.array_equal(current.embeddings[0, 0], w.embeddings[0, 0])


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_off_grid_fields_flagging():
    assert off_grid_fields(BaseLearnerConfig()) == []
    config = BaseLearnerConfig(hidden_dim=24, dropout_rate=0.15)
    assert set(off_grid_fields(config)) == {"hidden_dim", "dropout_rate"}


def test_config_validation():
    with pytest.raises(ConfigError):
        BaseLearnerConfig(activation="sigmoid")
    with pytest.raises(ConfigError):
        BaseLearnerConfig(reg_kind="l3")
    with pytest.raises(ConfigError):
        BaseLearnerConfig(dropout_rate=1.0)
    with pytest.raises(ConfigError):
        BaseLearnerConfig(dropout_rate=-0.1)


def test_every_published_grid_network_is_under_the_weight_cap(monkeypatch):
    # a network's size grows with each field, so the grids' largest values
    # bound every candidate; 1,000 features and 100 groups are generous
    space = SearchSpace()
    config = BaseLearnerConfig(
        n_layers=max(space.n_layers), hidden_dim=max(space.hidden_dim),
        embedding_dim=max(space.embedding_dim),
    )
    w = init_weights(config, 1000, 100, np.random.default_rng(0))
    assert w.values.size <= base_learner.MAX_WEIGHTS
    # the count checked is the count drawn: one weight under it is refused
    monkeypatch.setattr(base_learner, "MAX_WEIGHTS", w.values.size - 1)
    with pytest.raises(ConfigError, match=f"network of {w.values.size} weights"):
        init_weights(config, 1000, 100, np.random.default_rng(0))


@pytest.mark.parametrize(("n_features", "n_groups", "message"), [
    (0, 3, "at least one input feature"),
    (3, 1, "at least two treatment groups"),
])
def test_init_weights_refuses_an_empty_layout_before_drawing(n_features, n_groups, message):
    # a network with no input feature would divide by zero as its first
    # layer is scaled; like one group too few, it is refused before any draw
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match=message):
        init_weights(BaseLearnerConfig(), n_features, n_groups, rng)
    assert rng.bit_generator.state == state
