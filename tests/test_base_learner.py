import numpy as np
import pytest

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
from metatreat.data_model import TaskData
from metatreat.errors import ConfigError, DataError, NumericError
from metatreat.eval_harness import off_grid_fields
from metatreat.nn_core import loss_value, optimizer_step
from metatreat.task_selection import TaskSpec
from oracles import central_diff, fresh_optimizer, max_rel_error, reference_loss_and_grads

REG_TASK = TaskSpec("t", "regression", "training_task")
CLS_TASK = TaskSpec("t", "classification", "target_task")


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
    out = forward(w, x, np.array([0, 1]), config)
    assert out[0] != out[1]  # same features, different embeddings


def test_forward_zero_embeddings_and_head_give_zero():
    rng = np.random.default_rng(1)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    w.embeddings[:] = 0.0
    w.head.gain[:] = 0.0
    w.head.bias[:] = 0.0
    out = forward(w, rng.normal(size=(4, 3)), np.zeros(4, dtype=int), config)
    assert np.all(out == 0.0)


def test_forward_eval_mode_deterministic():
    rng = np.random.default_rng(2)
    config = small_config(dropout_rate=0.2)
    w = init_weights(config, 3, 2, rng)
    x = rng.normal(size=(5, 3))
    g = rng.integers(0, 2, 5)
    a = forward(w, x, g, config)
    b = forward(w, x, g, config)
    assert np.array_equal(a, b)


def test_forward_sigmoid_outputs_in_unit_interval():
    rng = np.random.default_rng(3)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    out = forward(w, rng.normal(size=(10, 3)), rng.integers(0, 2, 10), config, kind="classification")
    assert np.all((out > 0.0) & (out < 1.0))


def test_forward_unknown_group_rejected():
    rng = np.random.default_rng(4)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    with pytest.raises(DataError):
        forward(w, rng.normal(size=(1, 3)), np.array([5]), config)


def test_forward_respects_batch_decomposition():
    rng = np.random.default_rng(5)
    config = small_config()
    w = init_weights(config, 4, 3, rng)
    x = rng.normal(size=(7, 4))
    g = rng.integers(0, 3, 7)
    batch = forward(w, x, g, config)
    single = np.array([forward(w, x[i : i + 1], g[i : i + 1], config)[0] for i in range(7)])
    assert np.allclose(batch, single, atol=1e-12)


def test_forward_eval_mode_ignores_dropout():
    rng = np.random.default_rng(6)
    w = init_weights(small_config(dropout_rate=0.7), 3, 2, rng)
    x = rng.normal(size=(5, 3))
    g = rng.integers(0, 2, 5)
    dropped = forward(w, x, g, small_config(dropout_rate=0.7))
    assert np.array_equal(dropped, forward(w, x, g, small_config(dropout_rate=0.0)))


# ---------------------------------------------------------------------------
# one flat parameter vector with named views
# ---------------------------------------------------------------------------


def test_named_views_alias_values_and_clone_copies():
    rng = np.random.default_rng(8)
    w = init_weights(small_config(), 3, 3, rng)
    views = [arr for layer in w.extractor for arr in (layer.v, layer.gain, layer.bias)]
    views += [w.embeddings, w.head.v, w.head.gain, w.head.bias]
    assert [view.shape for view in views] == [shape for _, shape in w.layout]
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
    _, grads = loss_and_grads(w, x, g, y, kind, config)

    l1, l2 = config.l1_l2()
    active = np.unique(g)

    def loss_fn(flat_values):
        cand = BaseLearnerWeights(flat_values, w.layout, w.activations)
        pred = forward(cand, x, g, config, kind=kind)
        lk = "binary_cross_entropy" if kind == "classification" else "mse"
        total = loss_value(pred[None], y[None], lk)[0]
        for mat in [layer.v for layer in cand.extractor] + [cand.head.v, cand.embeddings[active]]:
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
        loss, grads = loss_and_grads(w, x, g, y, kind, config, rng=np.random.default_rng(seed))
        ref_loss, ref_grads = reference_loss_and_grads(
            w, x, g, y, kind, config, rng=np.random.default_rng(seed)
        )
        assert loss == ref_loss
        assert grads.values.tobytes() == ref_grads.values.tobytes()
        assert not np.shares_memory(grads.values, w.values)
        assert w.values.tobytes() == before.tobytes()


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
def test_inner_update_matches_unfused_reference_bitwise(optimizer):
    rng = np.random.default_rng(31)
    config = small_config(
        optimizer=optimizer, activation="relu", reg_kind="both", dropout_rate=0.2,
        inner_iterations=4,
    )
    w = init_weights(config, 3, 3, rng)
    data = TaskData(*make_batch(rng, 8, 3, 3), np.arange(8))
    out = inner_update(w, data, REG_TASK, config, np.random.default_rng(9))
    expected = BaseLearnerWeights(w.values.copy(), w.layout, w.activations)
    state = fresh_optimizer(optimizer, config.learning_rate, w.values.size)
    step_rng = np.random.default_rng(9)
    for _ in range(config.inner_iterations):
        _, grads = reference_loss_and_grads(
            expected, data.x, data.group_ids, data.y, "regression", config, rng=step_rng
        )
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
    streams = tuple(np.random.default_rng(seed) for seed in range(3))
    stack = stack_weights(nets)
    losses, grads = loss_and_grads(stack, x, g, y, kind, config, rng=streams)
    grads = per_fold(grads)
    assert grads.shape == (3, nets[0].values.size)
    for f, net in enumerate(nets):
        loss, grad = loss_and_grads(net, *batches[f], kind, config, rng=np.random.default_rng(f))
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
    return batches, TaskData(x, g, y, np.zeros(g.shape, dtype=int))


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
        assert np.array_equal(stack.head.v[f], net.head.v)
        assert np.array_equal(stack.extractor[0].gain[f], net.extractor[0].gain)
    assert [net.values.tobytes() for net in stack.unstack()] == [
        net.values.tobytes() for net in nets
    ]
    # a stack of one has one network's bytes
    assert stack_weights(nets[:1]).values.tobytes() == nets[0].values.tobytes()


def test_update_of_a_workspace_stack_steps_it_in_place():
    # an update leaves its input stack as it was, unless that stack is the
    # workspace's own, which it steps in place to the bits a copy would get
    rng = np.random.default_rng(36)
    config = small_config(dropout_rate=0.2, optimizer="adam")
    theta = stack_weights([init_weights(config, 4, 4, rng) for _ in range(3)])
    before = theta.values.copy()
    _, data = stacked_task(rng, 3)
    tasks = (REG_TASK,) * 3
    workspace = StepWorkspace(theta)
    streams = lambda: tuple(map(np.random.default_rng, (5, 6, 7)))  # noqa: E731
    out = inner_update(theta, data, tasks, config, streams(), workspace=workspace)
    assert theta.values.tobytes() == before.tobytes()
    copy = stack_weights(out.unstack())
    assert inner_update(out, data, tasks, config, streams(), workspace=workspace) is out
    expected = inner_update(copy, data, tasks, config, streams())
    assert out.values.tobytes() == expected.values.tobytes()


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
        y[fitted] = forward(net, x, g, config)[fitted]
        batches.append((x, g, y))
    x, g, y = (np.stack(parts) for parts in zip(*batches))
    stack = stack_weights(nets)
    _, grads = loss_and_grads(stack, x, g, y, "regression", config)
    got = per_fold(grads)
    for f, net in enumerate(nets):
        _, expected = reference_loss_and_grads(net, *batches[f], "regression", config)
        assert got[f].tobytes() == expected.values.tobytes()
        fitted_group = batches[f][1][0]
        assert not expected.embeddings[fitted_group].any()


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
    streams = tuple(CountingStream(seed) for seed in range(3))
    out = per_fold(inner_update(stack_weights(nets), data, (REG_TASK,) * 3, config, streams))
    assert [s.calls for s in streams] == [config.inner_iterations] * 3
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
        assert streams[f].stream.random() == reference.random()


def test_step_workspace_never_aliases_results():
    rng = np.random.default_rng(34)
    config = small_config(dropout_rate=0.2, optimizer="adam")
    w = init_weights(config, 4, 4, rng)
    x, g, y = make_batch(rng, 9, 4, 4)
    _, first = loss_and_grads(w, x, g, y, "regression", config, rng=np.random.default_rng(0))
    kept = first.values.copy()
    _, second = loss_and_grads(w, x, g, -y, "regression", config, rng=np.random.default_rng(0))
    assert not np.shares_memory(first.values, second.values)
    assert first.values.tobytes() == kept.tobytes()

    # updates that share one workspace return its stack, and match updates
    # that each had a fresh one
    theta = stack_weights([init_weights(config, 4, 4, rng) for _ in range(2)])
    workspace = StepWorkspace(theta)
    tasks = (REG_TASK,) * 2
    _, data = stacked_task(rng, 2)
    _, other = stacked_task(rng, 2, n_rows=5)
    inner_update(theta, data, tasks, config, tuple(map(np.random.default_rng, (1, 2))),
                 workspace=workspace)
    later = inner_update(theta, other, tasks, config, tuple(map(np.random.default_rng, (3, 4))),
                         workspace=workspace)
    assert later is workspace.net
    fresh = inner_update(theta, other, tasks, config, tuple(map(np.random.default_rng, (3, 4))))
    assert later.values.tobytes() == fresh.values.tobytes()


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
    losses, grads = loss_and_grads(stack, x, g, y, "regression", config, errors=errors)
    grads = per_fold(grads)
    assert errors[0] is None
    assert str(errors[1]) == "extractor layer 1: dense layer produced non-finite activations"
    loss, grad = loss_and_grads(nets[0], x[0], g[0], y[0], "regression", config)
    assert losses[0] == loss and grads[0].tobytes() == grad.values.tobytes()
    # without a record, the first failing fold raises
    with pytest.raises(NumericError, match="extractor layer 1"):
        loss_and_grads(stack_weights(nets), x, g, y, "regression", config)


def test_untouched_embedding_rows_have_zero_gradient():
    rng = np.random.default_rng(11)
    config = small_config(reg_kind="both", reg_strength=1e-2)
    w = init_weights(config, 3, 4, rng)
    x, g, y = make_batch(rng, 8, 3, 4, exclude_group=2)
    _, grads = loss_and_grads(w, x, g, y, "regression", config)
    demb = grads.embeddings
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
    loss, grads = loss_and_grads(
        w, np.ones((3, 2)), np.array([0, 1, 2]), np.zeros(3), "regression", config
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
            w, np.zeros((0, 2)), np.zeros(0, dtype=int), np.zeros(0), "regression", config
        )


def test_loss_and_grads_reports_nonfinite_layer():
    # layer 0 stays finite (1e300); layer 1 overflows to inf and is named
    config = small_config(n_layers=2, hidden_dim=1, activation="relu")
    w = init_weights(config, 1, 2, np.random.default_rng(20))
    for layer, gain in zip(w.extractor, (1e150, 1e20)):
        layer.v[:] = 1.0
        layer.gain[:] = gain
        layer.bias[:] = 0.0
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="extractor layer 1"):
        loss_and_grads(
            w, np.array([[1e150]]), np.array([0]), np.array([0.0]), "regression", config
        )


# ---------------------------------------------------------------------------
# inner update (the k-shot operator)
# ---------------------------------------------------------------------------


def test_inner_update_zero_lr_is_identity():
    rng = np.random.default_rng(12)
    config = small_config(learning_rate=0.0)
    w = init_weights(config, 3, 2, rng)
    data = TaskData(*make_batch(rng, 5, 3, 2), np.arange(5))
    out = inner_update(w, data, REG_TASK, config, np.random.default_rng(0))
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
    data = TaskData(
        rng.normal(size=(4, 2)), np.array([0, 1, 0, 1]), rng.normal(size=4), np.arange(4)
    )
    _, grads = loss_and_grads(w, data.x, data.group_ids, data.y, "regression", config)
    expected = w.values - 0.1 * grads.values
    out = inner_update(w, data, REG_TASK, config, np.random.default_rng(0))
    assert np.allclose(out.values, expected, atol=1e-12)


def test_inner_update_reduces_convex_loss():
    rng = np.random.default_rng(14)
    config = small_config(
        n_layers=1, hidden_dim=3, optimizer="sgd", learning_rate=0.01,
        inner_iterations=5, reg_strength=0.0,
    )
    w = init_weights(config, 2, 2, rng)
    data = TaskData(
        rng.normal(size=(20, 2)), rng.integers(0, 2, 20), rng.normal(size=20), np.arange(20)
    )
    loss0, _ = loss_and_grads(w, data.x, data.group_ids, data.y, "regression", config)
    out = inner_update(w, data, REG_TASK, config, np.random.default_rng(0))
    loss1, _ = loss_and_grads(out, data.x, data.group_ids, data.y, "regression", config)
    assert loss1 <= loss0


def test_inner_update_does_not_mutate_input():
    rng = np.random.default_rng(15)
    config = small_config()
    w = init_weights(config, 3, 2, rng)
    before = w.values.copy()
    data = TaskData(*make_batch(rng, 6, 3, 2), np.arange(6))
    inner_update(w, data, REG_TASK, config, np.random.default_rng(0))
    assert np.array_equal(w.values, before)


def test_inner_update_is_pure_given_seed():
    rng = np.random.default_rng(16)
    config = small_config(dropout_rate=0.1)
    w = init_weights(config, 3, 2, rng)
    data = TaskData(*make_batch(rng, 6, 3, 2), np.arange(6))
    a = inner_update(w, data, REG_TASK, config, np.random.default_rng(7))
    b = inner_update(w, data, REG_TASK, config, np.random.default_rng(7))
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
        frozen = w.embeddings[g_star].copy()
        current = w
        for step in range(3):
            data = TaskData(*make_batch(rng, 7, 3, 3, exclude_group=g_star), np.arange(7))
            current = inner_update(current, data, REG_TASK, config, np.random.default_rng(step))
        assert np.array_equal(current.embeddings[g_star], frozen)
        assert not np.array_equal(current.embeddings[0], w.embeddings[0])


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
