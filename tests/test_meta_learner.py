import copy
import warnings
from dataclasses import replace

import numpy as np
import pytest

from metatreat.base_learner import (
    BaseLearnerConfig,
    StepWorkspace,
    forward,
    init_weights,
    stack_weights,
)
from metatreat.data_model import (
    PreprocessConfig,
    fit_preprocess,
    group_holdout_split,
    model_input_columns,
    model_inputs,
    task_dataset,
    withhold_targets,
)
from metatreat import meta_learner
from metatreat.errors import ConfigError, DataError, NumericError
from metatreat.meta_learner import (
    MetaConfig,
    draw_tables,
    epsilon_schedule,
    fine_tune,
    meta_step,
    meta_train,
    sample_task_batch,
)
from metatreat.synth_gen import GeneratorConfig, generate
from metatreat.task_selection import SelectionConfig, select_training_tasks

BASE = BaseLearnerConfig(
    n_layers=2, hidden_dim=8, embedding_dim=4, activation="tanh",
    dropout_rate=0.05, reg_kind="l2", reg_strength=1e-4,
    optimizer="sgd", learning_rate=0.05, inner_iterations=2,
)


def small_study(seed=0, n_per_group=12, g_star="g2"):
    config = GeneratorConfig(
        n_groups=3, n_per_group=n_per_group, d_pre=3, d_aux=4,
        delta=(-1.0, 0.0, 1.0), noise_sigma=0.5, seed=seed,
    )
    table, manifest, _ = generate(config)
    gid = table.resolve_group(g_star)
    _, processed = fit_preprocess(
        table, table.group_ids != gid, PreprocessConfig(scaling="standardize"), ()
    )
    train_table, test_table = group_holdout_split(processed, g_star)
    tasks = select_training_tasks(train_table, ["y"], SelectionConfig("all_post"))
    return train_table, withhold_targets(test_table), test_table, tasks


# ---------------------------------------------------------------------------
# epsilon schedule
# ---------------------------------------------------------------------------


def test_epsilon_starts_at_epsilon0():
    assert epsilon_schedule(0, 40, 0.75) == 0.75


def test_epsilon_halves_at_midpoint():
    assert epsilon_schedule(10, 20, 0.5) == pytest.approx(0.25)


def test_epsilon_last_iteration_value():
    assert epsilon_schedule(19, 20, 0.5) == pytest.approx(0.025)
    assert epsilon_schedule(19, 20, 0.5) == 0.5 / 20  # exact endpoint


def test_epsilon_strictly_decreasing_and_positive():
    eps = [epsilon_schedule(t, 30, 0.25) for t in range(30)]
    assert all(a > b for a, b in zip(eps, eps[1:]))
    assert eps[0] == 0.25 and eps[-1] == 0.25 / 30
    assert all(e > 0 for e in eps)


def test_epsilon_rejects_out_of_range():
    with pytest.raises(ConfigError):
        epsilon_schedule(20, 20, 0.5)


# ---------------------------------------------------------------------------
# task batch sampling
# ---------------------------------------------------------------------------


def sample(study, k, rng):
    """One draw from a study's split, from draw tables of its own."""
    train_table, masked_test, _, tasks = study
    return sample_task_batch(draw_tables(train_table, masked_test, tasks), k, rng)


def test_sample_sizes_k_per_group():
    (_, _, train_y), (_, _, finetune_y) = sample(small_study(), 5, np.random.default_rng(0))
    assert len(train_y) == 10  # 2 training groups x k
    assert len(finetune_y) == 5  # one held-out group x k


def test_finetune_rows_come_from_held_out_group_only():
    (_, train_g, _), (_, finetune_g, _) = sample(small_study(), 4, np.random.default_rng(1))
    assert set(finetune_g) == {2}
    assert set(train_g) == {0, 1}


def test_sampling_is_deterministic_per_seed():
    study = small_study()
    a = sample(study, 5, np.random.default_rng(3))
    b = sample(study, 5, np.random.default_rng(3))
    for side_a, side_b in zip(a, b, strict=True):
        assert [arr.tobytes() for arr in side_a] == [arr.tobytes() for arr in side_b]


def test_small_group_samples_with_replacement():
    # 3 rows per group, k 5: each group's 5 draws repeat some of its rows
    study = small_study(n_per_group=3)
    (_, train_g, _), (_, finetune_g, finetune_y) = sample(study, 5, np.random.default_rng(0))
    assert len(finetune_y) == 5
    assert np.bincount(train_g).tolist() == [5, 5]
    assert np.bincount(finetune_g).tolist() == [0, 0, 5]


def test_sampling_from_kept_draw_tables_draws_the_same_rows():
    study = train_table, masked_test, _, tasks = small_study()
    fresh, kept = np.random.default_rng(8), np.random.default_rng(8)
    sides = draw_tables(train_table, masked_test, tasks)
    for _ in range(12):
        # the first number a draw takes from its stream picks its column
        column = tasks[int(copy.deepcopy(kept).integers(len(tasks)))]
        a = sample(study, 4, fresh)
        b = sample_task_batch(sides, 4, kept)
        for side, table in enumerate((train_table, masked_test)):
            # the same inputs, group ids and labels, each row one of the
            # drawn column's observed rows
            assert [arr.tobytes() for arr in a[side]] == [arr.tobytes() for arr in b[side]]
            _, full = task_dataset(table, model_inputs(table), column, "regression")
            observed = {(x.tobytes(), g, y) for x, g, y in zip(*full)}
            assert all(row in observed for row in zip(
                (x.tobytes() for x in b[side][0]), b[side][1], b[side][2]
            ))


def test_draw_tables_keep_one_table_per_side():
    train_table, masked_test, _, tasks = small_study()
    sides = draw_tables(train_table, masked_test, tasks)
    assert len(tasks) > 1 and len(sides) == 2
    for (inputs, group_ids, labels, groups), table in zip(sides, (train_table, masked_test)):
        # one input matrix and one column per task
        assert inputs.tobytes() == model_inputs(table).tobytes()
        assert group_ids is table.group_ids
        columns = [table.column_index(name) for name in tasks]
        assert labels.tobytes() == table.values[:, columns].tobytes()
        assert [pos.tolist() for pos in groups] == [
            np.flatnonzero(table.group_ids == gid).tolist() for gid in np.unique(table.group_ids)
        ]


def test_draw_tables_reject_leaky_test_table():
    train_table, _, leaky_test, tasks = small_study()
    with pytest.raises(DataError, match="withhold"):
        draw_tables(train_table, leaky_test, tasks)


def test_draw_tables_refuse_a_training_task_with_a_gap():
    # training group g0 lacks one value of the second training task
    train_table, masked_test, _, tasks = small_study()
    missing = train_table.missing_mask.copy()
    g0_row = np.flatnonzero(train_table.group_ids == train_table.resolve_group("g0"))[0]
    missing[g0_row, train_table.column_index(tasks[1])] = True
    gapped = train_table.replace_matrix(train_table.columns, train_table.values, missing)
    with pytest.raises(DataError, match=f"^training task {tasks[1]!r} has missing cells"):
        draw_tables(gapped, masked_test, tasks)


def test_sampled_task_is_always_a_training_task():
    train_table, masked_test, _, tasks = small_study()
    rng, sides = np.random.default_rng(5), draw_tables(train_table, masked_test, tasks)
    for _ in range(10):
        # the first number a draw takes from its stream picks its column
        column = tasks[int(copy.deepcopy(rng).integers(len(tasks)))]
        for (_, _, y), table in zip(sample_task_batch(sides, 3, rng), (train_table, masked_test)):
            assert set(y) <= set(table.column_values(column)[0])


# ---------------------------------------------------------------------------
# meta step algebra
# ---------------------------------------------------------------------------


def _stack_and_batch(lr=0.05, seed=0):
    """A one-fold stack as ``meta_train`` steps it, the fold's network, the
    fold's first batch as ``meta_step`` takes it, the config and the fold's
    stream."""
    train_table, masked_test, _, tasks = small_study()
    config = BaseLearnerConfig(
        n_layers=1, hidden_dim=4, embedding_dim=3, activation="tanh",
        dropout_rate=0.0, reg_strength=0.0, optimizer="sgd",
        learning_rate=lr, inner_iterations=2,
    )
    rng = np.random.default_rng(seed)
    theta = init_weights(config, 3, 3, rng)
    batch = sample_task_batch(draw_tables(train_table, masked_test, tasks), 4, rng)
    stacked = tuple(tuple(arr[None] for arr in side) for side in batch)
    return stack_weights([theta]), theta, stacked, config, rng


def test_meta_step_eps1_returns_adapted_weights_bitwise():
    stack, theta, stacked, config, rng = _stack_and_batch()
    from metatreat.base_learner import inner_update

    # dropout is 0 here, so inner updates never consume the rng stream and
    # the train-then-fine-tune weights can be recomputed independently
    expected = StepWorkspace(theta)
    for x, g, y in stacked:
        inner_update(expected, x, g, y, "regression", config, (np.random.default_rng(0),), [None])
    assert meta_step(stack, StepWorkspace(stack), [stacked], 1.0, config, (rng,), [None]) is None
    # epsilon 1.0 -> theta equals the adapted weights
    assert np.array_equal(stack.values, expected.net.values)


def test_meta_step_zero_lr_leaves_theta_constant():
    stack, theta, stacked, config, rng = _stack_and_batch(lr=0.0)
    meta_step(stack, StepWorkspace(stack), [stacked], 1.0, config, (rng,), [None])
    assert np.array_equal(stack.values, theta.values)


# ---------------------------------------------------------------------------
# meta train / test
# ---------------------------------------------------------------------------


def seeded_init(seed):
    """A fold's stream and the initial weights drawn first from it."""
    rng = np.random.default_rng(seed)
    return rng, init_weights(BASE, 3, 3, rng)


def train_one(train_table, masked_test, tasks, meta, seed, theta0=None):
    """``meta_train`` on one fold: its weights or the error that stopped it.
    Without ``theta0`` the loop continues the stream that drew its weights;
    with it, the loop runs on a fresh stream of ``seed``."""
    if theta0 is None:
        rng, theta0 = seeded_init(seed)
    else:
        rng = np.random.default_rng(seed)
    sides = draw_tables(train_table, masked_test, tasks)
    return meta_train([sides], BASE, meta, [rng], [theta0])[0]


def test_meta_train_zero_iterations_returns_seeded_init():
    train_table, masked_test, _, tasks = small_study()
    meta = MetaConfig(meta_iterations=0)
    theta = train_one(train_table, masked_test, tasks, meta, seed=11)
    rng = np.random.default_rng(11)
    expected = init_weights(BASE, 3, 3, rng)
    assert np.array_equal(theta.values, expected.values)


def test_meta_train_touches_held_out_embedding():
    train_table, masked_test, _, tasks = small_study()
    meta = MetaConfig(meta_iterations=8, epsilon0=0.5, k=4)
    rng = np.random.default_rng(21)
    theta0 = init_weights(BASE, 3, 3, rng)
    theta = train_one(train_table, masked_test, tasks, meta, seed=21, theta0=theta0)
    assert not np.array_equal(theta.embeddings[0, 2], theta0.embeddings[0, 2])


def test_meta_train_is_deterministic():
    train_table, masked_test, _, tasks = small_study()
    meta = MetaConfig(meta_iterations=5, k=4, tasks_per_iteration=2)
    a = train_one(train_table, masked_test, tasks, meta, seed=3)
    b = train_one(train_table, masked_test, tasks, meta, seed=3)
    assert np.array_equal(a.values, b.values)


def test_meta_train_draws_meta_config_k_rows_per_group_and_side(monkeypatch):
    # 3 rows per group and k 2: every draw holds 2 rows of each group on
    # each side, without repeating a row, and nothing warns
    train_table, masked_test, _, tasks = small_study(n_per_group=3)
    draws = []
    real = meta_learner.sample_task_batch

    def recorded(*args):
        draws.append(real(*args))
        return draws[-1]

    monkeypatch.setattr(meta_learner, "sample_task_batch", recorded)
    meta = MetaConfig(meta_iterations=2, k=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        train_one(train_table, masked_test, tasks, meta, seed=0)
    assert caught == []
    assert len(draws) == meta.meta_iterations * meta.tasks_per_iteration
    for (x, train_g, _), (_, finetune_g, _) in draws:
        assert np.bincount(train_g).tolist() == [2, 2]
        assert np.bincount(finetune_g).tolist() == [0, 0, 2]
        assert len({row.tobytes() for row in x}) == len(x)


def _meta_test_setup(kind="regression", seed=5):
    """A study, the target task's kind and training rows, and the two
    networks a fold meta-tests: a random initialization and a meta-trained
    one."""
    train_table, masked_test, _, tasks = small_study()
    theta0 = init_weights(BASE, 3, 3, np.random.default_rng(seed))
    theta = train_one(train_table, masked_test, tasks, MetaConfig(meta_iterations=4, k=4), seed)
    _, data = task_dataset(train_table, model_inputs(train_table), "y", kind)
    return train_table, masked_test, kind, data, [theta0, theta]


def rows_of(*tables):
    """Each table's inputs and group ids, as ``fine_tune`` predicts on them."""
    return [(model_inputs(table), table.group_ids) for table in tables]


def _streams(n=2):
    return [np.random.default_rng(100 + i) for i in range(n)]


def test_meta_test_prediction_count_and_range():
    train_table, masked_test, kind, data, networks = _meta_test_setup("classification")
    inputs = rows_of(masked_test, train_table)
    preds = fine_tune(networks, kind, data, inputs, BASE, _streams())
    assert [p.shape for p in preds] == [(2, masked_test.n_rows), (2, train_table.n_rows)]
    assert all(np.all((p > 0.0) & (p < 1.0)) for p in preds)


def test_fine_tune_standardizes_regression_labels():
    # without a step, a prediction is the network's output mapped back
    # through the labels' mean and standard deviation
    train_table, masked_test, kind, data, networks = _meta_test_setup()
    still = replace(BASE, learning_rate=0.0)
    [preds] = fine_tune(networks, kind, data, rows_of(masked_test), still, _streams())
    vals, obs = train_table.column_values("y")
    x = model_inputs(masked_test)
    for net, row in zip(networks, preds):
        ws = StepWorkspace(net)
        [raw] = forward(ws, x[None], masked_test.group_ids[None], "regression", [None])
        assert row.tobytes() == (raw * float(vals[obs].std()) + float(vals[obs].mean())).tobytes()


@pytest.mark.parametrize("kind", ["regression", "classification"])
def test_stacked_meta_test_matches_each_network_alone(kind):
    train_table, masked_test, kind, data, networks = _meta_test_setup(kind)
    inputs = rows_of(masked_test, train_table)
    stacked = fine_tune(networks, kind, data, inputs, BASE, _streams())
    for n, net in enumerate(networks):
        alone = fine_tune([net], kind, data, inputs, BASE, [np.random.default_rng(100 + n)])
        for both, one in zip(stacked, alone):
            assert both[n].tobytes() == one[0].tobytes()


def _zero_column(net, layer):
    """A copy of ``net`` whose extractor layer ``layer`` has a zero-norm
    direction column, which fails the first pass through it."""
    [broken] = stack_weights([net]).unstack()
    broken.extractor[layer].v[..., 0] = 0.0
    return broken


def _nan_row(table):
    """``table`` with a NaN input in its first row: every network's forward
    pass over it fails at extractor layer 0."""
    values = table.values.copy()
    values[0, table.column_index(model_input_columns(table)[0])] = np.nan
    return table.replace_matrix(table.columns, values, table.missing_mask)


def _first_failure(networks, kind, data, inputs, base, streams):
    with pytest.raises(NumericError) as caught:
        fine_tune(networks, kind, data, inputs, base, streams)
    return str(caught.value)


@pytest.mark.parametrize("where", ["fine-tune", "first prediction", "second prediction"])
def test_base_initial_failure_is_raised_before_meta_failure(where):
    # base_initial fails in its fine-tune, in the first table's prediction
    # (no step is taken) or only in the second's; meta fails earlier in
    # layer order, or earlier in time. The stack raises base_initial's
    # message, the one it raises alone
    train_table, masked_test, kind, data, (theta0, theta) = _meta_test_setup()
    networks = [_zero_column(theta0, 1), _zero_column(theta, 0)]
    inputs, base = rows_of(masked_test, train_table), BASE
    if where == "first prediction":
        base = replace(BASE, learning_rate=0.0)
    elif where == "second prediction":
        networks[0], inputs = theta0, rows_of(masked_test, _nan_row(train_table))
    message = _first_failure(networks, kind, data, inputs, base, _streams())
    alone = _first_failure(networks[:1], kind, data, inputs, base, _streams(1))
    assert message == alone
    assert message != _first_failure(
        networks[1:], kind, data, inputs, base, [np.random.default_rng(101)]
    )


def test_meta_failure_alone_raises_its_message():
    train_table, masked_test, kind, data, (theta0, theta) = _meta_test_setup()
    networks = [theta0, _zero_column(theta, 0)]
    inputs = rows_of(masked_test, train_table)
    message = _first_failure(networks, kind, data, inputs, BASE, _streams())
    assert message == "extractor layer 0: degenerate dense layer: direction column 0 has zero norm"
    fine_tune(networks[:1], kind, data, inputs, BASE, _streams(1))


# ---------------------------------------------------------------------------
# lockstep folds
# ---------------------------------------------------------------------------


def _three_folds():
    studies = [small_study(seed=s, g_star=g) for s, g in ((0, "g0"), (1, "g1"), (2, "g2"))]
    return [s[0] for s in studies], [s[1] for s in studies], [s[3] for s in studies]


def _sides(trains, tests, task_sets):
    """Each fold's draw tables, as ``meta_train`` takes them."""
    return [draw_tables(*fold) for fold in zip(trains, tests, task_sets)]


def test_lockstep_meta_train_matches_each_fold_alone():
    trains, tests, task_sets = _three_folds()
    meta = MetaConfig(meta_iterations=5, k=4, tasks_per_iteration=2)
    seeds = [10, 11, 12]
    rngs, thetas = zip(*map(seeded_init, seeds))
    stacked = meta_train(_sides(trains, tests, task_sets), BASE, meta, rngs, thetas)
    for f, seed in enumerate(seeds):
        alone = train_one(trains[f], tests[f], task_sets[f], meta, seed=seed)
        assert stacked[f].values.tobytes() == alone.values.tobytes()


def test_lockstep_failure_stops_the_later_folds_only():
    # fold 1 starts with a zero-norm direction column: it fails at its first
    # step, fold 2 stops with it as a serial run would, fold 0 runs on
    trains, tests, task_sets = _three_folds()
    meta = MetaConfig(meta_iterations=4, k=4)
    thetas = [init_weights(BASE, 3, 3, np.random.default_rng(s)) for s in range(3)]
    thetas[1].extractor[1].v[..., 0] = 0.0
    rngs = [np.random.default_rng(s) for s in (5, 6, 7)]
    results = meta_train(_sides(trains, tests, task_sets), BASE, meta, rngs, thetas)
    message = "extractor layer 1: degenerate dense layer: direction column 0 has zero norm"
    assert isinstance(results[1], NumericError) and str(results[1]) == message
    assert results[2] is results[1]
    alone = train_one(trains[0], tests[0], task_sets[0], meta, 5, thetas[0])
    assert results[0].values.tobytes() == alone.values.tobytes()
    failed = train_one(trains[1], tests[1], task_sets[1], meta, 6, thetas[1])
    assert isinstance(failed, NumericError) and str(failed) == message
