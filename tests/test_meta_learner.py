import numpy as np
import pytest

from metatreat.base_learner import BaseLearnerConfig, StepWorkspace, init_weights, stack_weights
from metatreat.data_model import (
    PreprocessConfig,
    fit_preprocess,
    group_holdout_split,
    model_inputs,
    task_dataset,
    withhold_targets,
)
from metatreat import meta_learner
from metatreat.errors import ConfigError, DataError, NumericError
from metatreat.meta_learner import (
    MetaConfig,
    MetaState,
    TaskCache,
    epsilon_schedule,
    fine_tune,
    meta_step,
    meta_train,
    predict_rows,
    sample_task_batch,
)
from metatreat.synth_gen import GeneratorConfig, generate
from metatreat.task_selection import SelectionConfig, TaskSpec, select_training_tasks

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
    tasks = select_training_tasks(
        train_table,
        [TaskSpec("y", "regression", "target_task")],
        SelectionConfig("all_post"),
    )
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
    """One draw from a study's split, with a task cache of its own."""
    train_table, masked_test, _, tasks = study
    return sample_task_batch(tasks, train_table, masked_test, k, rng, TaskCache())


def test_sample_sizes_k_per_group():
    batch = sample(small_study(), 5, np.random.default_rng(0))
    assert len(batch.train_data.y) == 10  # 2 training groups x k
    assert len(batch.finetune_data.y) == 5  # one held-out group x k


def test_finetune_rows_come_from_held_out_group_only():
    batch = sample(small_study(), 4, np.random.default_rng(1))
    assert set(batch.finetune_data.group_ids) == {2}
    assert set(batch.train_data.group_ids) == {0, 1}


def test_sampling_is_deterministic_per_seed():
    study = small_study()
    a = sample(study, 5, np.random.default_rng(3))
    b = sample(study, 5, np.random.default_rng(3))
    assert a.task == b.task
    assert np.array_equal(a.train_data.row_indices, b.train_data.row_indices)
    assert np.array_equal(a.finetune_data.row_indices, b.finetune_data.row_indices)


def test_small_group_warns_and_samples_with_replacement():
    study = small_study(n_per_group=3)
    with pytest.warns(UserWarning, match="replacement"):
        batch = sample(study, 5, np.random.default_rng(0))
    assert len(batch.finetune_data.y) == 5


def test_sampling_from_a_kept_cache_draws_the_same_rows():
    study = train_table, masked_test, _, tasks = small_study()
    fresh, kept = np.random.default_rng(8), np.random.default_rng(8)
    cache = TaskCache()
    for _ in range(12):
        a = sample(study, 4, fresh)
        b = sample_task_batch(tasks, train_table, masked_test, 4, kept, cache)
        assert a.task == b.task
        for side, table in (("train_data", train_table), ("finetune_data", masked_test)):
            full = task_dataset(table, b.task.column, b.task.kind)
            pos = np.searchsorted(full.row_indices, getattr(b, side).row_indices)
            for name in ("x", "group_ids", "y", "row_indices"):
                want = getattr(full, name)[pos].tobytes()
                assert getattr(getattr(a, side), name).tobytes() == want
                assert getattr(getattr(b, side), name).tobytes() == want
    assert set(cache.tasks) == {(t.column, t.kind) for t in tasks.training}


def test_task_cache_keeps_one_input_matrix_per_side():
    train_table, masked_test, _, tasks = small_study()
    cache, rng = TaskCache(), np.random.default_rng(2)
    for _ in range(20):
        sample_task_batch(tasks, train_table, masked_test, 4, rng, cache)
    assert len(cache.tasks) > 1
    for side, table in enumerate((train_table, masked_test)):
        assert cache.inputs[side].tobytes() == model_inputs(table).tobytes()
        for sides in cache.tasks.values():
            # no per-task copy of the inputs: only 1-D row data besides the shared matrix
            inputs, observed, y, groups = sides[side]
            assert inputs is cache.inputs[side]
            assert observed.ndim == y.ndim == 1 and all(pos.ndim == 1 for _, pos in groups)


def test_sampled_task_is_always_a_training_task():
    train_table, masked_test, _, tasks = small_study()
    names = {t.column for t in tasks.training}
    rng, cache = np.random.default_rng(5), TaskCache()
    for _ in range(10):
        batch = sample_task_batch(tasks, train_table, masked_test, 3, rng, cache)
        assert batch.task.column in names


# ---------------------------------------------------------------------------
# meta step algebra
# ---------------------------------------------------------------------------


def _state_and_batch(eps0=1.0, iterations=1, lr=0.05, seed=0):
    """A one-fold stack as ``meta_train`` steps it, the fold's network, and
    the fold's first batch, stacked and alone."""
    train_table, masked_test, _, tasks = small_study()
    config = BaseLearnerConfig(
        n_layers=1, hidden_dim=4, embedding_dim=3, activation="tanh",
        dropout_rate=0.0, reg_strength=0.0, optimizer="sgd",
        learning_rate=lr, inner_iterations=2,
    )
    rng = np.random.default_rng(seed)
    theta = init_weights(config, 3, 3, rng)
    meta = MetaConfig(meta_iterations=iterations, epsilon0=eps0, k=4)
    batch = sample_task_batch(tasks, train_table, masked_test, meta.k, rng, TaskCache())
    state = MetaState(stack_weights([theta]), 0, (rng,), [None])
    return state, theta, meta_learner._stack_batches([batch]), batch, config, meta


def test_meta_step_eps1_returns_adapted_weights_bitwise():
    state, theta, stacked, batch, config, meta = _state_and_batch(eps0=1.0)
    from metatreat.base_learner import inner_update

    # dropout is 0 here, so inner updates never consume the rng stream and
    # the train-then-fine-tune weights can be recomputed independently
    expected = inner_update(theta, batch.train_data, batch.task, config, np.random.default_rng(0))
    expected = inner_update(expected, batch.finetune_data, batch.task, config, np.random.default_rng(0))
    out = meta_step(state, [stacked], config, meta, StepWorkspace(state.theta))
    # epsilon = eps0 * (T - 0) / T = 1.0 exactly -> theta equals adapted weights
    assert np.array_equal(out.theta.values, expected.values)
    assert out.t == 1


def test_meta_step_zero_lr_leaves_theta_constant():
    state, theta, stacked, _, config, meta = _state_and_batch(lr=0.0, iterations=3)
    out = meta_step(state, [stacked], config, meta, StepWorkspace(state.theta))
    assert np.array_equal(out.theta.values, theta.values)


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
    return meta_train([train_table], [masked_test], [tasks], BASE, meta, [rng], [theta0])[0]


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
    assert not np.array_equal(theta.embeddings[2], theta0.embeddings[2])


def test_meta_train_is_deterministic():
    train_table, masked_test, _, tasks = small_study()
    meta = MetaConfig(meta_iterations=5, k=4, tasks_per_iteration=2)
    a = train_one(train_table, masked_test, tasks, meta, seed=3)
    b = train_one(train_table, masked_test, tasks, meta, seed=3)
    assert np.array_equal(a.values, b.values)


def test_meta_train_rejects_leaky_test_table():
    train_table, _, leaky_test, tasks = small_study()
    meta = MetaConfig(meta_iterations=1, k=4)
    with pytest.raises(DataError, match="withhold"):
        train_one(train_table, leaky_test, tasks, meta, seed=0)


def test_meta_test_prediction_count_and_range():
    train_table, masked_test, _, tasks = small_study()
    meta = MetaConfig(meta_iterations=4, k=4)
    theta = train_one(train_table, masked_test, tasks, meta, seed=5)
    target = TaskSpec("y", "classification", "target_task")
    data = task_dataset(train_table, target.column, target.kind)
    adapted, transform = fine_tune(theta, target, data, BASE, np.random.default_rng(0))
    preds = predict_rows(adapted, masked_test, target.kind, BASE, transform)
    assert preds.shape == (masked_test.n_rows,)
    assert np.all((preds > 0.0) & (preds < 1.0))


def test_fine_tune_standardizes_regression_labels():
    train_table, masked_test, _, tasks = small_study()
    theta = train_one(train_table, masked_test, tasks, MetaConfig(meta_iterations=2, k=4), seed=9)
    target = TaskSpec("y", "regression", "target_task")
    data = task_dataset(train_table, target.column, target.kind)
    _, transform = fine_tune(theta, target, data, BASE, np.random.default_rng(0))
    vals, obs = train_table.column_values("y")
    assert transform.shift == pytest.approx(vals[obs].mean())
    assert transform.scale == pytest.approx(vals[obs].std())


# ---------------------------------------------------------------------------
# lockstep folds
# ---------------------------------------------------------------------------


def _three_folds():
    studies = [small_study(seed=s, g_star=g) for s, g in ((0, "g0"), (1, "g1"), (2, "g2"))]
    return [s[0] for s in studies], [s[1] for s in studies], [s[3] for s in studies]


def test_lockstep_meta_train_matches_each_fold_alone():
    trains, tests, task_sets = _three_folds()
    meta = MetaConfig(meta_iterations=5, k=4, tasks_per_iteration=2)
    seeds = [10, 11, 12]
    rngs, thetas = zip(*map(seeded_init, seeds))
    stacked = meta_train(trains, tests, task_sets, BASE, meta, rngs, thetas)
    for f, seed in enumerate(seeds):
        alone = train_one(trains[f], tests[f], task_sets[f], meta, seed=seed)
        assert stacked[f].values.tobytes() == alone.values.tobytes()


def test_lockstep_failure_stops_the_later_folds_only():
    # fold 1 starts with a zero-norm direction column: it fails at its first
    # step, fold 2 stops with it as a serial run would, fold 0 runs on
    trains, tests, task_sets = _three_folds()
    meta = MetaConfig(meta_iterations=4, k=4)
    thetas = [init_weights(BASE, 3, 3, np.random.default_rng(s)) for s in range(3)]
    thetas[1].extractor[1].v[:, 0] = 0.0
    rngs = [np.random.default_rng(s) for s in (5, 6, 7)]
    results = meta_train(trains, tests, task_sets, BASE, meta, rngs, thetas)
    message = "extractor layer 1: degenerate dense layer: direction column 0 has zero norm"
    assert isinstance(results[1], NumericError) and str(results[1]) == message
    assert results[2] is results[1]
    alone = train_one(trains[0], tests[0], task_sets[0], meta, 5, thetas[0])
    assert results[0].values.tobytes() == alone.values.tobytes()
    failed = train_one(trains[1], tests[1], task_sets[1], meta, 6, thetas[1])
    assert isinstance(failed, NumericError) and str(failed) == message


def test_lockstep_builds_each_fold_task_dataset_once(monkeypatch):
    trains, tests, task_sets = _three_folds()
    calls = {}
    build = meta_learner.task_dataset

    def counted(table, column, kind):
        calls[id(table), column] = calls.get((id(table), column), 0) + 1
        return build(table, column, kind)

    monkeypatch.setattr(meta_learner, "task_dataset", counted)
    meta = MetaConfig(meta_iterations=10, k=4, tasks_per_iteration=2)
    meta_train(trains, tests, task_sets, BASE, meta, *zip(*map(seeded_init, [10, 11, 12])))
    columns = {t.column for tasks in task_sets for t in tasks.training}
    assert len(columns) > 1
    # 3 folds x 10 iterations x 2 draws, each needing a train and a test slice
    assert set(calls.values()) == {1} and len(calls) < 3 * 10 * 2 * 2
    tables = {id(t) for t in trains + tests}
    assert {table for table, _ in calls} == tables
