"""Zero-shot meta-training and meta-testing.

Each meta-iteration samples a training task and k rows per group, trains a
clone of the current weights on the training groups, fine-tunes it on the
held-out group's rows for that task (training tasks are post-treatment
features, so those labels are observable for every group), then interpolates
the shared initialization toward the adapted weights with a linearly
annealed step size. Meta-testing (``fine_tune`` then ``predict_rows``)
adapts the learned initialization on the full training set for a target
task and predicts for the held-out group, whose target labels are never
read: the caller withholds them, and ``meta_train`` refuses a test table
that still carries them. ``meta_train`` steps the folds of a run in
lockstep on one stacked parameter array.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .base_learner import (
    BaseLearnerConfig,
    BaseLearnerWeights,
    StepWorkspace,
    forward,
    inner_update,
    stack_weights,
)
from .data_model import DatasetTable, TaskData, model_inputs, targets_withheld, task_dataset
from .errors import ConfigError, DataError
from .nn_core import FoldErrors, param_axpy
from .task_selection import TaskSet, TaskSpec


@dataclass(frozen=True)
class MetaConfig:
    meta_iterations: int = 80
    epsilon0: float = 0.5
    k: int = 15
    tasks_per_iteration: int = 2

    def __post_init__(self) -> None:
        if self.meta_iterations < 0:
            raise ConfigError("meta_iterations must be non-negative")
        if not (0.0 < self.epsilon0 <= 1.0):
            raise ConfigError("epsilon0 must lie in (0, 1]")
        if self.k < 1:
            raise ConfigError("k must be at least 1")
        if self.tasks_per_iteration < 1:
            raise ConfigError("tasks_per_iteration must be at least 1")


@dataclass
class MetaState:
    """Shared initialization of a stack of folds plus progress through the
    meta-loop: one RNG stream per fold, and ``errors``, each fold's first
    failure as ``base_learner.loss_and_grads`` records it.
    """

    theta: BaseLearnerWeights
    t: int
    rng: tuple[np.random.Generator, ...]
    errors: FoldErrors


@dataclass(frozen=True)
class TaskBatch:
    """One sampled task with its training and fine-tune rows; stacked, one
    task per fold and the rows with a leading fold axis."""

    task: TaskSpec | tuple[TaskSpec, ...]
    train_data: TaskData
    finetune_data: TaskData


def epsilon_schedule(t: int, total: int, epsilon0: float) -> float:
    """Linear annealing: epsilon0 at t=0 down to epsilon0/total at t=total-1."""
    if not (0 <= t < total):
        raise ConfigError(f"meta-iteration {t} outside [0, {total})")
    return epsilon0 * (total - t) / total


class TaskCache:
    """Each drawn task's observed rows on both sides of one split, with each
    group's positions among them, built on first use. A side keeps one input
    matrix, shared by all its tasks, so the cache holds about one copy of the
    split's inputs however many tasks are drawn."""

    def __init__(self) -> None:
        self.inputs: list[np.ndarray | None] = [None, None]
        self.tasks: dict[tuple[str, str], list[tuple]] = {}

    def get(self, tables: tuple[DatasetTable, DatasetTable], task: TaskSpec) -> list[tuple]:
        key = (task.column, task.kind)
        if key not in self.tasks:
            self.tasks[key] = [self._build(side, t, *key) for side, t in enumerate(tables)]
        return self.tasks[key]

    def _build(self, side: int, table: DatasetTable, column: str, kind: str) -> tuple:
        data = task_dataset(table, column, kind)
        if self.inputs[side] is None:
            self.inputs[side] = model_inputs(table)
        groups = [(g, np.flatnonzero(data.group_ids == g)) for g in np.unique(table.group_ids)]
        return self.inputs[side], data.row_indices, data.y, groups


def _sample_per_group(
    table: DatasetTable, task_rows: tuple, k: int, rng: np.random.Generator
) -> TaskData:
    """k rows per group present in the table, without replacement when possible."""
    inputs, observed, y, groups = task_rows
    picks = []
    for gid, rows in groups:
        if rows.size == 0:
            raise DataError(
                f"group {table.group_names[gid]!r} has no rows with observed task values"
            )
        if rows.size < k:
            warnings.warn(
                f"group {table.group_names[gid]!r} has {rows.size} usable rows < k={k}; "
                "sampling with replacement",
                stacklevel=2,
            )
            picks.append(rng.choice(rows, size=k, replace=True))
        else:
            picks.append(rng.choice(rows, size=k, replace=False))
    idx = np.concatenate(picks)
    rows = observed[idx]
    return TaskData(inputs[rows], table.group_ids[rows], y[idx], rows)


def sample_task_batch(
    tasks: TaskSet,
    train_table: DatasetTable,
    test_table: DatasetTable,
    k: int,
    rng: np.random.Generator,
    cache: TaskCache,
) -> TaskBatch:
    """Sample a training task plus k rows per group on both sides of the split.

    The fine-tune slice comes from the held-out group's rows and uses only
    the training-task column, never a target column. ``cache`` is the
    split's: every call that samples from the same tables passes the same.
    """
    if not tasks.training:
        raise ConfigError("no training tasks to sample from")
    task = tasks.training[int(rng.integers(len(tasks.training)))]
    train_rows, finetune_rows = cache.get((train_table, test_table), task)
    train_data = _sample_per_group(train_table, train_rows, k, rng)
    finetune_data = _sample_per_group(test_table, finetune_rows, k, rng)
    return TaskBatch(task, train_data, finetune_data)


def meta_step(
    state: MetaState,
    batches: list[TaskBatch],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
    workspace: StepWorkspace,
) -> MetaState:
    """One meta-iteration of a stack: train, fine-tune, then interpolate.

    With several task batches the train/fine-tune pair runs sequentially on
    each before the single interpolation, which moves the initialization
    toward the adapted weights: theta + eps*(adapted - theta) is written
    back into ``state.theta``. The adapted weights live in ``workspace``,
    one made for ``state.theta``.
    """
    if state.t >= meta_config.meta_iterations:
        raise ConfigError("meta-training already consumed all iterations")
    if not batches:
        raise ConfigError("a meta-iteration needs at least one task batch")
    eps = epsilon_schedule(state.t, meta_config.meta_iterations, meta_config.epsilon0)
    adapted = state.theta
    for batch in batches:
        for data in (batch.train_data, batch.finetune_data):
            adapted = inner_update(
                adapted, data, batch.task, base_config, state.rng, state.errors, workspace
            )
    with np.errstate(all="ignore"):
        param_axpy(state.theta.values, adapted.values, eps, out=adapted.values)
    np.copyto(state.theta.values, adapted.values)
    return MetaState(theta=state.theta, t=state.t + 1, rng=state.rng, errors=state.errors)


def _stack_batches(batches: list[TaskBatch]) -> TaskBatch:
    """Per-fold batches of one shape as one batch with a leading fold axis."""

    def stack(parts: list[TaskData]) -> TaskData:
        return TaskData(
            *(np.stack([getattr(p, name) for p in parts])
              for name in ("x", "group_ids", "y", "row_indices"))
        )

    return TaskBatch(
        tuple(b.task for b in batches),
        stack([b.train_data for b in batches]),
        stack([b.finetune_data for b in batches]),
    )


def meta_train(
    train_tables: Sequence[DatasetTable],
    test_tables: Sequence[DatasetTable],
    tasks: Sequence[TaskSet],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
    rngs: Sequence[np.random.Generator],
    initial_weights: Sequence[BaseLearnerWeights],
) -> list[BaseLearnerWeights | Exception]:
    """Run the full meta-loop of each fold from a fresh state and return
    the learned initializations.

    Every argument but the configs has one entry per fold. Each fold's loop
    starts from its ``initial_weights`` (never mutated), so callers can score
    the same random initialization. Each test table must arrive with its
    target columns withheld; this is the structural zero-shot firewall,
    checked here rather than trusted, and a table that fails it raises.

    The folds step in lockstep: folds of one layout, batch shape and task
    kind form one stack, and each fold samples its batches and draws its
    dropout masks from its own stream in the order it would alone, so its
    result is bitwise the same. The result is a list in fold order: each
    fold's weights, or the configuration, data or numeric error that stopped
    it. A fold leaves its stack after the meta-iteration it failed in, and
    every later fold stops with it, as a serial run would stop at the first
    failing fold; those later folds carry the earliest failure.
    """
    folds = list(zip(train_tables, test_tables, tasks, rngs, initial_weights, strict=True))
    if not all(targets_withheld(fold[1]) for fold in folds):
        raise DataError(
            "test table still carries target values; withhold them before meta-training"
        )
    stacks: dict = {}
    for f, (train, test, fold_tasks, _, theta) in enumerate(folds):
        kinds = frozenset(t.kind for t in fold_tasks.training)
        key = (
            theta.layout, theta.activations,
            np.unique(train.group_ids).size, np.unique(test.group_ids).size,
            kinds if len(kinds) <= 1 else f,
        )
        stacks.setdefault(key, []).append(f)

    results: list = [None] * len(folds)
    first_failed = len(folds)
    for members in stacks.values():
        members = [f for f in members if f < first_failed]
        if not members:
            continue
        theta = stack_weights([folds[f][4] for f in members])
        for f, result in zip(members, _lockstep(
            theta, [folds[f][:3] for f in members], tuple(folds[f][3] for f in members),
            base_config, meta_config,
        )):
            results[f] = result
            if isinstance(result, Exception):
                first_failed = min(first_failed, f)
    return [results[first_failed] if r is None else r for r in results]


def _lockstep(
    theta: BaseLearnerWeights,
    folds: list[tuple[DatasetTable, DatasetTable, TaskSet]],
    rngs: tuple[np.random.Generator, ...],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
) -> list[BaseLearnerWeights | Exception | None]:
    """The meta-loop of one stack (owned by the loop), in fold order: each
    fold's weights, its error, or None if an earlier fold's failure stopped
    it. Weights objects and the step workspace are built only as folds
    enter and leave the stack."""
    errors: FoldErrors = [None] * len(folds)
    results: list = [None] * len(folds)
    caches = [TaskCache() for _ in folds]
    state = MetaState(theta, 0, rngs, errors)
    workspace = StepWorkspace(theta)

    def shrink() -> bool:
        """Drop the first failed fold and every later one; False once the
        stack is empty."""
        nonlocal state, workspace
        cut = next((j for j, e in enumerate(state.errors) if e is not None), None)
        if cut is None:
            return True
        results[cut] = state.errors[cut]
        del folds[cut:], caches[cut:]
        if cut == 0:
            return False
        state = MetaState(
            stack_weights(state.theta.unstack()[:cut]), state.t, state.rng[:cut], [None] * cut
        )
        workspace = StepWorkspace(state.theta)
        return True

    while state.t < meta_config.meta_iterations:
        per_fold = []
        for j, (train, test, fold_tasks) in enumerate(folds):
            try:
                per_fold.append([
                    sample_task_batch(
                        fold_tasks, train, test, meta_config.k, state.rng[j], caches[j]
                    )
                    for _ in range(meta_config.tasks_per_iteration)
                ])
            except (ConfigError, DataError) as exc:
                state.errors[j] = exc
                break
        if not shrink():
            return results
        batches = [_stack_batches(list(b)) for b in zip(*per_fold)]
        state = meta_step(state, batches, base_config, meta_config, workspace)
        if not shrink():
            return results
    for j, weights in enumerate(state.theta.unstack()):
        results[j] = weights
    return results


@dataclass(frozen=True)
class TargetTransform:
    """Label standardization used inside fine-tuning on regression targets.

    Inner loops run for a handful of steps and cannot re-learn an output
    scale, so labels are standardized on the fine-tune rows (training groups
    only) and predictions are mapped back afterwards.
    """

    shift: float = 0.0
    scale: float = 1.0

    def apply(self, y: np.ndarray) -> np.ndarray:
        return (y - self.shift) / self.scale

    def invert(self, pred: np.ndarray) -> np.ndarray:
        return pred * self.scale + self.shift


def fit_target_transform(y: np.ndarray, kind: str) -> TargetTransform:
    if kind == "classification":
        return TargetTransform()
    mu = float(np.mean(y))
    sd = float(np.std(y))
    if sd == 0.0:
        sd = 1.0
    return TargetTransform(shift=mu, scale=sd)


def fine_tune(
    weights: BaseLearnerWeights,
    task: TaskSpec,
    data: TaskData,
    base_config: BaseLearnerConfig,
    rng: np.random.Generator,
) -> tuple[BaseLearnerWeights, TargetTransform]:
    """The meta-test adaptation: one k-shot update on all of the task's
    available rows, ``data`` as ``task_dataset`` builds it."""
    transform = fit_target_transform(data.y, task.kind)
    data = TaskData(data.x, data.group_ids, transform.apply(data.y), data.row_indices)
    return inner_update(weights, data, task, base_config, rng), transform


def predict_rows(
    weights: BaseLearnerWeights,
    table: DatasetTable,
    task_kind: str,
    base_config: BaseLearnerConfig,
    transform: TargetTransform,
) -> np.ndarray:
    """Predictions (without dropout) for every row of a table, mapped back
    through the fine-tune's label transform on a regression task."""
    preds = forward(weights, model_inputs(table), table.group_ids, base_config, kind=task_kind)
    if task_kind == "regression":
        preds = transform.invert(preds)
    return preds
