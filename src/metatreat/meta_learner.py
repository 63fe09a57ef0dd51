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
that still carries them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .base_learner import (
    BaseLearnerConfig,
    BaseLearnerWeights,
    forward,
    init_weights,
    inner_update,
    weights_from_dict,
    weights_to_dict,
)
from .data_model import DatasetTable, TaskData, model_inputs, targets_withheld, task_dataset
from .errors import ConfigError, DataError
from .nn_core import param_axpy
from .rng import as_rng
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
    """Shared initialization plus progress through the meta-loop."""

    theta: BaseLearnerWeights
    t: int
    rng: np.random.Generator


@dataclass(frozen=True)
class TaskBatch:
    task: TaskSpec
    train_data: TaskData
    finetune_data: TaskData


def epsilon_schedule(t: int, total: int, epsilon0: float) -> float:
    """Linear annealing: epsilon0 at t=0 down to epsilon0/total at t=total-1."""
    if not (0 <= t < total):
        raise ConfigError(f"meta-iteration {t} outside [0, {total})")
    return epsilon0 * (total - t) / total


def _sample_per_group(
    table: DatasetTable, data: TaskData, k: int, rng: np.random.Generator
) -> TaskData:
    """k rows per group present in the table, without replacement when possible."""
    picks = []
    for gid in np.unique(table.group_ids):
        rows = np.flatnonzero(data.group_ids == gid)
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
    return data.take(np.concatenate(picks))


def sample_task_batch(
    tasks: TaskSet,
    train_table: DatasetTable,
    test_table: DatasetTable,
    k: int,
    rng: np.random.Generator,
) -> TaskBatch:
    """Sample a training task plus k rows per group on both sides of the split.

    The fine-tune slice comes from the held-out group's rows and uses only
    the training-task column, never a target column.
    """
    if not tasks.training:
        raise ConfigError("no training tasks to sample from")
    task = tasks.training[int(rng.integers(len(tasks.training)))]
    train_all = task_dataset(train_table, task.column, task.kind)
    finetune_all = task_dataset(test_table, task.column, task.kind)
    train_data = _sample_per_group(train_table, train_all, k, rng)
    finetune_data = _sample_per_group(test_table, finetune_all, k, rng)
    return TaskBatch(task, train_data, finetune_data)


def meta_step(
    state: MetaState,
    batches: list[TaskBatch],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
) -> MetaState:
    """One meta-iteration: train, fine-tune, then interpolate.

    With several task batches the train/fine-tune pair runs sequentially on
    each before the single interpolation, which moves the initialization
    toward the adapted weights: theta + eps*(adapted - theta).
    """
    if state.t >= meta_config.meta_iterations:
        raise ConfigError("meta-training already consumed all iterations")
    eps = epsilon_schedule(state.t, meta_config.meta_iterations, meta_config.epsilon0)
    adapted = state.theta
    for batch in batches:
        adapted = inner_update(adapted, batch.train_data, batch.task, base_config, state.rng)
        adapted = inner_update(adapted, batch.finetune_data, batch.task, base_config, state.rng)
    theta = state.theta.with_values(param_axpy(state.theta.values, adapted.values, eps))
    return MetaState(theta=theta, t=state.t + 1, rng=state.rng)


def resume_meta_train(
    state: MetaState,
    train_table: DatasetTable,
    test_table: DatasetTable,
    tasks: TaskSet,
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
) -> BaseLearnerWeights:
    """Run the meta-loop from ``state`` (fresh or checkpointed) to completion.

    The test table must arrive with its target columns withheld; this is the
    structural zero-shot firewall, checked here rather than trusted.
    """
    if not targets_withheld(test_table):
        raise DataError(
            "test table still carries target values; withhold them before meta-training"
        )
    while state.t < meta_config.meta_iterations:
        batches = [
            sample_task_batch(tasks, train_table, test_table, meta_config.k, state.rng)
            for _ in range(meta_config.tasks_per_iteration)
        ]
        state = meta_step(state, batches, base_config, meta_config)
    return state.theta


def meta_train(
    train_table: DatasetTable,
    test_table: DatasetTable,
    tasks: TaskSet,
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
    seed: int | np.random.Generator,
    initial_weights: BaseLearnerWeights | None = None,
) -> BaseLearnerWeights:
    """Run the full meta-loop from a fresh state and return the learned
    initialization.

    ``initial_weights`` (cloned, never mutated) lets callers score the same
    random initialization the meta-loop started from.
    """
    rng = as_rng(seed)
    if initial_weights is None:
        n_features = model_inputs(train_table).shape[1]
        theta = init_weights(base_config, n_features, len(train_table.group_names), rng)
    else:
        theta = initial_weights.clone()
    state = MetaState(theta=theta, t=0, rng=rng)
    return resume_meta_train(state, train_table, test_table, tasks, base_config, meta_config)


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
    table: DatasetTable,
    base_config: BaseLearnerConfig,
    rng: np.random.Generator | None = None,
) -> tuple[BaseLearnerWeights, TargetTransform]:
    """The meta-test adaptation: one k-shot update on all available rows."""
    rng = as_rng(0) if rng is None else rng
    data = task_dataset(table, task.column, task.kind)
    transform = fit_target_transform(data.y, task.kind)
    data = TaskData(data.x, data.group_ids, transform.apply(data.y), data.row_indices)
    return inner_update(weights, data, task, base_config, rng), transform


def predict_rows(
    weights: BaseLearnerWeights,
    table: DatasetTable,
    task_kind: str,
    base_config: BaseLearnerConfig,
    transform: TargetTransform | None = None,
) -> np.ndarray:
    """Eval-mode predictions for every row of a table."""
    preds = forward(
        weights, model_inputs(table), table.group_ids, base_config, mode="eval", kind=task_kind
    )
    if transform is not None and task_kind == "regression":
        preds = transform.invert(preds)
    return preds


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_meta_state(path: str | Path, state: MetaState, config_hash: str = "") -> None:
    doc = weights_to_dict(state.theta, config_hash)
    doc["meta_iteration"] = state.t
    doc["rng_state"] = state.rng.bit_generator.state
    Path(path).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")


def load_meta_state(path: str | Path) -> MetaState:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    theta = weights_from_dict(doc)
    rng = np.random.default_rng()
    try:
        rng.bit_generator.state = doc["rng_state"]
        t = int(doc["meta_iteration"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint: {type(exc).__name__}: {exc}") from None
    return MetaState(theta=theta, t=t, rng=rng)
