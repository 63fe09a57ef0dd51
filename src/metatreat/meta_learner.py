"""Zero-shot meta-training and meta-testing.

A fold's draw tables (``draw_tables``) hold both sides of its split, built
once. Each meta-iteration samples from them a training task and k rows per
group, trains a clone of the current weights on the training groups,
fine-tunes it on the held-out group's rows for that task (training tasks
are post-treatment features, so those labels are observable for every
group), then interpolates the shared initialization toward the adapted
weights with a linearly annealed step size. Meta-testing (``fine_tune``)
adapts the learned initialization on the full training set for a target
task and predicts for the held-out group, whose target labels are never
read: the caller withholds them, and ``draw_tables`` refuses a test table
that still carries them. ``meta_train`` steps the folds of a run in
lockstep on one stacked parameter array, and ``fine_tune`` the networks it
scores.
"""

from __future__ import annotations

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
from .data_model import DatasetTable, Slice, model_inputs, targets_withheld
from .errors import ConfigError, DataError
from .nn_core import FoldErrors, param_axpy

# training tasks are feature values: they regress whatever the targets' kind
TRAINING_KIND = "regression"

# one side's inputs, group ids, training-task columns and each group's rows
DrawTable = tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]


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


def epsilon_schedule(t: int, total: int, epsilon0: float) -> float:
    """Linear annealing: epsilon0 at t=0 down to epsilon0/total at t=total-1."""
    if not (0 <= t < total):
        raise ConfigError(f"meta-iteration {t} outside [0, {total})")
    return epsilon0 * (total - t) / total


def draw_tables(
    train_table: DatasetTable, test_table: DatasetTable, tasks: Sequence[str]
) -> tuple[DrawTable, DrawTable]:
    """Both sides of one split as meta-training draws from them, the
    training and then the held-out side: each side's input matrix, group
    ids and ``tasks`` columns, and each group's row positions.

    The test table must arrive with its target columns withheld; this is
    the structural zero-shot firewall, checked here rather than trusted,
    and a table that fails it raises. Training-task columns must be
    complete, as the pipeline imputes every feature: a missing cell
    raises, as does an empty task list.
    """
    if not targets_withheld(test_table):
        raise DataError(
            "test table still carries target values; withhold them before meta-training"
        )
    if not tasks:
        raise ConfigError("no training tasks to sample from")
    return _side(train_table, tasks), _side(test_table, tasks)


def _side(table: DatasetTable, tasks: Sequence[str]) -> DrawTable:
    inputs = model_inputs(table)
    columns = [table.column_index(name) for name in tasks]
    for name, j in zip(tasks, columns):
        if table.missing_mask[:, j].any():
            raise DataError(
                f"training task {name!r} has missing cells; meta-training needs "
                "complete task columns"
            )
    groups = [np.flatnonzero(table.group_ids == gid) for gid in np.unique(table.group_ids)]
    return inputs, table.group_ids, table.values[:, columns], groups


def sample_task_batch(
    sides: tuple[DrawTable, DrawTable], k: int, rng: np.random.Generator
) -> tuple[Slice, Slice]:
    """Sample one of the training tasks plus ``k`` rows per group on both
    ``sides`` of a split (``draw_tables``): the training and the fine-tune
    slice, each ``(x, group_ids, y)``, k rows of each group, without
    replacement where it has k or more.

    The fine-tune slice comes from the held-out group's rows and uses only
    the training-task column, never a target column.
    """
    column = int(rng.integers(sides[0][2].shape[1]))
    batch = []
    for inputs, group_ids, labels, groups in sides:
        idx = np.concatenate([rng.choice(rows, size=k, replace=rows.size < k) for rows in groups])
        batch.append((inputs[idx], group_ids[idx], labels[idx, column]))
    return tuple(batch)


def meta_step(
    theta: BaseLearnerWeights,
    workspace: StepWorkspace,
    batches: list[tuple[Slice, Slice]],
    eps: float,
    base_config: BaseLearnerConfig,
    rngs: Sequence[np.random.Generator],
    errors: FoldErrors,
) -> None:
    """One meta-iteration of a stack: train, fine-tune, then interpolate.

    Each batch is a training task's training and fine-tune slices, both
    with a leading fold axis, and is stepped as ``TRAINING_KIND``. With
    several batches the train/fine-tune pair runs sequentially on each
    before the single interpolation, which moves the initialization toward
    the adapted weights: theta + eps*(adapted - theta) is written into
    ``theta``. The weights adapt in ``workspace``, one made for ``theta``,
    into which theta is copied first; ``rngs`` and ``errors`` are as in
    ``inner_update``.
    """
    adapted = workspace.net.values
    np.copyto(adapted, theta.values)
    for slices in batches:
        for x, group_ids, y in slices:
            inner_update(workspace, x, group_ids, y, TRAINING_KIND, base_config, rngs, errors)
    with np.errstate(all="ignore"):
        param_axpy(theta.values, adapted, eps)


def meta_train(
    sides: Sequence[tuple[DrawTable, DrawTable]],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
    rngs: Sequence[np.random.Generator],
    initial_weights: Sequence[BaseLearnerWeights],
) -> list[BaseLearnerWeights | Exception]:
    """Run the full meta-loop of each fold from a fresh state and return
    the learned initializations.

    Every argument but the configs has one entry per fold; a fold's
    ``sides`` are its split as ``draw_tables`` builds it, from which each
    draw takes ``meta_config.k`` rows per group. Each fold's loop starts
    from its ``initial_weights`` (never mutated), so callers can score the
    same random initialization.

    The folds step in lockstep: folds of one layout and batch shape form
    one stack, and each fold samples its batches and draws its dropout
    masks from its own stream in the order it would alone, so its result
    is bitwise the same. The result is a list in fold order: each
    fold's weights, or the numeric error that stopped it. A fold leaves
    its stack after the meta-iteration it failed in, and every later fold
    stops with it, as a serial run would stop at the first failing fold;
    those later folds carry the earliest failure.
    """
    folds = list(zip(sides, rngs, initial_weights, strict=True))
    stacks: dict = {}
    for f, (pair, _, theta) in enumerate(folds):
        key = (theta.layout, theta.activations, *(len(side[3]) for side in pair))
        stacks.setdefault(key, []).append(f)

    results: list = [None] * len(folds)
    first_failed = len(folds)
    for members in stacks.values():
        members = [f for f in members if f < first_failed]
        if not members:
            continue
        theta = stack_weights([folds[f][2] for f in members])
        for f, result in zip(members, _lockstep(
            theta, [folds[f][0] for f in members], [folds[f][1] for f in members],
            base_config, meta_config,
        )):
            results[f] = result
            if isinstance(result, Exception):
                first_failed = min(first_failed, f)
    return [results[first_failed] if r is None else r for r in results]


def _lockstep(
    theta: BaseLearnerWeights,
    sides: list[tuple[DrawTable, DrawTable]],
    rngs: list[np.random.Generator],
    base_config: BaseLearnerConfig,
    meta_config: MetaConfig,
) -> list[BaseLearnerWeights | Exception | None]:
    """The meta-loop of one stack, which owns ``theta``, ``sides`` (each
    fold's draw tables) and ``rngs``, in fold order: each fold's weights,
    its error, or None if an earlier fold's failure stopped it. Weights
    objects and the step workspace are built only as folds enter and
    leave the stack."""
    errors: FoldErrors = [None] * len(sides)
    results: list = [None] * len(sides)
    workspace = StepWorkspace(theta)
    for t in range(meta_config.meta_iterations):
        per_fold = [
            [
                sample_task_batch(pair, meta_config.k, rng)
                for _ in range(meta_config.tasks_per_iteration)
            ]
            for pair, rng in zip(sides, rngs)
        ]
        # each draw's two sides, every side's per-fold arrays stacked one by one
        batches = [
            tuple(tuple(map(np.stack, zip(*side))) for side in zip(*draws))
            for draws in zip(*per_fold)
        ]
        eps = epsilon_schedule(t, meta_config.meta_iterations, meta_config.epsilon0)
        meta_step(theta, workspace, batches, eps, base_config, rngs, errors)
        # the first failed fold and every later one leave the stack
        cut = next((j for j, e in enumerate(errors) if e is not None), None)
        if cut is not None:
            results[cut] = errors[cut]
            if cut == 0:
                return results
            del sides[cut:]
            theta = stack_weights(theta.unstack()[:cut])
            rngs, errors = rngs[:cut], [None] * cut
            workspace = StepWorkspace(theta)
    for j, weights in enumerate(theta.unstack()):
        results[j] = weights
    return results


def fine_tune(
    networks: Sequence[BaseLearnerWeights],
    kind: str,
    task: Slice,
    inputs: Sequence[tuple[np.ndarray, np.ndarray]],
    base_config: BaseLearnerConfig,
    rngs: Sequence[np.random.Generator],
) -> list[np.ndarray]:
    """The meta-test of networks of one layout on a target task of
    ``kind``: one k-shot update of their stack, in one step workspace, on
    all of the task's available rows (``task``, the ``(x, group_ids, y)``
    slice ``task_dataset`` cuts from the training side's inputs), each
    network on its stream of ``rngs``, then the predictions (without
    dropout) for every row of each of ``inputs``, ``(x, group_ids)``
    pairs, in that workspace, one (networks, rows) array per pair. Inner
    loops are too short to re-learn an output scale, so regression labels
    are standardized on those rows and the predictions mapped back. Of the
    networks' first numeric failures the first in network order is
    raised, as if each network ran alone in turn.
    """
    x, group_ids, y = task
    shift, scale = 0.0, 1.0
    if kind == "regression":
        shift, scale = float(np.mean(y)), float(np.std(y)) or 1.0
    n = len(networks)
    stacked = (np.stack([a] * n) for a in (x, group_ids, (y - shift) / scale))
    errors: FoldErrors = [None] * n
    ws = StepWorkspace(stack_weights(networks))
    inner_update(ws, *stacked, kind, base_config, rngs, errors)
    preds = [
        forward(ws, np.stack([side_x] * n), np.stack([side_ids] * n), kind, errors) * scale + shift
        for side_x, side_ids in inputs
    ]
    for failure in filter(None, errors):
        raise failure
    return preds
