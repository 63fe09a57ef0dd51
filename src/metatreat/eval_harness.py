"""Group-holdout cross-validation, metrics, baselines, overfitting-gap
analysis, and randomized grid search over the hyperparameter space.

Every fold holds out one entire treatment group: preprocessing is fitted on
the training rows only, the held-out group's target labels are withheld
from the meta-learner structurally, and the same processed features feed
the baselines so comparisons are like for like. Train-partition scores are
recorded next to test scores for the overfitting-gap analysis, and the
base-learner's pre-meta-training scores are reported alongside the final
meta-learner.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import warnings
from collections.abc import Iterable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .base_learner import BaseLearnerConfig, BaseLearnerWeights, init_weights
from .data_model import (
    DatasetTable,
    Manifest,
    PreprocessConfig,
    binarize_labels,
    csv_cell,
    fit_preprocess,
    group_holdout_split,
    model_inputs,
    strict_dataclass,
    task_dataset,
    withhold_targets,
)
from .errors import ConfigError, DataError, NumericError
from .meta_learner import MetaConfig, fine_tune, meta_train, predict_rows
from .nn_core import apply_activation
from .rng import child_rng
from .task_selection import SelectionConfig, TaskSet, TaskSpec, select_training_tasks

REGRESSION_BASELINES = ("mean", "median", "knn", "ridge")
CLASSIFICATION_BASELINES = ("knn", "logistic")
REPORT_COLUMNS = ("group", "task", "model", "metric", "value", "train_value", "n_test", "note")

# Upper bound on the (test rows x training rows x features) difference block
# kNN materializes at once, so its memory stays flat as the row count grows.
KNN_BLOCK_BYTES = 16 * 2**20

# Stopping rule of the gradient descent that fits the ridge and logistic
# baselines: the largest gradient entry falls below GD_TOL, or GD_MAX_ITERS.
GD_MAX_ITERS = 20000
GD_TOL = 1e-12


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve by rank sum (Mann-Whitney) with midranks.

    Equals the probability that a random positive outranks a random
    negative, ties counting one half. Single-class labels make the metric
    undefined and return NaN so callers can exclude the fold with a note.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DataError("auc expects two equal-length 1-D vectors")
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise DataError("auc labels must be binary (0/1)")
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    # Imported on use: scipy takes ~1 s to load and regression runs never call it.
    from scipy.stats import rankdata

    ranks = rankdata(scores, method="average")
    u = ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def mse(pred: np.ndarray, y: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if pred.shape != y.shape or pred.size == 0:
        raise DataError("mse expects two equal-length nonempty vectors")
    return float(np.mean((pred - y) ** 2))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BaselineConfig:
    """Conventional defaults; the published baselines were grid-tuned but
    their grids were not stated, so these are fixed and documented."""

    knn_k: int = 5
    ridge_alpha: float = 1.0
    logistic_alpha: float = 1e-3

    def __post_init__(self) -> None:
        if self.knn_k < 1:
            raise ConfigError("knn_k must be at least 1")
        for name in ("ridge_alpha", "logistic_alpha"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative")


def _gd_minimize(grad_fn, w0: np.ndarray, lr: float) -> np.ndarray:
    w = w0.copy()
    for _ in range(GD_MAX_ITERS):
        g = grad_fn(w)
        if np.max(np.abs(g)) < GD_TOL:
            break
        w = w - lr * g
    return w


def _fit_ridge(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Gradient descent on mean squared error + alpha*||w||^2 (bias free)."""
    n, d = x.shape
    a = np.column_stack([x, np.ones(n)])
    hess = 2.0 * a.T @ a / n
    hess[np.arange(d), np.arange(d)] += 2.0 * alpha
    lip = float(np.linalg.eigvalsh(hess).max())

    def grad(wb: np.ndarray) -> np.ndarray:
        r = a @ wb - y
        g = 2.0 * a.T @ r / n
        g[:d] += 2.0 * alpha * wb[:d]
        return g

    return _gd_minimize(grad, np.zeros(d + 1), 1.0 / lip)


def _fit_logistic(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Gradient descent on binary cross-entropy + alpha*||w||^2 (bias free)."""
    n, d = x.shape
    a = np.column_stack([x, np.ones(n)])
    lip = float(np.linalg.eigvalsh(a.T @ a).max()) / (4.0 * n) + 2.0 * alpha

    def grad(wb: np.ndarray) -> np.ndarray:
        p = apply_activation("sigmoid", a @ wb)
        g = a.T @ (p - y) / n
        g[:d] += 2.0 * alpha * wb[:d]
        return g

    return _gd_minimize(grad, np.zeros(d + 1), 1.0 / lip)


def _knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, k: int
) -> np.ndarray:
    if k > train_x.shape[0]:
        warnings.warn(
            f"knn k={k} exceeds {train_x.shape[0]} training rows; clipping", stacklevel=2
        )
        k = train_x.shape[0]
    n_train, d = train_x.shape
    rows = max(1, KNN_BLOCK_BYTES // max(1, 8 * n_train * d))
    out = np.empty(test_x.shape[0])
    for start in range(0, test_x.shape[0], rows):
        block = test_x[start : start + rows]
        d2 = ((block[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
        out[start : start + rows] = train_y[_k_nearest(d2, k)].mean(axis=1)
    return out


def _k_nearest(d2: np.ndarray, k: int) -> np.ndarray:
    """Each row's first k columns in a stable sort of ``d2`` (ties in
    column order), without sorting the whole row: a partition finds the
    k-th smallest distance, and only the columns at or below it, every
    one tied with it included, are stable-sorted."""
    if k >= d2.shape[1]:
        return np.argsort(d2, axis=1, kind="stable")
    kth = np.take_along_axis(d2, np.argpartition(d2, k - 1, axis=1)[:, k - 1 : k], axis=1)
    if not np.isfinite(kth).all():
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    rows, cols = np.nonzero(d2 <= kth)
    # lexsort is stable: by row, then distance, ties kept in column order
    cols = cols[np.lexsort((d2[rows, cols], rows))]
    counts = np.bincount(rows, minlength=len(d2))
    return cols[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]


def baseline_predict(
    kind: str,
    train: tuple[np.ndarray, np.ndarray],
    test_x: np.ndarray,
    config: BaselineConfig = BaselineConfig(),
) -> np.ndarray:
    """Predictions of one baseline trained on pooled training groups.

    mean/median emit a constant; knn averages the k nearest training rows by
    Euclidean distance on the (already scaled) features; ridge and logistic
    are L2-regularized linear fits obtained by gradient descent on their
    convex objectives.
    """
    train_x, train_y = train
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.float64)
    test_x = np.asarray(test_x, dtype=np.float64)
    if train_y.size == 0:
        raise DataError("baseline needs a nonempty training set")
    if kind == "mean":
        return np.full(test_x.shape[0], float(train_y.mean()))
    if kind == "median":
        return np.full(test_x.shape[0], float(np.median(train_y)))
    if kind == "knn":
        return _knn_predict(train_x, train_y, test_x, config.knn_k)
    if kind == "ridge":
        wb = _fit_ridge(train_x, train_y, config.ridge_alpha)
        return test_x @ wb[:-1] + wb[-1]
    if kind == "logistic":
        wb = _fit_logistic(train_x, train_y, config.logistic_alpha)
        return apply_activation("sigmoid", test_x @ wb[:-1] + wb[-1])
    raise ConfigError(f"unknown baseline {kind!r}")


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    group: str
    task: str
    model: str
    metric: str
    value: float
    train_value: float
    n_test: int
    note: str = ""


def _scaled_stat(stat, vals: list[float]) -> np.ndarray:
    """``stat(vals)`` for a statistic that scales with its values, finite for
    finite values: where the direct arithmetic overflows, ``stat`` runs on
    the values divided by their largest magnitude and is scaled back."""
    with np.errstate(all="ignore"):
        out = stat(vals)
        if not np.isfinite(out).all():
            scale = np.abs(vals).max()
            out = stat(np.divide(vals, scale)) * scale
    return out


@dataclass(frozen=True)
class MetricReport:
    rows: tuple[MetricRow, ...]

    def models(self) -> list[str]:
        seen: list[str] = []
        for r in self.rows:
            if r.model not in seen:
                seen.append(r.model)
        return seen

    def summary(self) -> list[dict]:
        """Mean and standard error (sample sd / sqrt(n)) across fold x task."""
        out = []
        for model in self.models():
            vals = [r.value for r in self.rows if r.model == model and math.isfinite(r.value)]
            if not vals:
                continue
            mean = float(_scaled_stat(np.mean, vals))
            stderr = (
                float(_scaled_stat(lambda v: np.std(v, ddof=1) / math.sqrt(len(v)), vals))
                if len(vals) > 1 else 0.0
            )
            out.append(
                {
                    "model": model,
                    "metric": self.rows[0].metric,
                    "mean": mean,
                    "stderr": stderr,
                    "n": len(vals),
                }
            )
        return out

    def to_csv_text(self) -> str:
        lines = [",".join(REPORT_COLUMNS)]
        for r in self.rows:
            cells = (
                r.group, r.task, r.model, r.metric,
                repr(r.value), repr(r.train_value), str(r.n_test), r.note,
            )
            lines.append(",".join(csv_cell(c) for c in cells))
        return "\n".join(lines) + "\n"


def overfit_gap(report: MetricReport) -> dict[str, dict[str, float]]:
    """Boxplot statistics of (test - train) per model across fold x task;
    a gap beyond the float range raises, naming its row."""
    for n, r in enumerate(report.rows, start=1):
        finite = math.isfinite(r.value) and math.isfinite(r.train_value)
        if finite and math.isinf(r.value - r.train_value):
            raise DataError(
                f"report row {n}: test - train gap {r.value!r} - {r.train_value!r} "
                "is beyond the float range"
            )
    out: dict[str, dict[str, float]] = {}
    for model in report.models():
        gaps = [
            r.value - r.train_value
            for r in report.rows
            if r.model == model and math.isfinite(r.value) and math.isfinite(r.train_value)
        ]
        if not gaps:
            continue
        q = _scaled_stat(lambda v: np.percentile(v, [0, 25, 50, 75, 100]), gaps)
        out[model] = {
            "min": float(q[0]),
            "q1": float(q[1]),
            "median": float(q[2]),
            "q3": float(q[3]),
            "max": float(q[4]),
            "n": float(len(gaps)),
        }
    return out


def plot_data_csv(report: MetricReport) -> str:
    """Bar heights (mean), error bars (standard error), and gap boxplot
    statistics, one row per model."""
    gaps = overfit_gap(report)
    lines = ["model,metric,mean,stderr,gap_min,gap_q1,gap_median,gap_q3,gap_max"]
    for entry in report.summary():
        g = gaps.get(entry["model"])
        gap_cells = (
            [repr(g["min"]), repr(g["q1"]), repr(g["median"]), repr(g["q3"]), repr(g["max"])]
            if g
            else ["", "", "", "", ""]
        )
        names = [csv_cell(entry["model"]), csv_cell(entry["metric"])]
        lines.append(",".join(names + [repr(entry["mean"]), repr(entry["stderr"])] + gap_cells))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The cross-validation protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one end-to-end run needs besides the data."""

    task_kind: str = "regression"
    preprocess: PreprocessConfig = PreprocessConfig()
    selection: SelectionConfig = SelectionConfig()
    base: BaseLearnerConfig = BaseLearnerConfig()
    meta: MetaConfig = MetaConfig()
    baselines: BaselineConfig = BaselineConfig()

    def __post_init__(self) -> None:
        if self.task_kind not in ("regression", "classification"):
            raise ConfigError(f"unknown task kind {self.task_kind!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        return strict_dataclass(cls, doc)


@dataclass(frozen=True)
class CvConfig:
    excluded_holdout_groups: tuple[str, ...] = ()
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")


def _score(kind: str, preds: np.ndarray, y: np.ndarray) -> tuple[float, str]:
    if kind == "classification":
        value = auc(preds, y)
        note = "undefined: single-class labels" if math.isnan(value) else ""
        return value, note
    return mse(preds, y), ""


@dataclass(frozen=True)
class _FoldSetup:
    """One fold ready to meta-train: its split, tasks and initial weights."""

    fold_index: int
    group_name: str
    train_table: DatasetTable
    test_table: DatasetTable
    masked_test: DatasetTable
    targets: tuple[TaskSpec, ...]
    tasks: TaskSet
    theta0: BaseLearnerWeights


def _fold_setup(
    raw_table: DatasetTable,
    manifest: Manifest,
    config: PipelineConfig,
    cv: CvConfig,
    fold_index: int,
    group_name: str,
) -> _FoldSetup:
    gid = raw_table.resolve_group(group_name)
    train_mask = raw_table.group_ids != gid
    plan, processed = fit_preprocess(
        raw_table, train_mask, config.preprocess, manifest.differential_pairs
    )
    train_table, test_table = group_holdout_split(processed, group_name)
    masked_test = withhold_targets(test_table)

    target_cols = [c.name for c in processed.columns if c.role == "target"]
    targets = tuple(TaskSpec(col, config.task_kind, "target_task") for col in target_cols)
    tasks = select_training_tasks(train_table, targets, config.selection)

    n_features = model_inputs(train_table).shape[1]
    theta0 = init_weights(
        config.base,
        n_features,
        len(train_table.group_names),
        child_rng(cv.seed, "fold", fold_index, "init"),
    )
    return _FoldSetup(
        fold_index, group_name, train_table, test_table, masked_test, targets, tasks, theta0
    )


def _fold_rows(
    fold: _FoldSetup, theta_star: BaseLearnerWeights, config: PipelineConfig, cv: CvConfig
) -> list[MetricRow]:
    """One fold's report rows: meta-test and baselines on every target task,
    each fitted on the task's training rows, built once per task."""
    train_table, masked_test = fold.train_table, fold.masked_test
    metric_name = "auc" if config.task_kind == "classification" else "mse"
    networks = {"base_initial": fold.theta0, "meta": theta_star}
    rows: list[MetricRow] = []
    for task in fold.targets:
        y_vals, y_obs = fold.test_table.column_values(task.column)
        scored = np.flatnonzero(y_obs)
        if scored.size == 0:
            raise DataError(f"held-out group {fold.group_name!r} has no observed {task.column!r}")
        y_test = y_vals[scored]
        if task.kind == "classification":
            y_test = binarize_labels(y_test)
        data = task_dataset(train_table, task.column, task.kind)
        x_test = model_inputs(masked_test)[scored]
        baselines = (
            CLASSIFICATION_BASELINES if task.kind == "classification" else REGRESSION_BASELINES
        )
        for model_name in (*networks, *baselines):
            if model_name in networks:
                rng_ft = child_rng(cv.seed, "fold", fold.fold_index, model_name, task.column)
                adapted, transform = fine_tune(
                    networks[model_name], task, data, config.base, rng_ft
                )
                preds_test, preds_train = (
                    predict_rows(adapted, table, task.kind, config.base, transform)[index]
                    for table, index in ((masked_test, scored), (train_table, data.row_indices))
                )
            else:
                preds_test, preds_train = (
                    baseline_predict(model_name, (data.x, data.y), x, config.baselines)
                    for x in (x_test, data.x)
                )
            value, note = _score(task.kind, preds_test, y_test)
            train_value, _ = _score(task.kind, preds_train, data.y)
            rows.append(
                MetricRow(
                    fold.group_name, task.column, model_name, metric_name,
                    value, train_value, int(scored.size), note,
                )
            )
    rows.sort(key=lambda r: (r.task, r.model))
    return rows


FoldResult = list[MetricRow] | ConfigError | DataError | NumericError
FOLD_ERRORS = (ConfigError, DataError, NumericError)


def _fold_group_worker(payloads: list[tuple]) -> list[FoldResult]:
    """The rows of each fold in ``payloads`` (consecutive folds of one
    candidate), or the configuration, data or numeric error that stopped
    it; any other exception propagates.

    Every fold is set up, then all meta-train in lockstep, then each is
    scored. A fold after the first failing one carries that failure, as a
    serial run would stop there, and a fold whose setup fails stops the
    folds after it before any of them is set up.
    """
    config, cv = payloads[0][2], payloads[0][3]
    setups: list[_FoldSetup] = []
    failure = None
    for payload in payloads:
        try:
            setups.append(_fold_setup(*payload))
        except FOLD_ERRORS as exc:
            failure = exc
            break
    results: list[FoldResult] = []
    if setups:
        thetas = meta_train(
            [s.train_table for s in setups],
            [s.masked_test for s in setups],
            [s.tasks for s in setups],
            config.base,
            config.meta,
            [child_rng(cv.seed, "fold", s.fold_index, "meta") for s in setups],
            [s.theta0 for s in setups],
        )
        for setup, theta in zip(setups, thetas):
            if isinstance(theta, Exception):
                failure = theta
                break
            try:
                results.append(_fold_rows(setup, theta, config, cv))
            except FOLD_ERRORS as exc:
                failure = exc
                break
    return results + [failure] * (len(payloads) - len(results))


def _fold_payloads(
    raw_table: DatasetTable,
    manifest: Manifest,
    model_config: PipelineConfig,
    cv_config: CvConfig,
) -> list[tuple]:
    """Pre-flight of one candidate: the payload of every eligible held-out
    group's fold, in fold order. Raises before any fold runs
    when the configuration cannot be evaluated on this table."""
    eligible = _holdout_groups(raw_table, cv_config)
    preprocess = model_config.preprocess
    if preprocess.scaling == "standardize_vs_reference_group":
        if preprocess.reference_group is None:
            preprocess = replace(preprocess, reference_group=manifest.reference_group)
            model_config = replace(model_config, preprocess=preprocess)
        if preprocess.reference_group is not None:
            # the reference group's own fold has no reference rows to scale
            # targets with; fail before any fold spends its meta-training
            ref = raw_table.group_names[raw_table.resolve_group(preprocess.reference_group)]
            if ref in eligible:
                raise DataError(
                    f"reference group {ref!r} has no training rows to fit on when held out; "
                    f"exclude it with --holdout-exclude {ref}"
                )
    return [
        (raw_table, manifest, model_config, cv_config, i, name)
        for i, name in enumerate(eligible)
    ]


def _holdout_groups(raw_table: DatasetTable, cv_config: CvConfig) -> list[str]:
    """The groups that take a turn as the held-out fold, in table order: the
    pre-flight checks that hold for every pipeline config alike."""
    if raw_table.n_groups < 2:
        raise DataError("group-holdout CV needs at least two groups")
    unknown = [g for g in cv_config.excluded_holdout_groups if g not in raw_table.group_names]
    if unknown:
        raise DataError(
            f"excluded holdout groups {unknown} are not in the data; "
            f"its groups are {list(raw_table.group_names)}"
        )
    eligible = [g for g in raw_table.group_names if g not in cv_config.excluded_holdout_groups]
    if not eligible:
        raise ConfigError("every group is excluded from holdout; nothing to evaluate")
    return eligible


def _fold_groups(plans: list[list[tuple]], workers: int) -> list[list[tuple]]:
    """The pool payloads of some candidates' fold payloads: each candidate's
    folds split, in fold order, into ``clamp(workers // candidates, 1,
    folds)`` groups of consecutive folds that meta-train in lockstep. One
    worker makes one stack of a candidate's folds; spare workers get a
    candidate's folds apart."""
    groups = []
    for plan in plans:
        n = max(1, min(workers // len(plans), len(plan)))
        cuts = [-(-i * len(plan) // n) for i in range(n + 1)]  # ceil: larger groups first
        groups += [plan[a:b] for a, b in zip(cuts, cuts[1:])]
    return groups


def _map_fold_groups(groups: list[list[tuple]], workers: int) -> Iterable[FoldResult]:
    """``_fold_group_worker`` over ``groups``, one result per fold in
    payload order.

    The pool has no more workers than groups; results do not depend on the
    worker count. With one worker the groups run lazily in this process,
    one at a time as the caller reads their results.
    """
    workers = min(workers, len(groups))
    if workers < 2:
        return itertools.chain.from_iterable(map(_fold_group_worker, groups))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [result for group in pool.map(_fold_group_worker, groups) for result in group]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


CandidateResult = MetricReport | ConfigError | DataError | NumericError


def _run_candidates(
    configs: list[PipelineConfig],
    raw_table: DatasetTable,
    manifest: Manifest,
    cv_config: CvConfig,
) -> list[CandidateResult]:
    """Each config's report, its folds' rows in fold order, or the first
    error in fold order.

    Every config is pre-flighted first, and one that fails sends no folds.
    The others' fold groups (``_fold_groups``) go through one
    ``_map_fold_groups`` in candidate-major order, with ``min(jobs, CPUs)``
    workers: with one, each candidate is one group run lazily in this
    process; with more, they share one pool.
    """
    plans: list = []
    for config in configs:
        try:
            plans.append(_fold_payloads(raw_table, manifest, config, cv_config))
        except FOLD_ERRORS as exc:
            plans.append(exc)
    workers = min(cv_config.jobs, _usable_cpus())
    groups = _fold_groups([plan for plan in plans if isinstance(plan, list)], workers)
    results = iter(_map_fold_groups(groups, workers))
    outcomes: list[CandidateResult] = []
    for plan in plans:
        if isinstance(plan, Exception):
            outcomes.append(plan)
            continue
        folds = list(itertools.islice(results, len(plan)))  # all of them, even after an error
        errors = [fold for fold in folds if isinstance(fold, Exception)]
        outcomes.append(errors[0] if errors else MetricReport(tuple(itertools.chain(*folds))))
    return outcomes


def run_cv(
    raw_table: DatasetTable,
    manifest: Manifest,
    model_config: PipelineConfig,
    cv_config: CvConfig = CvConfig(),
) -> MetricReport:
    """Full group-holdout protocol: one fold per eligible held-out group.

    Each fold preprocesses on its own training rows, selects tasks,
    meta-trains, meta-tests per target task, and scores baselines on the
    same features. Fold order and output ordering are deterministic and
    independent of the worker count. Under ``standardize_vs_reference_group``
    scaling the reference group must be excluded from holdout.
    """
    [outcome] = _run_candidates([model_config], raw_table, manifest, cv_config)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Randomized grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchSpace:
    """The published hyperparameter grids, plus the few knobs the write-up
    left unstated (learning rate, missing threshold) with conventional
    values. Candidates are drawn uniformly and independently per field."""

    n_layers: tuple[int, ...] = (2, 4, 6, 8)
    hidden_dim: tuple[int, ...] = (8, 16, 32, 64, 128)
    embedding_dim: tuple[int, ...] = (8, 16, 32, 64, 128)
    activation: tuple[str, ...] = ("relu", "tanh")
    dropout_rate: tuple[float, ...] = (0.05, 0.1, 0.2)
    reg_kind: tuple[str, ...] = ("l1", "l2", "both")
    reg_strength: tuple[float, ...] = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
    optimizer: tuple[str, ...] = ("adam", "sgd")
    learning_rate: tuple[float, ...] = (0.1, 0.01, 0.001)
    inner_iterations: tuple[int, ...] = (1, 2, 5)
    meta_iterations: tuple[int, ...] = (20, 30, 40, 50, 60, 70, 80, 90, 100)
    epsilon0: tuple[float, ...] = (0.25, 0.5, 0.75)
    k: tuple[int, ...] = (5, 10, 15)
    tasks_per_iteration: tuple[int, ...] = (1, 2, 5)
    selection_method: tuple[str, ...] = ("all_post", "pearson", "mutual_info")
    keep_fraction_range: tuple[float, float] = (0.70, 0.99)
    scaling: tuple[str, ...] = ("none", "normalize", "standardize")
    missing_threshold: tuple[float, ...] = (0.3, 0.5, 0.7)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if not getattr(self, f.name):
                raise ConfigError(f"search space grid {f.name!r} is empty")
        lo, hi = self.keep_fraction_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError("keep_fraction_range must satisfy 0 < low <= high <= 1")


def off_grid_fields(config: BaseLearnerConfig) -> list[str]:
    """Base-learner fields whose values fall outside the published grids:
    ``SearchSpace``'s, leaving out the locally added learning-rate grid."""
    space = SearchSpace()
    return [
        f.name for f in dataclasses.fields(config)
        if f.name != "learning_rate" and getattr(config, f.name) not in getattr(space, f.name)
    ]


def _pick(rng: np.random.Generator, grid: tuple):
    return grid[int(rng.integers(len(grid)))]


def sample_candidate(
    space: SearchSpace, rng: np.random.Generator, template: PipelineConfig
) -> PipelineConfig:
    """One pick per ``space`` field, in declaration order, set in the
    template section that declares a field of its name; ``selection_method``
    sets ``selection.method``, and ``keep_fraction_range`` draws the keep
    fraction uniformly unless the method is ``all_post``, which keeps every
    task (1.0)."""
    sections = ("base", "meta", "selection", "preprocess")
    owner = {f.name: s for s in sections for f in dataclasses.fields(getattr(template, s))}
    picks: dict[str, dict] = {s: {} for s in sections}
    for f in dataclasses.fields(space):
        grid = getattr(space, f.name)
        if f.name == "keep_fraction_range":
            ranked = picks["selection"]["method"] != "all_post"
            picks["selection"]["keep_fraction"] = float(rng.uniform(*grid)) if ranked else 1.0
        else:
            name = "method" if f.name == "selection_method" else f.name
            picks[owner[name]][name] = _pick(rng, grid)
    return replace(template, **{s: replace(getattr(template, s), **picks[s]) for s in sections})


def grid_search(
    space: SearchSpace,
    raw_table: DatasetTable,
    manifest: Manifest,
    budget: int,
    seed: int,
    template: PipelineConfig = PipelineConfig(),
    cv_config: CvConfig = CvConfig(),
) -> tuple[PipelineConfig, list[dict]]:
    """Randomized search: sample ``budget`` candidates, score each by its
    mean CV metric over every fold and task, and return the best.

    Higher AUC wins for classification, lower MSE for regression. The
    leaderboard is deterministic for a given seed; candidates that fail are
    kept with their diagnostics, and an error is raised only if all fail.
    A pre-flight check that no candidate can pass (too few groups, an
    unknown or every group excluded) raises once, before any candidate.
    """
    if budget < 1:
        raise ConfigError("grid search budget must be at least 1")
    _holdout_groups(raw_table, cv_config)
    maximize = template.task_kind == "classification"
    candidates = [
        sample_candidate(space, child_rng(seed, "candidate", i), template) for i in range(budget)
    ]
    reports = _run_candidates(candidates, raw_table, manifest, cv_config)
    entries: list[dict] = []
    for i, (candidate, report) in enumerate(zip(candidates, reports)):
        outcome = _meta_score(report) if isinstance(report, MetricReport) else report
        entry: dict = {"candidate": i, "config": candidate.to_dict()}
        if isinstance(outcome, Exception):
            error = f"{type(outcome).__name__}: {outcome}"
            entry.update(score=float("nan"), status="failed", error=error)
        else:
            entry.update(score=outcome, status="ok")
        entries.append(entry)

    scored = [e for e in entries if e["status"] == "ok"]
    if not scored:
        details = "; ".join(f"candidate {e['candidate']}: {e['error']}" for e in entries)
        raise DataError(f"all grid-search candidates failed: {details}")
    scored.sort(key=lambda e: ((-e["score"]) if maximize else e["score"], e["candidate"]))
    failed = [e for e in entries if e["status"] != "ok"]
    leaderboard = scored + sorted(failed, key=lambda e: e["candidate"])
    for rank, e in enumerate(leaderboard, start=1):
        e["rank"] = rank
    best = PipelineConfig.from_dict(leaderboard[0]["config"])
    return best, leaderboard


def _meta_score(report: MetricReport) -> float | DataError:
    vals = [r.value for r in report.rows if r.model == "meta" and math.isfinite(r.value)]
    if not vals:
        return DataError("no defined metric values for the meta model")
    return float(np.mean(vals))
