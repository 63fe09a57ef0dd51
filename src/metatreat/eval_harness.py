"""Group-holdout cross-validation, metrics, baselines, overfitting-gap
analysis, and randomized grid search over the hyperparameter space.

Every fold holds out one entire treatment group: preprocessing is fitted on
the training rows only, the held-out group's target labels are withheld
from the meta-learner structurally, and the same processed features feed
the baselines so comparisons are like for like. Train-partition scores are
recorded next to test scores for the overfitting-gap analysis, and the
base-learner's pre-meta-training scores are reported alongside the final
meta-learner. A grid search ranks candidates by the final meta-learner's
held-out score alone, and computes nothing else.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .base_learner import BaseLearnerConfig, BaseLearnerWeights, init_weights, network_size
from .data_model import (
    DatasetTable,
    Manifest,
    PreprocessConfig,
    binarize_labels,
    csv_cell,
    fit_preprocess,
    group_holdout_split,
    model_input_columns,
    strict_dataclass,
    task_dataset,
    withhold_targets,
)
from .errors import ConfigError, DataError, NumericError
from .meta_learner import DrawTable, MetaConfig, draw_tables, fine_tune, meta_train
from .nn_core import apply_activation
from .rng import child_rng
from .task_selection import SelectionConfig, select_training_tasks

REGRESSION_BASELINES = ("mean", "median", "knn", "ridge")
CLASSIFICATION_BASELINES = ("knn", "logistic")
# The networks each fold meta-tests, in the order they are stacked.
NETWORKS = ("base_initial", "meta")
REPORT_COLUMNS = ("group", "task", "model", "metric", "value", "train_value", "n_test", "note")

# Upper bound on the (test rows x training rows x features) difference block
# kNN materializes at once, so its memory stays flat as the row count grows.
KNN_BLOCK_BYTES = 16 * 2**20

# Upper bound on the float64 cells of one meta-iteration's task batches
# (``task_batch_cells``), 80 MB; the published grids reach 7.5 million at
# 100 groups and 1,000 features. The count is an upper bound on a batch's
# memory: a sampled batch holds each row's inputs, group id and label, one
# cell per row fewer than counted, and its own arrays and tuples take about
# 900 traced bytes, whatever its size, under the 1,280 of BATCH_CELLS.
MAX_BATCH_CELLS = 10_000_000
BATCH_CELLS = 160

# Newton steps the logistic baseline may take before its fit fails, and the
# largest gradient entry it may stop at.
NEWTON_MAX_STEPS = 50
LOGISTIC_GRAD_TOL = 1e-8

# A training step's fixed cost, in network weights: the numpy calls a step
# makes whatever the network's size. It only orders the fold groups a pool
# receives (``_group_work``), so results never depend on it.
STEP_OVERHEAD_WEIGHTS = 2_000


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
    u = _midranks(scores)[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Each score's 1-based rank in ascending order, the members of a tie
    group each taking its mean rank, or NaN throughout if a score is NaN:
    ``scipy.stats.rankdata(scores, method="average")``, bit for bit. A tie
    group at sorted positions [start, end) has midrank (start + end + 1) / 2."""
    if np.isnan(scores).any():
        return np.full(scores.size, np.nan)
    order = np.argsort(scores, kind="stable")
    ordered = scores[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], scores.size)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


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


def _solve(m: np.ndarray, rhs: np.ndarray, baseline: str) -> np.ndarray:
    """The least-norm solution of ``m @ w = rhs`` for a baseline fit's
    curvature matrix ``m``, which must be finite for the SVD to converge."""
    if not np.isfinite(m).all():
        raise NumericError(f"{baseline} baseline: curvature matrix of its fit is not finite")
    return np.linalg.lstsq(m, rhs, rcond=None)[0]


def _fit_ridge(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """The minimizer of mean squared error + alpha*||w||^2 (bias free),
    from its normal equations."""
    n, d = x.shape
    a = np.column_stack([x, np.ones(n)])
    hess = 2.0 * a.T @ a / n
    hess[np.arange(d), np.arange(d)] += 2.0 * alpha
    return _solve(hess, 2.0 * a.T @ y / n, "ridge")


def _fit_logistic(x: np.ndarray, y: np.ndarray, alpha: float) -> np.ndarray:
    """Newton's method from zero weights on binary cross-entropy +
    alpha*||w||^2 (bias free), until a step's largest entry is at most
    1e-10 of the weights' largest magnitude (or of 1). A stop where the
    gradient is not zero, to ``LOGISTIC_GRAD_TOL``, is a failure: a step
    that saturates rows on their wrong side drops them from the Hessian,
    and the next, tiny beside the weights, passes the step test."""
    n, d = x.shape
    a = np.column_stack([x, np.ones(n)])
    penalty = np.append(np.full(d, 2.0 * alpha), 0.0)
    wb = np.zeros(d + 1)
    for _ in range(NEWTON_MAX_STEPS):
        p = apply_activation("sigmoid", a @ wb)
        hess = (a.T * (p * (1.0 - p))) @ a / n + np.diag(penalty)
        step = _solve(hess, a.T @ (p - y) / n + penalty * wb, "logistic")
        wb -= step
        if np.abs(step).max() <= 1e-10 * max(1.0, np.abs(wb).max()):
            p = apply_activation("sigmoid", a @ wb)
            grad = np.abs(a.T @ (p - y) / n + penalty * wb).max()
            if not grad <= LOGISTIC_GRAD_TOL:
                raise NumericError(
                    f"logistic baseline: Newton steps stopped where the gradient is {grad:.3g}, "
                    "not at a minimum"
                )
            return wb
    raise NumericError(
        f"logistic baseline: fit did not converge in {NEWTON_MAX_STEPS} Newton steps"
    )


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
    are L2-regularized linear fits with an unpenalized bias. Ridge solves
    its normal equations; logistic takes Newton steps and raises
    NumericError if they have not converged within NEWTON_MAX_STEPS.
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
    """One fold ready to meta-train: its split, its target columns, the
    draw tables of its training columns (the training side, then the
    held-out one), and its initial weights."""

    fold_index: int
    group_name: str
    train_table: DatasetTable
    test_table: DatasetTable
    targets: tuple[str, ...]
    sides: tuple[DrawTable, DrawTable]
    theta0: BaseLearnerWeights


def task_batch_cells(meta: MetaConfig, n_groups: int, n_features: int) -> int:
    """An upper bound on the cells of one meta-iteration's task batches:
    per batch, k rows of each group, each its features, group id and label
    plus one spare cell, and ``BATCH_CELLS``."""
    return meta.tasks_per_iteration * (meta.k * n_groups * (n_features + 3) + BATCH_CELLS)


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
    # cells near the float limit overflow the fitted statistics; the
    # network's or a baseline's check reports the failure
    with np.errstate(all="ignore"):
        plan, processed = fit_preprocess(
            raw_table, train_mask, config.preprocess, manifest.differential_pairs
        )
    train_table, test_table = group_holdout_split(processed, group_name)

    targets = tuple(c.name for c in processed.columns if c.role == "target")
    tasks = select_training_tasks(train_table, targets, config.selection)

    sides = draw_tables(train_table, withhold_targets(test_table), tasks)
    n_features = sides[0][0].shape[1]
    n_groups = len(train_table.group_names)
    meta = config.meta
    cells = task_batch_cells(meta, n_groups, n_features)
    if cells > MAX_BATCH_CELLS:  # refused before any row is drawn
        raise ConfigError(
            f"task batches of {cells} cells (meta.k {meta.k}, meta.tasks_per_iteration "
            f"{meta.tasks_per_iteration}, {n_groups} groups, {n_features} input features) "
            f"exceed the cap of {MAX_BATCH_CELLS}"
        )
    theta0 = init_weights(
        config.base, n_features, n_groups, child_rng(cv.seed, "fold", fold_index, "init")
    )
    if meta.meta_iterations > 0:  # groups whose draws will repeat rows
        for table, (*_, groups) in zip((train_table, test_table), sides):
            for rows in groups:
                if rows.size < meta.k:
                    name = table.group_names[table.group_ids[rows[0]]]
                    warnings.warn(
                        f"group {name!r} has {rows.size} usable rows < k={meta.k}; "
                        "sampling with replacement",
                        stacklevel=2,
                    )
    return _FoldSetup(fold_index, group_name, train_table, test_table, targets, sides, theta0)


def _fold_rows(
    fold: _FoldSetup,
    theta_star: BaseLearnerWeights,
    config: PipelineConfig,
    cv: CvConfig,
    ranked_only: bool,
) -> list[MetricRow]:
    """One fold's report rows: on every target task, the networks'
    meta-test, fine-tuned as one stack on the task's training rows (cut
    once per task from the training side's inputs) and scored on the
    held-out rows; every target is of the run's task kind. ``cv``
    meta-tests both ``NETWORKS`` and adds the baselines and every
    training-row score. A search (``ranked_only``) meta-tests the learned
    network alone on the held-out rows and keeps only what ``_meta_score``
    reads, the ``meta`` values (``train_value`` NaN)."""
    training, held_out = (side[:2] for side in fold.sides)  # (inputs, group ids)
    kind = config.task_kind
    metric_name = "auc" if kind == "classification" else "mse"
    if ranked_only:
        networks, inputs, baselines = {"meta": theta_star}, (held_out,), ()
    else:
        networks = dict(zip(NETWORKS, (fold.theta0, theta_star)))
        inputs = (held_out, training)
        baselines = CLASSIFICATION_BASELINES if kind == "classification" else REGRESSION_BASELINES
    rows: list[MetricRow] = []
    for column in fold.targets:
        y_vals, y_obs = fold.test_table.column_values(column)
        scored = np.flatnonzero(y_obs)
        if scored.size == 0:
            raise DataError(f"held-out group {fold.group_name!r} has no observed {column!r}")
        y_test = y_vals[scored]
        if kind == "classification":
            y_test = binarize_labels(y_test)
        observed, task = task_dataset(fold.train_table, training[0], column, kind)
        x_train, _, y_train = task
        rngs = [child_rng(cv.seed, "fold", fold.fold_index, name, column) for name in networks]
        on_test, *on_train = fine_tune(
            list(networks.values()), kind, task, inputs, config.base, rngs
        )
        # each model's held-out predictions, then any on its training rows
        predictions = {
            name: (on_test[n][scored], *(p[n][observed] for p in on_train))
            for n, name in enumerate(networks)
        }
        x_test = held_out[0][scored] if baselines else None
        with np.errstate(all="ignore"):
            for name in baselines:
                predictions[name] = tuple(
                    baseline_predict(name, (x_train, y_train), x, config.baselines)
                    for x in (x_test, x_train)
                )
            for model_name, (preds_test, *preds_train) in predictions.items():
                value, note = _score(kind, preds_test, y_test)
                train_value = math.nan
                if preds_train:
                    train_value, _ = _score(kind, preds_train[0], y_train)
                rows.append(
                    MetricRow(
                        fold.group_name, column, model_name, metric_name,
                        value, train_value, int(scored.size), note,
                    )
                )
    rows.sort(key=lambda r: (r.task, r.model))
    return rows


FOLD_ERRORS = (ConfigError, DataError, NumericError)


def _fold_group_worker(
    payloads: list[tuple], ranked_only: bool = False
) -> tuple[list[MetricRow] | ConfigError | DataError | NumericError, list[str]]:
    """The rows of the folds in ``payloads`` (consecutive folds of one
    candidate) in fold order, as ``_fold_rows`` scores them with
    ``ranked_only``, or the first configuration, data or numeric error in
    fold order, as a serial run would stop there; any other exception
    propagates. Every fold is set up, its draw tables built with it, then
    all meta-train in lockstep, then each is scored; a fold whose setup
    fails stops the folds after it. Beside it, the warning messages of each
    fold up to that error, as ``fold 'g0': <message>``: its setup's, short
    groups last, then its scoring's."""
    config, cv = payloads[0][2], payloads[0][3]
    said: list[list[str]] = [[] for _ in payloads]  # each fold's warning messages
    setups: list[_FoldSetup] = []
    failure = None
    for payload, notes in zip(payloads, said):
        try:
            setups.append(_recorded(notes, _fold_setup, *payload))
        except FOLD_ERRORS as exc:
            failure = exc
            break
    thetas = meta_train(
        [s.sides for s in setups],
        config.base,
        config.meta,
        [child_rng(cv.seed, "fold", s.fold_index, "meta") for s in setups],
        [s.theta0 for s in setups],
    )
    rows: list[MetricRow] = []
    for f, (setup, theta) in enumerate(zip(setups, thetas)):
        try:
            if isinstance(theta, Exception):
                raise theta
            rows += _recorded(said[f], _fold_rows, setup, theta, config, cv, ranked_only)
        except FOLD_ERRORS as exc:
            failure, said = exc, said[: f + 1]
            break
    messages = [f"fold {p[-1]!r}: {m}" for p, fold in zip(payloads, said) for m in fold]
    return (rows if failure is None else failure), messages


def _recorded(messages: list[str], call, *args):
    """``call(*args)``, the messages of the warnings it raises added to ``messages``, unshown."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return call(*args)
        finally:
            messages += [str(w.message) for w in caught]


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
        ref = preprocess.reference_group
        if ref is not None and ref not in raw_table.group_names:
            raise DataError(
                f"reference group {ref!r} is not in the data; "
                f"its groups are {list(raw_table.group_names)}"
            )
        # the reference group's own fold has no reference rows to scale
        # targets with; fail before any fold spends its meta-training
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


def _fold_groups(plan: list[tuple], share: int) -> list[list[tuple]]:
    """One candidate's fold payloads split, in fold order, into ``clamp(share,
    1, folds)`` groups of consecutive folds that meta-train in lockstep. A
    share of one worker makes one stack of the folds; a larger share gets
    them apart."""
    n = max(1, min(share, len(plan)))
    cuts = [-(-i * len(plan) // n) for i in range(n + 1)]  # ceil: larger groups first
    return [plan[a:b] for a, b in zip(cuts, cuts[1:])]


def _group_work(group: list[tuple]) -> int:
    """A fold group's estimated work: folds x meta-iterations x tasks per
    iteration x inner steps x (network weights + ``STEP_OVERHEAD_WEIGHTS``),
    the network as wide as the raw table's inputs."""
    raw_table, _, config = group[0][:3]
    base, meta = config.base, config.meta
    weights = network_size(base, len(model_input_columns(raw_table)), raw_table.n_groups)
    steps = len(group) * meta.meta_iterations * meta.tasks_per_iteration * base.inner_iterations
    return steps * (weights + STEP_OVERHEAD_WEIGHTS)


def _map_fold_groups(groups: list[list[tuple]], workers: int, ranked_only: bool):
    """``_fold_group_worker`` over ``groups``, scoring as ``ranked_only``
    says: one outcome per group, in group order.

    With one worker the groups run in this process, one at a time in
    group order. A pool has no more workers than groups and receives the
    groups largest ``_group_work`` first, ties in group order, so that a
    long group does not start last. No worker prints: each outcome carries
    its warning messages, and outcomes depend on neither the worker count
    nor that order.
    """
    worker = functools.partial(_fold_group_worker, ranked_only=ranked_only)
    workers = min(workers, len(groups))
    if workers < 2:
        return [worker(group) for group in groups]
    order = sorted(range(len(groups)), key=lambda i: -_group_work(groups[i]))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        done = dict(zip(order, pool.map(worker, [groups[i] for i in order])))
    return [done[i] for i in range(len(groups))]


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
    ranked_only: bool = False,
) -> list[CandidateResult]:
    """Each config's report, its folds' rows (``_fold_rows``, scored as
    ``ranked_only`` says) in fold order, or the first error in fold order.

    Every config is pre-flighted first, and one that fails sends no folds.
    The others' fold groups (``_fold_groups``) go through one
    ``_map_fold_groups`` in candidate-major order, with ``min(jobs, CPUs)``
    workers: with one, each candidate is one group run in this process;
    with more, they share one pool. Once all have run, this process warns
    each candidate's fold messages in order up to its error, in a search
    (``ranked_only``) each prefixed ``candidate 3, ``.
    """
    plans: list = []
    for config in configs:
        try:
            plans.append(_fold_payloads(raw_table, manifest, config, cv_config))
        except FOLD_ERRORS as exc:
            plans.append(exc)
    workers = min(cv_config.jobs, _usable_cpus())
    share = workers // max(1, sum(isinstance(plan, list) for plan in plans))
    splits = [_fold_groups(plan, share) if isinstance(plan, list) else [] for plan in plans]
    done = iter(_map_fold_groups([g for split in splits for g in split], workers, ranked_only))
    outcomes: list[CandidateResult] = []
    with warnings.catch_warnings():  # forgets what was shown: an earlier run hides nothing
        for c, (plan, split) in enumerate(zip(plans, splits)):
            prefix = f"candidate {c}, " if ranked_only else ""
            results = [(plan, [])] if isinstance(plan, Exception) else [next(done) for _ in split]
            rows: list[MetricRow] = []
            for result, messages in results:
                for message in messages:
                    warnings.warn(prefix + message, stacklevel=3)
                if isinstance(result, Exception):
                    break
                rows += result
            outcomes.append(result if isinstance(result, Exception) else MetricReport(tuple(rows)))
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
    scaling the reference group must be excluded from holdout. The folds'
    warnings are raised here, prefixed ``fold 'g0': ``, up to the failure.
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
    learned network's mean held-out metric over every fold and task, and
    return the best.

    Higher AUC wins for classification, lower MSE for regression. A fold
    meta-tests only the learned network (``_fold_rows``), so a candidate
    fails only in its pre-flight, a fold's setup, meta-training, that
    meta-test, or on a held-out group with no observed target. The
    leaderboard is deterministic for a given seed; candidates that fail are
    kept with their diagnostics, and an error is raised only if all fail.
    A pre-flight check that no candidate can pass (too few groups, an
    unknown or every group excluded) raises once, before any candidate.
    Its warnings are ``run_cv``'s, each prefixed ``candidate 3, ``.
    """
    if budget < 1:
        raise ConfigError("grid search budget must be at least 1")
    _holdout_groups(raw_table, cv_config)
    maximize = template.task_kind == "classification"
    candidates = [
        sample_candidate(space, child_rng(seed, "candidate", i), template) for i in range(budget)
    ]
    reports = _run_candidates(candidates, raw_table, manifest, cv_config, ranked_only=True)
    entries: list[dict] = []
    for i, (candidate, report) in enumerate(zip(candidates, reports)):
        outcome = _meta_score(report) if isinstance(report, MetricReport) else report
        entry: dict = {"candidate": i, "config": candidate.to_dict()}
        if isinstance(outcome, Exception):
            error = f"{type(outcome).__name__}: {outcome}"
            entry.update(score=None, status="failed", error=error)
        else:
            entry.update(score=outcome, status="ok")
        entries.append(entry)

    scored = [e for e in entries if e["status"] == "ok"]
    if not scored:
        details = "; ".join(f"candidate {e['candidate']}: {e['error']}" for e in entries)
        raise DataError(f"all grid-search candidates failed: {details}")
    scored.sort(key=lambda e: ((-e["score"]) if maximize else e["score"], e["candidate"]))
    leaderboard = scored + [e for e in entries if e["status"] != "ok"]
    for rank, e in enumerate(leaderboard, start=1):
        e["rank"] = rank
    return candidates[leaderboard[0]["candidate"]], leaderboard


def _meta_score(report: MetricReport) -> float | DataError:
    vals = [r.value for r in report.rows if r.model == "meta" and math.isfinite(r.value)]
    if not vals:
        return DataError("no defined metric values for the meta model")
    return float(_scaled_stat(np.mean, vals))
