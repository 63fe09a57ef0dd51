import dataclasses
import importlib
import json
import math
import pkgutil
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metatreat
from metatreat import data_model, eval_harness, meta_learner
from metatreat.base_learner import BaseLearnerConfig, StepWorkspace, network_size
from metatreat.data_model import ColumnMeta, DatasetTable, PreprocessConfig, model_input_columns
from metatreat.errors import ConfigError, DataError, NumericError
from metatreat.eval_harness import (
    BaselineConfig,
    CvConfig,
    MetricReport,
    MetricRow,
    PipelineConfig,
    SearchSpace,
    auc,
    baseline_predict,
    grid_search,
    mse,
    overfit_gap,
    plot_data_csv,
    run_cv,
    sample_candidate,
    strict_dataclass,
)
from metatreat.meta_learner import MetaConfig
from metatreat.rng import child_rng
from metatreat.synth_gen import GeneratorConfig, generate
from metatreat.task_selection import SelectionConfig, select_training_tasks
from oracles import pairwise_auc, reference_logistic_gradient, reference_ridge

FAST_PIPELINE = PipelineConfig(
    task_kind="regression",
    preprocess=PreprocessConfig(scaling="standardize"),
    selection=SelectionConfig("all_post"),
    base=BaseLearnerConfig(
        n_layers=2, hidden_dim=8, embedding_dim=4, activation="tanh",
        dropout_rate=0.05, reg_kind="l2", reg_strength=1e-4,
        optimizer="sgd", learning_rate=0.05, inner_iterations=2,
    ),
    meta=MetaConfig(meta_iterations=4, epsilon0=0.5, k=4),
)


def small_raw(seed=0, n_groups=3, n_per_group=12):
    config = GeneratorConfig(
        n_groups=n_groups,
        n_per_group=n_per_group,
        d_pre=3,
        d_aux=3,
        delta=tuple(np.linspace(-1.0, 1.0, n_groups)),
        noise_sigma=0.5,
        seed=seed,
    )
    return generate(config)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_auc_perfect_ranking():
    assert auc(np.array([0.9, 0.8, 0.7, 0.6]), np.array([1.0, 1, 0, 0])) == 1.0


def test_auc_all_ties_is_half():
    assert auc(np.full(6, 0.3), np.array([1.0, 0, 1, 0, 1, 0])) == 0.5


def test_auc_pairwise_hand_case():
    # labels [0,1,0,1] with increasing scores: 3 of 4 pairs ranked correctly,
    # one reversed -> 0.75
    assert auc(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0, 1, 0, 1])) == 0.75


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        labels = rng.integers(0, 2, n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        # coarse grid of scores forces plenty of ties
        scores = rng.integers(0, 5, n).astype(float) / 4.0
        assert abs(auc(scores, labels) - pairwise_auc(scores, labels)) <= 1e-12


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(1)
    scores = rng.normal(size=30)
    labels = rng.integers(0, 2, 30).astype(float)
    labels[0], labels[1] = 0.0, 1.0
    base = auc(scores, labels)
    assert auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
    assert auc(3.0 * scores + 11.0, labels) == pytest.approx(base, abs=1e-12)


SCORES_WITH_TIES = st.lists(st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, np.inf]), max_size=40)
DISTINCT_SCORES = st.lists(st.floats(allow_nan=False), max_size=40, unique=True)


@settings(max_examples=200, deadline=None)
@given(scores=SCORES_WITH_TIES | DISTINCT_SCORES, data=st.data())
def test_auc_midranks_equal_rankdata_bit_for_bit(scores, data):
    from scipy.stats import rankdata

    scores = np.array(scores, dtype=np.float64)
    ranks = rankdata(scores, method="average")
    assert eval_harness._midranks(scores).tobytes() == ranks.tobytes()
    labels = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(scores),
                                         max_size=len(scores))))
    n_pos = int(labels.sum())
    if 0 < n_pos < labels.size:
        u = ranks[labels == 1.0].sum() - n_pos * (n_pos + 1) / 2.0
        assert auc(scores, labels) == float(u / (n_pos * (labels.size - n_pos)))


def test_auc_midranks_are_nan_when_a_score_is():
    from scipy.stats import rankdata

    scores = np.array([0.5, np.nan, 0.1])
    assert np.isnan(rankdata(scores, method="average")).all()
    assert np.isnan(eval_harness._midranks(scores)).all()
    assert math.isnan(auc(scores, np.array([1.0, 0.0, 0.0])))


def test_auc_single_class_is_nan():
    assert math.isnan(auc(np.array([0.1, 0.2]), np.array([1.0, 1.0])))


def test_auc_rejects_nonbinary_labels():
    with pytest.raises(DataError):
        auc(np.array([0.1, 0.2]), np.array([1.0, 2.0]))


def test_mse_cases():
    assert mse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0
    assert mse(np.array([0.0, 0.0]), np.array([1.0, -1.0])) == 1.0
    assert mse(np.array([1.0, 2, 3]), np.array([2.0, 2, 2])) == pytest.approx(2.0 / 3.0)


def test_mse_symmetry_and_shift_invariance():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=20), rng.normal(size=20)
    assert mse(a, b) == pytest.approx(mse(b, a), abs=1e-12)
    assert mse(a + 5.0, b + 5.0) == pytest.approx(mse(a, b), abs=1e-9)


def test_mse_length_mismatch():
    with pytest.raises(DataError):
        mse(np.ones(3), np.ones(4))


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def test_mean_baseline_constant():
    preds = baseline_predict("mean", (np.zeros((3, 1)), np.array([1.0, 2, 3])), np.zeros((5, 1)))
    assert np.all(preds == 2.0)


def test_median_baseline_constant():
    preds = baseline_predict("median", (np.zeros((4, 1)), np.array([1.0, 2, 9, 100])), np.zeros((2, 1)))
    assert np.all(preds == 5.5)


def test_one_nn_returns_coincident_label():
    train_x = np.array([[0.0, 0.0], [5.0, 5.0], [9.0, 0.0]])
    train_y = np.array([1.0, 2.0, 3.0])
    preds = baseline_predict(
        "knn", (train_x, train_y), np.array([[5.0, 5.0]]), BaselineConfig(knn_k=1)
    )
    assert preds[0] == 2.0


def test_knn_clips_k_with_warning():
    with pytest.warns(UserWarning, match="clipping"):
        preds = baseline_predict(
            "knn",
            (np.zeros((2, 1)), np.array([1.0, 3.0])),
            np.zeros((1, 1)),
            BaselineConfig(knn_k=10),
        )
    assert preds[0] == 2.0


@settings(max_examples=150, deadline=None)
@given(
    n_train=st.integers(1, 12),
    n_test=st.integers(0, 12),
    d=st.integers(1, 3),
    k=st.integers(1, 15),
    block_bytes=st.integers(1, 4000),
    seed=st.integers(0, 2**16),
)
def test_knn_blockwise_matches_one_shot_formula(n_train, n_test, d, k, block_bytes, seed):
    # integer features on a small range give many distance ties, whose order
    # the stable sort keeps; small byte caps split the test rows into blocks
    rng = np.random.default_rng(seed)
    train_x = rng.integers(-2, 3, size=(n_train, d)).astype(np.float64)
    train_y = rng.normal(size=n_train)
    test_x = rng.integers(-2, 3, size=(n_test, d)).astype(np.float64)
    d2 = ((test_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, : min(k, n_train)]
    expected = train_y[neighbors].mean(axis=1)
    with mock.patch.object(eval_harness, "KNN_BLOCK_BYTES", block_bytes), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = baseline_predict("knn", (train_x, train_y), test_x, BaselineConfig(knn_k=k))
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("k", [1, 3, 4, 6, 7])
def test_knn_duplicate_rows_keep_stable_sort_order(k):
    # duplicated training rows tie exactly; the neighbours (and so the order
    # their labels are summed in) must be those of a full stable sort, up to
    # k == n_train
    base = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    train_x = np.vstack([base, base[:3]])
    train_y = np.array([0.1, 1e16, 0.3, -1e16, 0.7, 1.0, 0.2])
    test_x = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, 0.0]])
    d2 = ((test_x[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2)
    expected = train_y[np.argsort(d2, axis=1, kind="stable")[:, :k]].mean(axis=1)
    got = baseline_predict("knn", (train_x, train_y), test_x, BaselineConfig(knn_k=k))
    assert np.array_equal(got, expected)


def test_ridge_zero_reg_recovers_exact_line():
    x = np.arange(1.0, 9.0).reshape(-1, 1)
    y = 2.0 * x[:, 0]
    config = BaselineConfig(ridge_alpha=0.0)
    preds = baseline_predict("ridge", (x, y), np.array([[10.0]]), config)
    # closed-form least squares oracle: slope 2, intercept 0
    coef, *_ = np.linalg.lstsq(np.column_stack([x, np.ones(len(x))]), y, rcond=None)
    assert coef[0] == pytest.approx(2.0, abs=1e-9)
    assert preds[0] == pytest.approx(20.0, abs=1e-6)


def test_ridge_matches_normal_equation_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(30, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 0.1 * rng.normal(size=30)
    alpha = 0.7
    config = BaselineConfig(ridge_alpha=alpha)
    preds = baseline_predict("ridge", (x, y), x, config)
    # oracle: solve the regularized normal equations (bias unpenalized)
    a = np.column_stack([x, np.ones(30)])
    reg = np.eye(5) * (30 * alpha)
    reg[4, 4] = 0.0
    wb = np.linalg.solve(a.T @ a + reg, a.T @ y)
    assert np.allclose(preds, a @ wb, atol=1e-6)


def test_logistic_separates_separable_data():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.normal(-2.0, 0.5, (30, 1)), rng.normal(2.0, 0.5, (30, 1))])
    y = np.concatenate([np.zeros(30), np.ones(30)])
    preds = baseline_predict("logistic", (x, y), x, BaselineConfig(logistic_alpha=1e-3))
    assert auc(preds, y) == 1.0
    assert np.all((preds > 0) & (preds < 1))


def with_bias(x):
    return np.column_stack([x, np.ones(len(x))])


@given(
    d=st.integers(1, 5),
    extra_rows=st.integers(-4, 40),
    alpha=st.sampled_from([0.0, 1e-3, 0.1, 1.0]) | st.floats(1e-6, 10.0),
    wide=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_ridge_matches_augmented_least_squares_oracle(d, extra_rows, alpha, wide, seed):
    # the normal equations square the design's condition number, so the fit
    # is held to the oracle within that condition number's rounding; a
    # column a thousand times the others' scale makes it about 10^6
    rng = np.random.default_rng(seed)
    n = max(2, d + 1 + extra_rows)
    x = rng.normal(size=(n, d))
    if wide:
        x[:, 0] *= 1e3
    y = rng.normal(size=n)
    wb = eval_harness._fit_ridge(x, y, alpha)
    expected = reference_ridge(x, y, alpha)
    a = with_bias(x)
    curvature = 2.0 * a.T @ a / n + np.diag(np.append(np.full(d, 2.0 * alpha), 0.0))
    bound = 1e-13 * np.linalg.cond(curvature) * np.abs(y).max()
    assert np.abs(a @ wb - a @ expected).max() <= bound
    preds = baseline_predict("ridge", (x, y), x, BaselineConfig(ridge_alpha=alpha))
    assert np.array_equal(preds, x @ wb[:-1] + wb[-1])


@given(levels=st.integers(2, 5), d=st.integers(0, 3), extra_rows=st.integers(2, 40),
       seed=st.integers(0, 2**16))
def test_unpenalized_ridge_on_one_hot_columns_is_the_minimum_norm_fit(levels, d, extra_rows, seed):
    # one-hot levels sum to the bias column, so at alpha 0 many weights fit
    # equally well; the fit is the one of least norm, which gradient
    # descent from zero weights would also reach
    rng = np.random.default_rng(seed)
    n = levels + d + extra_rows
    codes = np.concatenate([np.arange(levels), rng.integers(levels, size=n - levels)])
    x = np.column_stack([rng.normal(size=(n, d)), np.eye(levels)[codes]])
    y = rng.normal(size=n)
    wb = eval_harness._fit_ridge(x, y, 0.0)
    expected = reference_ridge(x, y, 0.0)
    assert np.allclose(wb, expected, rtol=0.0, atol=1e-9 * np.abs(expected).max())


@given(
    d=st.integers(1, 5),
    rows_per_weight=st.integers(10, 40),
    alpha=st.sampled_from([1e-3, 0.1, 1.0]) | st.floats(1e-4, 10.0),
    wide=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_logistic_fit_is_stationary(d, rows_per_weight, alpha, wide, seed):
    # labels drawn from a noisy logistic model on ten or more rows per
    # weight; a column a thousand times the others' scale scales its
    # gradient entry with it
    rng = np.random.default_rng(seed)
    n = rows_per_weight * (d + 1)
    x = rng.normal(size=(n, d))
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-x @ rng.normal(0.0, 2.0, d)))).astype(float)
    if wide:
        x[:, 0] *= 1e3
    wb = eval_harness._fit_logistic(x, y, alpha)
    grad = reference_logistic_gradient(x, y, alpha, wb)
    assert np.all(np.abs(grad) <= 1e-9 * np.abs(with_bias(x)).max(axis=0))


def test_unpenalized_logistic_on_separable_data_fails_naming_the_baseline():
    # separable rows have no finite minimizer at alpha 0: the weights grow
    # with every Newton step, and the fit fails instead of stopping early
    x = np.linspace(-1.0, 1.0, 20).reshape(-1, 1)
    y = (x[:, 0] > 0.0).astype(float)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="^logistic baseline: fit did not converge in 50 Newton steps$"
    ):
        baseline_predict("logistic", (x, y), x, BaselineConfig(logistic_alpha=0.0))


def _logistic_draw(seed):
    """45 rows of two standard-normal features, labelled by a logistic model
    whose weights are drawn from N(0, 3^2)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(45, 2))
    w = rng.normal(0.0, 3.0, 2)
    return x, (rng.random(45) < 1.0 / (1.0 + np.exp(-x @ w))).astype(float)


def test_unpenalized_logistic_stop_short_of_a_minimum_fails():
    # seed 6230 of a sweep over such draws at alpha 0: a Newton step pushes
    # rows to their wrong side, where they saturate and leave the Hessian,
    # and the next step is tiny beside weights near 1e11, so the step test
    # passes where the gradient reads 0.57
    x, y = _logistic_draw(6230)
    with np.errstate(all="ignore"), pytest.raises(
        NumericError, match="^logistic baseline: Newton steps stopped where the gradient is 0.57, "
    ):
        eval_harness._fit_logistic(x, y, 0.0)


def test_logistic_gradient_check_keeps_an_ordinary_fit_bitwise():
    # the check reads the fit it stops at and never moves it
    wb = eval_harness._fit_logistic(*_logistic_draw(3), 0.0)
    assert [v.hex() for v in wb.tolist()] == [
        "-0x1.0800eb8f9a63ap+1", "-0x1.a4857bca3b7e1p-1", "0x1.97352daee845dp-3",
    ]


EXTREME = st.sampled_from([0.0, 1.0, -1.0, 1e-300, 1e150, -1e150, 1e200, 1e308, -1e308])


@given(
    cells=st.lists(EXTREME | st.floats(-1e6, 1e6), min_size=2, max_size=24),
    d=st.integers(1, 3),
    kind=st.sampled_from(["ridge", "logistic"]),
    alpha=st.sampled_from([0.0, 1e-3, 1.0, 1e308]),
    seed=st.integers(0, 2**16),
)
def test_linear_baselines_never_raise_linalg_errors(cells, d, kind, alpha, seed):
    # duplicated, constant, collinear and overflowing columns, at any
    # penalty: a fit returns or fails with a NumericError naming itself
    rng = np.random.default_rng(seed)
    n = max(2, len(cells) // d)
    x = np.resize(np.array(cells), (n, d))
    y = rng.integers(0, 2, n).astype(float) if kind == "logistic" else rng.normal(size=n)
    config = BaselineConfig(ridge_alpha=alpha, logistic_alpha=alpha)
    with np.errstate(all="ignore"):
        try:
            preds = baseline_predict(kind, (x, y), x, config)
        except NumericError as exc:
            assert str(exc).startswith(f"{kind} baseline: ")
        else:
            assert preds.shape == (n,)


def test_unknown_baseline_rejected():
    with pytest.raises(ConfigError):
        baseline_predict("boosted_trees", (np.zeros((2, 1)), np.zeros(2)), np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# run_cv
# ---------------------------------------------------------------------------


def test_run_cv_fold_and_row_counts():
    table, manifest, _ = small_raw()
    report = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=1))
    groups = {r.group for r in report.rows}
    assert groups == {"g0", "g1", "g2"}
    models = set(report.models())
    assert models == {"base_initial", "meta", "mean", "median", "knn", "ridge"}
    # rows = folds x tasks x models
    assert len(report.rows) == 3 * 1 * 6


def test_run_cv_excluded_group_drops_a_fold():
    table, manifest, _ = small_raw()
    report = run_cv(
        table, manifest, FAST_PIPELINE, CvConfig(excluded_holdout_groups=("g1",), seed=1)
    )
    assert {r.group for r in report.rows} == {"g0", "g2"}
    assert len(report.rows) == 2 * 1 * 6


def test_run_cv_classification_models():
    table, manifest, _ = small_raw(seed=3)
    pipeline = PipelineConfig(
        task_kind="classification",
        preprocess=FAST_PIPELINE.preprocess,
        selection=FAST_PIPELINE.selection,
        base=FAST_PIPELINE.base,
        meta=FAST_PIPELINE.meta,
    )
    report = run_cv(table, manifest, pipeline, CvConfig(seed=2))
    assert set(report.models()) == {"base_initial", "meta", "knn", "logistic"}
    assert all(r.metric == "auc" for r in report.rows)
    for r in report.rows:
        if r.note == "":
            assert 0.0 <= r.value <= 1.0


def test_meta_training_regresses_and_the_meta_test_takes_the_run_kind(monkeypatch):
    # training tasks are post-treatment features and always regress; only
    # the meta-test of a target takes the run's task kind
    table, manifest, _ = small_raw(seed=3)
    pipeline = dataclasses.replace(FAST_PIPELINE, task_kind="classification")
    kinds = {"meta_step": [], "fine_tune": []}
    inside = []
    update = meta_learner.inner_update

    def recorded(ws, x, group_ids, y, kind, *args):
        kinds[inside[-1]].append(kind)
        return update(ws, x, group_ids, y, kind, *args)

    def within(name, call):
        def wrapped(*args):
            inside.append(name)
            try:
                return call(*args)
            finally:
                inside.pop()
        return wrapped

    monkeypatch.setattr(meta_learner, "inner_update", recorded)
    monkeypatch.setattr(meta_learner, "meta_step", within("meta_step", meta_learner.meta_step))
    monkeypatch.setattr(eval_harness, "fine_tune", within("fine_tune", eval_harness.fine_tune))
    run_cv(table, manifest, pipeline, CvConfig(seed=2))
    # one stack of 3 folds: 4 meta-iterations x 2 tasks x (train, fine-tune);
    # then one meta-test per fold and target
    assert kinds == {"meta_step": ["regression"] * 16, "fine_tune": ["classification"] * 3}


def test_run_cv_deterministic_per_seed():
    table, manifest, _ = small_raw(seed=5)
    a = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=9))
    b = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=9))
    assert a == b


def test_run_cv_parallel_folds_match_serial():
    table, manifest, _ = small_raw(seed=6)
    serial = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=4, jobs=1))
    parallel = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=4, jobs=2))
    assert serial == parallel


def test_run_cv_training_path_never_sees_held_out_labels():
    # positive rescaling of the held-out group's target labels leaves the
    # binarized truth unchanged; if no model's training path reads those
    # labels, every report row is bitwise identical
    table, manifest, _ = small_raw(seed=7)
    pipeline = PipelineConfig(
        task_kind="classification",
        preprocess=PreprocessConfig(scaling="standardize"),
        selection=FAST_PIPELINE.selection,
        base=FAST_PIPELINE.base,
        meta=FAST_PIPELINE.meta,
    )
    base_report = run_cv(table, manifest, pipeline, CvConfig(seed=3))

    values = np.array(table.values)
    j = table.column_index("y")
    rows = table.group_ids == table.resolve_group("g2")
    values[rows, j] = values[rows, j] * 1000.0
    corrupted = DatasetTable(
        table.columns, values, table.missing_mask, table.group_ids, table.group_names
    )
    corrupted_report = run_cv(corrupted, manifest, pipeline, CvConfig(seed=3))
    for a, b in zip(base_report.rows, corrupted_report.rows):
        if a.group == "g2":
            assert a == b  # scores on the perturbed fold must not move


def test_meta_test_is_one_stacked_update_and_two_forwards_per_task(monkeypatch):
    # each (fold, target task) fine-tunes base_initial and meta as one stack
    # of two, then predicts the held-out and the training table from it, all
    # in one workspace; without meta-iterations, the meta-test makes every
    # such call
    calls = []

    def counted(name):
        original = getattr(meta_learner, name)

        def wrapper(ws, *args, **kwargs):
            calls.append((name, ws.net.folds, ws))
            return original(ws, *args, **kwargs)

        return wrapper

    for name in ("inner_update", "forward"):
        monkeypatch.setattr(meta_learner, name, counted(name))
    table, manifest, _ = small_raw(seed=2)
    pipeline = dataclasses.replace(FAST_PIPELINE, meta=MetaConfig(meta_iterations=0, k=4))
    report = run_cv(table, manifest, pipeline, CvConfig(seed=1))
    assert len({(r.group, r.task) for r in report.rows}) == 3
    assert [call[:2] for call in calls] == [
        ("inner_update", 2), ("forward", 2), ("forward", 2)
    ] * 3
    for start in range(0, 9, 3):
        assert calls[start][2] is calls[start + 1][2] is calls[start + 2][2]


def test_default_cv_builds_one_workspace_per_stack_and_meta_test(monkeypatch):
    # the meta-loop keeps one step workspace for its stack of the three
    # folds, and each (fold, target task) meta-test one for its two networks
    built = []
    init = StepWorkspace.__init__

    def counted(ws, stack):
        built.append(stack.folds)
        init(ws, stack)

    monkeypatch.setattr(StepWorkspace, "__init__", counted)
    table, manifest, _ = small_raw(seed=2, n_per_group=60)
    report = run_cv(table, manifest, PipelineConfig(), CvConfig(seed=0))
    assert len({(r.group, r.task) for r in report.rows}) == 3
    assert built == [3, 2, 2, 2]


def test_run_cv_needs_two_groups():
    table, manifest, _ = small_raw()
    sub = table.take_rows(table.group_ids == 0)
    one_group = DatasetTable(
        sub.columns, sub.values, sub.missing_mask,
        np.zeros(sub.n_rows, dtype=int), ("g0",),
    )
    with pytest.raises(DataError):
        run_cv(one_group, manifest, FAST_PIPELINE, CvConfig())


def test_run_cv_refuses_a_table_with_two_stratifiers():
    # residual features stratify on one column: a second one is refused,
    # never dropped, also in a table that no manifest file declared
    table, manifest, _ = small_raw(n_per_group=20)
    strata = [table.column_values(name)[0] > 0.0 for name in ("x0", "x1")]
    metas = tuple(ColumnMeta(name, "pre", "numeric", "stratifier") for name in ("s1", "s2"))
    two = table.replace_matrix(
        table.columns + metas, np.column_stack([table.values, *strata]),
        np.column_stack([table.missing_mask, np.zeros((table.n_rows, 2), dtype=bool)]),
    )
    with pytest.raises(ConfigError, match=r"at most one stratifier column, found \['s1', 's2'\]"):
        run_cv(two, manifest, FAST_PIPELINE, CvConfig())


def test_run_cv_all_excluded_errors():
    table, manifest, _ = small_raw()
    with pytest.raises(ConfigError):
        run_cv(
            table, manifest, FAST_PIPELINE,
            CvConfig(excluded_holdout_groups=("g0", "g1", "g2")),
        )


def _without_target_in(table: DatasetTable, group: str) -> DatasetTable:
    """``table`` with every ``y`` cell of ``group`` blank."""
    rows = table.group_ids == table.resolve_group(group)
    values, missing = np.array(table.values), np.array(table.missing_mask)
    j = table.column_index("y")
    values[rows, j], missing[rows, j] = np.nan, True
    return table.replace_matrix(table.columns, values, missing)


def _refuse(name):
    def refused(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return refused


def test_run_cv_held_out_group_without_target_fails_before_any_fold(monkeypatch):
    table, manifest, _ = small_raw()
    monkeypatch.setattr(eval_harness, "_fold_setup", _refuse("_fold_setup"))
    monkeypatch.setattr(eval_harness, "meta_train", _refuse("meta_train"))
    with pytest.raises(DataError) as caught:
        run_cv(_without_target_in(table, "g1"), manifest, FAST_PIPELINE, CvConfig(seed=1))
    assert str(caught.value) == "held-out group 'g1' has no observed 'y'"


def test_grid_search_held_out_group_without_target_raises_once(monkeypatch):
    # the check holds for every candidate alike, so the search raises it
    # alone instead of meta-training each candidate and failing them all
    table, manifest, _ = small_raw()
    monkeypatch.setattr(eval_harness, "meta_train", _refuse("meta_train"))
    with pytest.raises(DataError) as caught:
        grid_search(tiny_space(), _without_target_in(table, "g1"), manifest, 2, 1, FAST_PIPELINE)
    assert str(caught.value) == "held-out group 'g1' has no observed 'y'"


def test_run_cv_excluded_group_without_target_still_runs():
    table, manifest, _ = small_raw()
    cv = CvConfig(excluded_holdout_groups=("g1",), seed=1)
    report = run_cv(_without_target_in(table, "g1"), manifest, FAST_PIPELINE, cv)
    assert {r.group for r in report.rows} == {"g0", "g2"}


# ---------------------------------------------------------------------------
# overfit gap
# ---------------------------------------------------------------------------


def _row(model, value, train_value):
    return MetricRow("g", "y", model, "auc", value, train_value, 5)


def test_overfit_gap_zero_for_matched_scores():
    report = MetricReport((_row("m", 0.7, 0.7), _row("m", 0.6, 0.6)))
    assert overfit_gap(report)["m"]["median"] == 0.0


def test_overfit_gap_memorizer():
    report = MetricReport((_row("knn", 0.5, 1.0),))
    stats = overfit_gap(report)["knn"]
    assert stats["median"] == -0.5


def test_overfit_gap_consistent_with_raw_rows():
    rng = np.random.default_rng(8)
    rows = tuple(
        _row("m", float(v), float(t)) for v, t in rng.random((20, 2))
    )
    stats = overfit_gap(MetricReport(rows))["m"]
    gaps = [r.value - r.train_value for r in rows]
    assert stats["median"] == pytest.approx(np.median(gaps))
    assert stats["min"] == pytest.approx(min(gaps))
    assert stats["max"] == pytest.approx(max(gaps))


def test_plot_data_csv_has_model_rows():
    report = MetricReport((_row("meta", 0.8, 0.9), _row("knn", 0.6, 1.0)))
    text = plot_data_csv(report)
    lines = text.strip().splitlines()
    assert lines[0].startswith("model,metric,mean,stderr")
    assert len(lines) == 3


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------


def test_sampled_candidates_stay_inside_grids():
    space = SearchSpace()
    rng = np.random.default_rng(10)
    for _ in range(30):
        cand = sample_candidate(space, rng, FAST_PIPELINE)
        assert cand.base.n_layers in space.n_layers
        assert cand.base.reg_strength in space.reg_strength
        assert cand.meta.epsilon0 in space.epsilon0
        assert cand.selection.method in space.selection_method
        if cand.selection.method != "all_post":
            assert 0.70 <= cand.selection.keep_fraction <= 0.99
        assert cand.preprocess.scaling in space.scaling


def tiny_space():
    return SearchSpace(
        n_layers=(1,), hidden_dim=(6,), embedding_dim=(4,), activation=("tanh",),
        dropout_rate=(0.05,), reg_kind=("l2",), reg_strength=(1e-4,),
        optimizer=("sgd",), learning_rate=(0.05, 0.01), inner_iterations=(2,),
        meta_iterations=(4,), epsilon0=(0.5,), k=(4,), tasks_per_iteration=(1,),
        selection_method=("all_post",), scaling=("standardize",), missing_threshold=(0.5,),
    )


def test_grid_search_budget_one_returns_lone_candidate():
    table, manifest, _ = small_raw(seed=11)
    best, board = grid_search(tiny_space(), table, manifest, 1, 5, FAST_PIPELINE)
    assert len(board) == 1 and board[0]["rank"] == 1
    assert best.to_dict() == board[0]["config"]


def test_grid_search_deterministic_leaderboard():
    table, manifest, _ = small_raw(seed=12)
    _, a = grid_search(tiny_space(), table, manifest, 3, 7, FAST_PIPELINE)
    _, b = grid_search(tiny_space(), table, manifest, 3, 7, FAST_PIPELINE)
    assert a == b


def test_grid_search_prefers_dominant_candidate():
    table, manifest, _ = small_raw(seed=13)
    best, board = grid_search(tiny_space(), table, manifest, 4, 3, FAST_PIPELINE)
    scores = [e["score"] for e in board if e["status"] == "ok"]
    assert best.to_dict() == board[0]["config"]
    assert board[0]["score"] == min(scores)  # regression: lower mse ranks first


def test_grid_search_budget_zero_rejected():
    table, manifest, _ = small_raw()
    with pytest.raises(ConfigError):
        grid_search(tiny_space(), table, manifest, 0, 1, FAST_PIPELINE)


def test_grid_search_all_failures_carry_diagnostics():
    # d_aux=0 leaves no post-treatment feature columns, so task selection
    # fails in every fold of every candidate
    config = GeneratorConfig(
        n_groups=3, n_per_group=8, d_pre=3, d_aux=0,
        delta=(-1.0, 0.0, 1.0), seed=2,
    )
    table, manifest, _ = generate(config)
    with pytest.raises(DataError, match="no training tasks"):
        grid_search(tiny_space(), table, manifest, 2, 1, FAST_PIPELINE)


def mixed_outcome_search():
    """A study, space and template whose budget-5 search at seed 1 gives, by
    candidate: ok, a NumericError in fold 1 (folds 0 and 2 run fine), ok, and
    two pre-flight DataErrors (the reference group is eligible for holdout)."""
    table, manifest, _ = small_raw(seed=16)
    space = dataclasses.replace(
        tiny_space(),
        learning_rate=(0.05, 1.0),
        scaling=("standardize", "standardize_vs_reference_group"),
    )
    template = dataclasses.replace(
        FAST_PIPELINE, preprocess=PreprocessConfig(scaling="standardize", reference_group="g0")
    )
    return table, manifest, space, template


def test_grid_search_results_identical_at_any_worker_count():
    table, manifest, space, template = mixed_outcome_search()
    boards = {
        jobs: grid_search(space, table, manifest, 5, 1, template, CvConfig(seed=0, jobs=jobs))[1]
        for jobs in (1, 2, 3)
    }
    # as best_config.json writes them
    as_json = {jobs: json.dumps(board, sort_keys=True) for jobs, board in boards.items()}
    assert as_json[1] == as_json[2] == as_json[3]
    failed = {e["candidate"]: e for e in boards[1] if e["status"] == "failed"}
    assert sorted(failed) == [1, 3, 4]
    assert all(entry["score"] is None for entry in failed.values())
    assert failed[1]["error"] == "NumericError: loss is not finite"
    assert all("--holdout-exclude g0" in failed[i]["error"] for i in (3, 4))
    for entry in failed.values():
        candidate = PipelineConfig.from_dict(entry["config"])
        with pytest.raises((ConfigError, DataError, NumericError)) as alone:
            run_cv(table, manifest, candidate, CvConfig(seed=0))
        assert entry["error"] == f"{type(alone.value).__name__}: {alone.value}"
    numeric = PipelineConfig.from_dict(failed[1]["config"])
    folds = eval_harness._fold_payloads(table, manifest, numeric, CvConfig(seed=0))
    outcomes = [eval_harness._fold_group_worker([p])[0] for p in folds]
    assert [type(o).__name__ for o in outcomes] == ["list", "NumericError", "list"]


class RecordingPool:
    """In-process stand-in for ProcessPoolExecutor: records each pool's
    size, the fold count of each payload and the groups in the order they
    reach ``map``, and runs ``map`` serially. It takes a size alone, as the
    workers need no setup: they print nothing."""

    sizes: list[int] = []
    payloads: list[int] = []
    groups: list[list[tuple]] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, items):
        items = list(items)
        self.payloads.extend(len(group) for group in items)
        self.groups.extend(items)
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, expected_size, expected_payloads",
    [
        pytest.param(2, 64, 2, [3] * 4, id="2-64-2"),
        pytest.param(10**6, 64, 12, [1] * 12, id="1000000-64-12"),
        pytest.param(10**6, 3, 3, [3] * 4, id="1000000-3-3"),
    ],
)
def test_grid_search_uses_one_pool_no_larger_than_the_work(
    monkeypatch, jobs, cpus, expected_size, expected_payloads
):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "payloads", [])
    monkeypatch.setattr(eval_harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(eval_harness, "_usable_cpus", lambda: cpus)
    table, manifest, _ = small_raw(seed=12)
    _, board = grid_search(
        tiny_space(), table, manifest, 4, 7, FAST_PIPELINE, CvConfig(seed=0, jobs=jobs)
    )
    # 4 candidates x 3 folds, each candidate's folds split into
    # clamp(workers // 4, 1, 3) lockstep groups, all sent to one pool
    assert RecordingPool.sizes == [expected_size]
    assert RecordingPool.payloads == expected_payloads
    _, serial = grid_search(tiny_space(), table, manifest, 4, 7, FAST_PIPELINE, CvConfig(seed=0))
    assert json.dumps(board, sort_keys=True) == json.dumps(serial, sort_keys=True)


def test_one_job_runs_each_candidate_as_one_group_without_a_pool(monkeypatch):
    _in_process_pool(monkeypatch)
    sizes = []
    real_worker = eval_harness._fold_group_worker

    def recording_worker(payloads, **options):
        sizes.append(len(payloads))
        return real_worker(payloads, **options)

    monkeypatch.setattr(eval_harness, "_fold_group_worker", recording_worker)
    table, manifest, _ = small_raw(seed=12)
    grid_search(tiny_space(), table, manifest, 3, 7, FAST_PIPELINE, CvConfig(seed=0, jobs=1))
    assert RecordingPool.sizes == []
    assert sizes == [3, 3, 3]


@pytest.mark.parametrize("jobs, expected_sizes", [(1, []), (2, [2]), (10**6, [3])])
def test_run_cv_pool_no_larger_than_its_folds(monkeypatch, jobs, expected_sizes):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(eval_harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(eval_harness, "_usable_cpus", lambda: 64)
    table, manifest, _ = small_raw(seed=6)
    report = run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=4, jobs=jobs))
    assert RecordingPool.sizes == expected_sizes
    assert report == run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=4))


def _in_process_pool(monkeypatch):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(RecordingPool, "payloads", [])
    monkeypatch.setattr(RecordingPool, "groups", [])
    monkeypatch.setattr(eval_harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(eval_harness, "_usable_cpus", lambda: 64)


def test_pool_receives_the_largest_groups_first_and_results_keep_payload_order(monkeypatch):
    # two workers, six candidates: each candidate's three folds are one
    # group, and the groups reach the pool by estimated work, largest
    # first, ties in candidate order
    _in_process_pool(monkeypatch)
    table, manifest, _ = small_raw(seed=12)
    space = dataclasses.replace(
        tiny_space(), hidden_dim=(4, 16), inner_iterations=(1, 2), meta_iterations=(2, 4)
    )
    _, board = grid_search(space, table, manifest, 6, 7, FAST_PIPELINE, CvConfig(seed=0, jobs=2))
    candidates = [
        sample_candidate(space, child_rng(7, "candidate", i), FAST_PIPELINE) for i in range(6)
    ]
    n_inputs = len(model_input_columns(table))

    def work(c):
        steps = 3 * c.meta.meta_iterations * c.meta.tasks_per_iteration * c.base.inner_iterations
        return steps * (network_size(c.base, n_inputs, 3) + eval_harness.STEP_OVERHEAD_WEIGHTS)

    largest_first = sorted(range(6), key=lambda i: -work(candidates[i]))
    assert largest_first != list(range(6))
    assert RecordingPool.payloads == [3] * 6
    assert [group[0][2] for group in RecordingPool.groups] == [
        candidates[i] for i in largest_first
    ]
    _, serial = grid_search(space, table, manifest, 6, 7, FAST_PIPELINE, CvConfig(seed=0))
    assert json.dumps(board, sort_keys=True) == json.dumps(serial, sort_keys=True)


@pytest.mark.parametrize("jobs, payloads", [(1, []), (2, [2, 1] * 3), (3, [1, 1, 1] * 3)])
def test_the_first_failure_in_fold_order_stops_the_run_across_stages_and_groups(
    monkeypatch, jobs, payloads
):
    # fold 0 fails in scoring, fold 1 in meta-training and fold 2 in setup:
    # whether the folds run as one group, as (g0, g1) and (g2), or each
    # alone, the run raises the earliest fold's failure, whatever its stage,
    # and warns what setup and scoring said, fold by fold, up to that failure
    _in_process_pool(monkeypatch)
    errors = {
        "g0": DataError("g0 failed in scoring"),
        "g1": NumericError("g1 failed in meta-training"),
        "g2": ConfigError("g2 failed in setup"),
    }
    failing: set[str] = set()
    real_setup, real_meta_train, real_rows = (
        eval_harness._fold_setup, eval_harness.meta_train, eval_harness._fold_rows
    )

    def fold_setup(*payload):
        warnings.warn(f"setting up {payload[-1]}")
        if payload[-1] == "g2" and "g2" in failing:
            raise errors["g2"]
        return real_setup(*payload)

    def meta_train(sides, *rest):
        thetas = real_meta_train(sides, *rest)
        held_out = [f"g{side[1][1][0]}" for side in sides]  # each held-out side's group id
        if "g1" in failing and "g1" in held_out:
            cut = held_out.index("g1")  # the later folds carry its failure
            thetas[cut:] = [errors["g1"]] * (len(thetas) - cut)
        return thetas

    def fold_rows(fold, *rest):
        warnings.warn(f"scoring {fold.group_name}")
        if fold.group_name == "g0" and "g0" in failing:
            raise errors["g0"]
        return real_rows(fold, *rest)

    monkeypatch.setattr(eval_harness, "_fold_setup", fold_setup)
    monkeypatch.setattr(eval_harness, "meta_train", meta_train)
    monkeypatch.setattr(eval_harness, "_fold_rows", fold_rows)
    table, manifest, _ = small_raw(seed=6)
    said = {
        g: [f"fold {g!r}: {m}" for m in (f"setting up {g}", f"scoring {g}")] for g in errors
    }
    # the failing fold's messages up to its failing stage
    said_before_failing = {"g0": said["g0"], "g1": said["g1"][:1], "g2": said["g2"][:1]}
    for first in ("g0", "g1", "g2"):
        failing.clear()
        failing.update(g for g in errors if g >= first)
        with (
            pytest.raises((ConfigError, DataError, NumericError)) as caught,
            warnings.catch_warnings(record=True) as warned,
        ):
            warnings.simplefilter("always")
            run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=4, jobs=jobs))
        assert caught.value is errors[first]
        earlier = [m for g in errors if g < first for m in said[g]]
        assert [str(w.message) for w in warned] == earlier + said_before_failing[first]
    assert RecordingPool.payloads == payloads


def test_fold_group_worker_prints_nothing_and_returns_each_folds_shortfalls():
    # k 15 exceeds every group's 12 rows: each fold's setup warns of its
    # training groups' shortfalls, then its held-out group's, and the worker
    # returns them, prefixed with the fold, in fold order; none escapes
    table, manifest, _ = small_raw(seed=6)
    config = dataclasses.replace(FAST_PIPELINE, meta=MetaConfig(meta_iterations=2, k=15))
    payloads = eval_harness._fold_payloads(table, manifest, config, CvConfig(seed=4))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows, messages = eval_harness._fold_group_worker(payloads)
    assert caught == []
    with pytest.warns(UserWarning, match="sampling with replacement"):
        assert tuple(rows) == run_cv(table, manifest, config, CvConfig(seed=4)).rows
    order = {"g0": ("g1", "g2", "g0"), "g1": ("g0", "g2", "g1"), "g2": ("g0", "g1", "g2")}
    assert messages == [
        f"fold {fold!r}: group {g!r} has 12 usable rows < k=15; sampling with replacement"
        for fold, groups in order.items() for g in groups
    ]


def test_search_score_is_the_summary_mean_where_a_plain_mean_overflows():
    # the sum of three meta values of 1.5e308 overflows; the score is the
    # mean the summary reports, finite and without a RuntimeWarning
    rows = tuple(MetricRow(g, "y", "meta", "mse", 1.5e308, 1.5e308, 20) for g in ("g0", "g1", "g2"))
    report = MetricReport(rows)
    assert eval_harness._meta_score(report) == report.summary()[0]["mean"] == 1.5e308


def test_search_fine_tunes_the_learned_network_alone_and_fits_no_baseline(monkeypatch):
    # per fold and target, a search fine-tunes one network and predicts one
    # table, the held-out one; cv fine-tunes both networks, predicts both
    # tables, and fits every baseline on the held-out and the training rows
    calls = []

    def recorded(name, describe):
        original = getattr(eval_harness, name)

        def wrapper(*args):
            calls.append(describe(*args))
            return original(*args)

        return wrapper

    monkeypatch.setattr(eval_harness, "fine_tune", recorded(
        "fine_tune", lambda networks, kind, data, tables, *rest: (len(networks), len(tables))
    ))
    monkeypatch.setattr(eval_harness, "baseline_predict", recorded(
        "baseline_predict", lambda kind, *rest: kind
    ))
    table, manifest, _ = small_raw(seed=12)
    grid_search(tiny_space(), table, manifest, 2, 7, FAST_PIPELINE, CvConfig(seed=0))
    assert calls == [(1, 1)] * 2 * 3  # candidates x folds x targets
    calls.clear()
    run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=0))
    per_fold = [(2, 2)] + [name for name in eval_harness.REGRESSION_BASELINES for _ in "ab"]
    assert calls == per_fold * 3


def test_a_baseline_failure_fails_cv_but_not_a_search_candidate(monkeypatch):
    table, manifest, _ = small_raw(seed=12)
    _, unpatched = grid_search(tiny_space(), table, manifest, 2, 7, FAST_PIPELINE)

    def failing(*args):
        raise NumericError("ridge baseline: curvature matrix of its fit is not finite")

    monkeypatch.setattr(eval_harness, "baseline_predict", failing)
    candidate = PipelineConfig.from_dict(unpatched[0]["config"])
    with pytest.raises(NumericError, match="ridge baseline"):
        run_cv(table, manifest, candidate, CvConfig())
    _, board = grid_search(tiny_space(), table, manifest, 2, 7, FAST_PIPELINE)
    assert [e["status"] for e in board] == ["ok", "ok"]
    assert board == unpatched


def test_lockstep_folds_match_folds_alone_across_layouts(monkeypatch):
    # x0 is missing in g0 and g1, so only the fold holding out g2 (training
    # on g0 and g1) drops it as sparse: one group of three folds holds two
    # stacks. One job steps all folds in one group, two jobs split them into
    # (g0, g1) and (g2), three run each fold alone; the reports are the same
    _in_process_pool(monkeypatch)
    table, manifest, _ = small_raw(seed=8)
    values, missing = np.array(table.values), np.array(table.missing_mask)
    rows = table.group_ids != table.resolve_group("g2")
    values[rows, table.column_index("x0")] = np.nan
    missing[rows, table.column_index("x0")] = True
    table = DatasetTable(table.columns, values, missing, table.group_ids, table.group_names)
    payloads = eval_harness._fold_payloads(table, manifest, FAST_PIPELINE, CvConfig(seed=2))
    widths = [eval_harness._fold_setup(*p).theta0.extractor[0].n_in for p in payloads]
    assert widths[0] == widths[1] == widths[2] + 1
    texts = {
        jobs: run_cv(table, manifest, FAST_PIPELINE, CvConfig(seed=2, jobs=jobs)).to_csv_text()
        for jobs in (1, 2, 3)
    }
    assert RecordingPool.payloads == [2, 1, 1, 1, 1]
    assert texts[1] == texts[2] == texts[3]


def test_fold_setup_leaves_no_gap_in_any_post_treatment_feature():
    # the draw tables refuse a training-task column with a missing cell, so
    # every fold's training table and held-out table leave preprocessing
    # with each post-treatment feature observed in every row
    table, manifest, _ = generate(GeneratorConfig(
        n_groups=3, n_per_group=12, d_pre=3, d_aux=3, missing_rate=0.2, seed=3,
    ))
    posts = [c.name for c in table.columns if c.role == "feature" and c.timing == "post"]
    assert all(table.column_values(name)[1].mean() < 1.0 for name in posts)
    for payload in eval_harness._fold_payloads(table, manifest, FAST_PIPELINE, CvConfig()):
        setup = eval_harness._fold_setup(*payload)
        tasks = select_training_tasks(setup.train_table, setup.targets, FAST_PIPELINE.selection)
        assert tasks and setup.sides[0][2].shape[1] == len(tasks)
        for side in (setup.train_table, setup.test_table):
            kept = [c.name for c in side.columns if c.role == "feature" and c.timing == "post"]
            assert set(tasks) <= set(kept)
            assert all(side.column_values(name)[1].all() for name in kept)


def test_a_draw_table_error_fails_its_candidate_alone(monkeypatch):
    # candidate 1's preprocessing leaves one training row's aux0, a training
    # task, blank: its first fold fails in setup with the draw tables'
    # DataError, and candidates 0 and 2 rank ok. The pipeline imputes every
    # feature, so only a patched preprocessing reaches this path
    real = eval_harness.fit_preprocess

    def gapped(raw_table, train_mask, config, pairs):
        plan, processed = real(raw_table, train_mask, config, pairs)
        if config.missing_threshold == 0.6:
            missing = processed.missing_mask.copy()
            missing[np.flatnonzero(train_mask)[0], processed.column_index("aux0")] = True
            processed = processed.replace_matrix(processed.columns, processed.values, missing)
        return plan, processed

    monkeypatch.setattr(eval_harness, "fit_preprocess", gapped)
    table, manifest, _ = small_raw(seed=12)
    space = dataclasses.replace(tiny_space(), missing_threshold=(0.5, 0.6))
    _, board = grid_search(space, table, manifest, 3, 4, FAST_PIPELINE)
    assert [(e["candidate"], e["status"]) for e in board] == [(0, "ok"), (2, "ok"), (1, "failed")]
    assert board[2]["error"] == (
        "DataError: training task 'aux0' has missing cells; meta-training needs complete "
        "task columns"
    )


def test_each_fold_side_builds_its_input_matrix_once(monkeypatch):
    # per fold, the draw tables build the training and the held-out side's
    # inputs, two sides per fold, which meta-training, the meta-test and
    # the baselines share; task_dataset cuts the target task's training
    # rows from the training side's
    calls = []
    real = data_model.model_inputs

    def counted(table):
        calls.append(table)
        return real(table)

    for info in pkgutil.iter_modules(metatreat.__path__):
        module = importlib.import_module(f"metatreat.{info.name}")
        if getattr(module, "model_inputs", None) is real:
            monkeypatch.setattr(module, "model_inputs", counted)
    table, manifest, _ = generate(GeneratorConfig(seed=7))
    run_cv(table, manifest, PipelineConfig(), CvConfig(seed=0))
    assert len(calls) == 3 * 2  # folds x two sides
    calls.clear()
    table, manifest, _ = small_raw(seed=12)
    grid_search(tiny_space(), table, manifest, 2, 7, FAST_PIPELINE)
    assert len(calls) == 2 * 3 * 2  # candidates x folds x two sides


def test_training_scores_and_n_test_count_only_observed_labels(monkeypatch):
    # with about 30% of y blank in every group, each fold fine-tunes on the
    # training rows whose y is observed, predicts and scores its training
    # side on those rows alone and its held-out side on the held-out group's
    # observed rows, and counts those in n_test
    table, manifest, _ = generate(GeneratorConfig(seed=7))
    j = table.column_index("y")
    blank = np.random.default_rng(3).random(table.n_rows) < 0.3
    values, missing = np.array(table.values), np.array(table.missing_mask)
    values[blank, j], missing[blank, j] = np.nan, True
    table = DatasetTable(table.columns, values, missing, table.group_ids, table.group_names)
    assert all(0 < blank[table.group_ids == g].sum() < 60 for g in range(3))
    calls = []
    real = eval_harness.fine_tune

    def recorded(networks, kind, task, inputs, base_config, rngs):
        preds = real(networks, kind, task, inputs, base_config, rngs)
        calls.append((task, preds))
        return preds

    monkeypatch.setattr(eval_harness, "fine_tune", recorded)
    report = run_cv(table, manifest, PipelineConfig(), CvConfig(seed=0))
    assert len(calls) == 3  # one target task per fold, in fold order
    for gid, ((_, _, y), (on_test, on_train)) in enumerate(calls):
        name = table.group_names[gid]
        row = {r.model: r for r in report.rows if r.group == name}
        observed = np.flatnonzero(~blank[table.group_ids != gid])
        n_test = int((~blank[table.group_ids == gid]).sum())
        assert len(y) == observed.size
        # the meta-test forwards exactly the rows it scores
        assert observed.size == on_train.shape[1]
        assert on_test.shape[1] == n_test
        assert row["mean"].train_value == mse(np.full(y.size, y.mean()), y)
        assert row["meta"].train_value == mse(on_train[1], y)
        assert {r.n_test for r in row.values()} == {n_test}


def test_lockstep_numeric_failure_matches_folds_alone_without_warnings(monkeypatch):
    # candidate 1 of the mixed-outcome search fails in fold 1 whether its
    # folds step together or alone, with the same error, and the overflow
    # behind it raises no warning: a fold would pass a RuntimeWarning on as
    # a UserWarning naming the fold, so none of any kind may arrive
    _in_process_pool(monkeypatch)
    table, manifest, space, template = mixed_outcome_search()
    numeric = sample_candidate(space, child_rng(1, "candidate", 1), template)
    messages = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for jobs in (1, 2, 3):
            with pytest.raises(NumericError) as failure:
                run_cv(table, manifest, numeric, CvConfig(seed=0, jobs=jobs))
            messages.append(str(failure.value))
        _, board = grid_search(space, table, manifest, 2, 1, template, CvConfig(seed=0))
    assert messages == ["loss is not finite"] * 3
    assert board[-1]["candidate"] == 1
    assert board[-1]["error"] == "NumericError: loss is not finite"
    assert [str(w.message) for w in caught] == []


def test_pipeline_config_round_trip_and_strictness():
    doc = FAST_PIPELINE.to_dict()
    assert PipelineConfig.from_dict(doc).to_dict() == doc
    doc["base"]["warp_factor"] = 9
    with pytest.raises(ConfigError, match="warp_factor"):
        PipelineConfig.from_dict(doc)
    # the retired head_kind knob is rejected like any unknown key
    doc = FAST_PIPELINE.to_dict()
    doc["base"]["head_kind"] = "linear"
    with pytest.raises(ConfigError, match=r"unknown BaseLearnerConfig keys: \['head_kind'\]"):
        PipelineConfig.from_dict(doc)
    # so are the retired update_direction, residual_mode, gd_max_iters, gd_tol
    for section, klass, key, value in (
        ("meta", "MetaConfig", "update_direction", "toward_adapted"),
        ("preprocess", "PreprocessConfig", "residual_mode", "replace"),
        ("baselines", "BaselineConfig", "gd_max_iters", 20000),
        ("baselines", "BaselineConfig", "gd_tol", 1e-12),
    ):
        doc = FAST_PIPELINE.to_dict()
        doc[section][key] = value
        with pytest.raises(ConfigError, match=rf"unknown {klass} keys: \['{key}'\]"):
            PipelineConfig.from_dict(doc)


# Each JSON kind a field of the given annotation accepts; a float field takes
# a JSON integer too, and a tuple field takes a list.
ACCEPTED_KINDS = {
    "int": {"int"},
    "float": {"int", "float"},
    "str": {"str"},
    "str | None": {"str", "null"},
}
JSON_KINDS = {
    "null": st.none(),
    "bool": st.booleans(),
    "int": st.integers(-10, 10),
    "float": st.floats(-10.0, 10.0).filter(lambda v: v != int(v)) | st.just(2.0),
    "str": st.text(max_size=4),
    "list": st.lists(st.integers(1, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
}
SECTIONS = {
    "preprocess": PreprocessConfig,
    "selection": SelectionConfig,
    "base": BaseLearnerConfig,
    "meta": MetaConfig,
    "baselines": BaselineConfig,
}


@st.composite
def wrongly_typed_field(draw):
    """(dataclass, field name, a JSON value of a kind that field refuses)."""
    klass = draw(st.sampled_from([*SECTIONS.values(), CvConfig, SearchSpace]))
    field = draw(st.sampled_from(dataclasses.fields(klass)))
    if field.type.startswith("tuple["):
        kinds = sorted(set(JSON_KINDS) - {"list"})
        wrong = st.one_of(*(JSON_KINDS[k] for k in kinds), st.just([{}]), st.just([None]))
    else:
        kinds = sorted(set(JSON_KINDS) - ACCEPTED_KINDS[field.type])
        wrong = st.one_of(*(JSON_KINDS[k] for k in kinds))
    return klass, field.name, draw(wrong)


@settings(max_examples=300, deadline=None)
@given(case=wrongly_typed_field())
def test_wrongly_typed_config_values_raise_config_error(case):
    klass, name, value = case
    with pytest.raises(ConfigError, match=rf"{klass.__name__}\.{name}"):
        strict_dataclass(klass, {name: value})
    section = next((s for s, k in SECTIONS.items() if k is klass), None)
    if section is not None:
        with pytest.raises(ConfigError, match=rf"{klass.__name__}\.{name}"):
            PipelineConfig.from_dict({section: {name: value}})


@pytest.mark.parametrize("value", [5, "x", None, [1, 2]])
def test_config_section_must_be_an_object(value):
    with pytest.raises(ConfigError, match="BaseLearnerConfig: expected a JSON object"):
        PipelineConfig.from_dict({"base": value})


def test_strict_dataclass_turns_lists_into_tuples():
    cv = strict_dataclass(CvConfig, {"excluded_holdout_groups": ["g0", "g1"], "jobs": 2})
    assert cv == CvConfig(excluded_holdout_groups=("g0", "g1"), jobs=2)
    space = strict_dataclass(SearchSpace, {"n_layers": [1, 2], "keep_fraction_range": [0.5, 1]})
    assert space.n_layers == (1, 2) and space.keep_fraction_range == (0.5, 1)
    with pytest.raises(ConfigError, match=r"keep_fraction_range: expected 2 entries, got 1"):
        strict_dataclass(SearchSpace, {"keep_fraction_range": [0.9]})
    with pytest.raises(ConfigError, match="search space grid 'n_layers' is empty"):
        strict_dataclass(SearchSpace, {"n_layers": []})


def test_published_grids_largest_task_batches_are_under_the_cap():
    # the grids' largest k and tasks_per_iteration at 100 groups and 1,000
    # input features, as the cap's comment puts them
    space = SearchSpace()
    meta = MetaConfig(k=max(space.k), tasks_per_iteration=max(space.tasks_per_iteration))
    cells = eval_harness.task_batch_cells(meta, 100, 1000)
    assert 7_500_000 <= cells <= eval_harness.MAX_BATCH_CELLS
