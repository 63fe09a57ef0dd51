"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or in failure output).

Numbered criteria:
 1. the production gradients (base_learner.loss_and_grads) match central
    finite differences on 100 random base-learner nets
 2. AUC equals pairwise counting, MSE equals the direct formula
 3. interpolation-update algebra (exact endpoints, fixed point at lr=0)
 4. zero-shot firewall under label perturbation: 20 random run_cv folds
 5. synthetic zero-shot benchmark beats the pooled ridge baseline and
    approaches the analytic noise floor
 6. overfitting-gap analog: the meta-learner's |test-train| AUC gap stays
    below the KNN baseline's
 7. no-effect sanity: nothing to learn means parity with the mean baseline
 8. byte-identical CLI reports for equal seeds
 9. preprocessing properties (residual centering, train-only imputation,
    exact group partitions)
"""

import copy
import json
import math
import time

import numpy as np
import pytest

from metatreat.base_learner import BaseLearnerConfig, BaseLearnerWeights, init_weights
from metatreat.cli import main as cli_main
from metatreat.data_model import (
    ColumnMeta,
    DatasetTable,
    PreprocessConfig,
    fit_preprocess,
    group_holdout_split,
    impute_means,
    residualize,
    withhold_targets,
)
from metatreat import eval_harness
from metatreat.eval_harness import CvConfig, PipelineConfig, auc, mse, run_cv
from metatreat.meta_learner import (
    MetaConfig,
    TaskCache,
    epsilon_schedule,
    meta_train,
    sample_task_batch,
)
from metatreat.synth_gen import GeneratorConfig, generate
from metatreat.task_selection import SelectionConfig, TaskSpec, select_training_tasks
from oracles import central_diff, max_rel_error, pairwise_auc

SIGMA = 1.0

BENCH_BASE = BaseLearnerConfig()  # package defaults are the benchmark config
BENCH_META = MetaConfig()


def bench_pipeline(task_kind):
    return PipelineConfig(
        task_kind=task_kind,
        preprocess=PreprocessConfig(scaling="standardize"),
        selection=SelectionConfig("all_post"),
        base=BENCH_BASE,
        meta=BENCH_META,
    )


def bench_generator(seed, delta=(-2.0 * SIGMA, 0.0, 2.0 * SIGMA), **overrides):
    kw = dict(
        n_groups=3, n_per_group=60, d_pre=4, d_aux=8,
        delta=delta, noise_sigma=SIGMA, coupling="linear", seed=seed,
    )
    kw.update(overrides)
    return GeneratorConfig(**kw)


def report_line(criterion: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status} -- {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


# ---------------------------------------------------------------------------
# 1. gradient oracle
# ---------------------------------------------------------------------------


def _oracle_loss(values, net, x, g, y, kind, reg, masks):
    """The base-learner's training loss assembled directly from the weight
    views with plain numpy, independently of ``base_learner``'s passes."""
    w = BaseLearnerWeights(values, net.layout, net.activations)

    def affine(h, layer):
        return h @ (layer.v / np.linalg.norm(layer.v, axis=0) * layer.gain) + layer.bias

    h = x
    for layer, mask in zip(w.extractor, masks):
        z = affine(h, layer)
        h = (np.maximum(z, 0.0) if layer.activation == "relu" else np.tanh(z)) * mask
    z = affine(np.concatenate([h, w.embeddings[g]], axis=1), w.head)[:, 0]
    if kind == "classification":
        p = 1.0 / (1.0 + np.exp(-z))
        total = np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))
    else:
        total = np.mean((z - y) ** 2)
    l1, l2 = reg
    for m in [layer.v for layer in w.extractor] + [w.head.v, w.embeddings[np.unique(g)]]:
        total += l1 * np.abs(m).sum() + l2 * (m * m).sum()
    return total


def test_criterion_1_gradient_oracle():
    from metatreat.base_learner import loss_and_grads

    start = time.time()
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(100):
        kind = str(rng.choice(["regression", "classification"]))
        config = BaseLearnerConfig(
            n_layers=int(rng.integers(1, 3)),  # plus the head: up to 3 layers
            hidden_dim=int(rng.integers(2, 33)),  # up to 32 units
            embedding_dim=int(rng.integers(2, 9)),
            activation=str(rng.choice(["relu", "tanh"])),
            dropout_rate=float(rng.choice([0.0, 0.2])),
            reg_kind=str(rng.choice(["l1", "l2", "both"])),
            reg_strength=1e-3,
        )
        n_features, n_groups = int(rng.integers(2, 9)), int(rng.integers(2, 5))
        net = init_weights(config, n_features, n_groups, rng)
        # away from init, where zero biases behind a dead ReLU layer sit
        # exactly on the kink and central differences read half the slope
        net.values[:] += rng.normal(scale=0.3, size=net.values.size)
        n = int(rng.integers(2, 7))
        absent = int(rng.integers(n_groups))  # one group never in the batch
        g = rng.choice([k for k in range(n_groups) if k != absent], size=n)
        x = rng.normal(size=(n, n_features))
        if kind == "classification":
            y = (rng.random(n) > 0.5).astype(np.float64)
        else:
            y = rng.normal(size=n)

        mask_seed = int(rng.integers(2**31))
        _, grads = loss_and_grads(net, x, g, y, kind, config, rng=np.random.default_rng(mask_seed))
        mask_rng = np.random.default_rng(mask_seed)
        rate = config.dropout_rate
        masks = [
            (mask_rng.random((n, config.hidden_dim)) >= rate) / (1.0 - rate)
            if rate > 0.0 else np.ones((n, config.hidden_dim))
            for _ in range(config.n_layers)
        ]

        def loss_fn(values, net=net, x=x, g=g, y=y, kind=kind, config=config, masks=masks):
            return _oracle_loss(values, net, x, g, y, kind, config.l1_l2(), masks)

        numeric = central_diff(loss_fn, net.values.copy(), h=1e-6)
        worst = max(worst, max_rel_error(grads.values, numeric))
    elapsed = time.time() - start
    report_line(
        1, "gradient oracle", worst <= 1e-5 and elapsed < 30.0,
        f"max relative error {worst:.2e} over 100 nets in {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. metric oracles
# ---------------------------------------------------------------------------


def test_criterion_2_metric_oracles():
    rng = np.random.default_rng(20240002)
    worst_auc = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 60))
        labels = rng.integers(0, 2, n).astype(float)
        if labels.min() == labels.max():
            labels[0] = 1.0 - labels[0]
        # half the instances use a coarse grid so ties are common
        if rng.random() < 0.5:
            scores = rng.integers(0, 6, n).astype(float)
        else:
            scores = rng.normal(size=n)
        worst_auc = max(worst_auc, abs(auc(scores, labels) - pairwise_auc(scores, labels)))

    worst_mse = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 50))
        pred = rng.normal(size=n)
        y = rng.normal(size=n)
        direct = float(sum((p - t) ** 2 for p, t in zip(pred, y)) / n)
        worst_mse = max(worst_mse, abs(mse(pred, y) - direct))

    report_line(
        2, "metric oracles", worst_auc <= 1e-12 and worst_mse <= 1e-12,
        f"auc deviation {worst_auc:.2e} (500 instances), mse deviation {worst_mse:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. interpolation-update algebra
# ---------------------------------------------------------------------------


def _algebra_setup(lr):
    config = GeneratorConfig(
        n_groups=3, n_per_group=10, d_pre=3, d_aux=3, delta=(-1.0, 0.0, 1.0), seed=3
    )
    table, _, _ = generate(config)
    _, processed = fit_preprocess(
        table, table.group_ids != 2, PreprocessConfig(scaling="standardize"), ()
    )
    train_table, test_table = group_holdout_split(processed, "g2")
    tasks = select_training_tasks(
        train_table, [TaskSpec("y", "regression", "target_task")], SelectionConfig()
    )
    base = BaseLearnerConfig(
        n_layers=1, hidden_dim=4, embedding_dim=3, activation="tanh",
        dropout_rate=0.0, reg_strength=0.0, optimizer="sgd",
        learning_rate=lr, inner_iterations=2,
    )
    return train_table, withhold_targets(test_table), tasks, base


def test_criterion_3_update_algebra():
    # (a) epsilon schedule endpoints are exact
    endpoints_ok = all(
        epsilon_schedule(0, T, e0) == e0 and epsilon_schedule(T - 1, T, e0) == e0 / T
        for T in (20, 50, 100)
        for e0 in (0.25, 0.5, 0.75)
    )

    # (b) eps=1, single task, toward_adapted: theta equals adapted weights bitwise
    from metatreat.base_learner import inner_update

    train_table, masked_test, tasks, base = _algebra_setup(lr=0.05)
    rng = np.random.default_rng(5)
    theta = init_weights(base, 3, 3, rng)
    meta = MetaConfig(meta_iterations=1, epsilon0=1.0, k=4, tasks_per_iteration=1)
    # the batch the fold's first meta-iteration draws from its stream
    batch = sample_task_batch(
        tasks, train_table, masked_test, meta.k, copy.deepcopy(rng), TaskCache()
    )
    adapted = inner_update(theta, batch.train_data, batch.task, base, np.random.default_rng(0))
    adapted = inner_update(adapted, batch.finetune_data, batch.task, base, np.random.default_rng(0))
    [stepped] = meta_train(
        [train_table], [masked_test], [tasks], base, meta, rngs=[rng], initial_weights=[theta]
    )
    eps1_ok = np.array_equal(stepped.values, adapted.values)

    # (c) lr=0 is a fixed point across every meta-iteration
    train_table, masked_test, tasks, base0 = _algebra_setup(lr=0.0)
    meta = MetaConfig(meta_iterations=20, epsilon0=0.5, k=4)
    rng = np.random.default_rng(6)
    theta0 = init_weights(base0, 3, 3, rng)
    [theta_final] = meta_train(
        [train_table], [masked_test], [tasks], base0, meta,
        rngs=[np.random.default_rng(6)], initial_weights=[theta0],
    )
    fixed_point_ok = np.array_equal(theta_final.values, theta0.values)

    report_line(
        3, "update algebra", endpoints_ok and eps1_ok and fixed_point_ok,
        f"endpoints={endpoints_ok} eps1_bitwise={eps1_ok} lr0_fixed_point={fixed_point_ok}",
    )


# ---------------------------------------------------------------------------
# 4. zero-shot firewall
# ---------------------------------------------------------------------------


def test_criterion_4_zero_shot_firewall(monkeypatch):
    # run_cv's own fold path, one fold per run (every other group excluded
    # from holdout): every array a model predicts there (meta and
    # base_initial through predict_rows, each baseline through
    # baseline_predict, on held-out and training rows) and the train_value
    # column must keep their bits when the held-out labels are replaced
    recorded: list[np.ndarray] = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            recorded.append(np.array(out))
            return out

        return wrapper

    monkeypatch.setattr(eval_harness, "predict_rows", recording(eval_harness.predict_rows))
    monkeypatch.setattr(
        eval_harness, "baseline_predict", recording(eval_harness.baseline_predict)
    )
    rng = np.random.default_rng(20240004)
    clean = 0
    runs = 20
    for run in range(runs):
        n_groups = int(rng.integers(2, 5))
        delta = tuple(float(d) for d in rng.normal(size=n_groups))
        gen = GeneratorConfig(
            n_groups=n_groups,
            n_per_group=int(rng.integers(8, 16)),
            d_pre=int(rng.integers(2, 5)),
            d_aux=int(rng.integers(2, 5)),
            delta=delta,
            noise_sigma=float(rng.uniform(0.3, 1.5)),
            seed=int(rng.integers(1_000_000)),
        )
        table, manifest, _ = generate(gen)
        g_star = f"g{int(rng.integers(n_groups))}"
        kind = str(rng.choice(["regression", "classification"]))
        base = BaseLearnerConfig(
            n_layers=int(rng.choice([1, 2])),
            hidden_dim=int(rng.choice([4, 8])),
            embedding_dim=int(rng.choice([3, 4])),
            activation=str(rng.choice(["relu", "tanh"])),
            dropout_rate=float(rng.choice([0.0, 0.1])),
            reg_kind="l2",
            reg_strength=1e-4,
            optimizer=str(rng.choice(["sgd", "adam"])),
            learning_rate=0.05,
            inner_iterations=2,
        )
        pipeline = PipelineConfig(
            task_kind=kind,
            preprocess=PreprocessConfig(scaling="standardize"),
            selection=SelectionConfig(),
            base=base,
            meta=MetaConfig(meta_iterations=2, epsilon0=0.5, k=4),
        )
        others = tuple(g for g in table.group_names if g != g_star)
        cv = CvConfig(excluded_holdout_groups=others, seed=int(rng.integers(1_000_000)))

        def predictions(raw):
            recorded.clear()
            report = run_cv(raw, manifest, pipeline, cv)
            assert {r.group for r in report.rows} == {g_star}
            return list(recorded), np.array([r.train_value for r in report.rows])

        base_preds, base_train = predictions(table)
        values = np.array(table.values)
        j = table.column_index("y")
        rows = table.group_ids == table.resolve_group(g_star)
        values[rows, j] = rng.normal(scale=100.0, size=int(rows.sum()))
        corrupted = DatasetTable(
            table.columns, values, table.missing_mask, table.group_ids, table.group_names
        )
        preds, train = predictions(corrupted)
        same_preds = len(preds) == len(base_preds) and all(
            a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            for a, b in zip(preds, base_preds)
        )
        if same_preds and np.array_equal(train, base_train, equal_nan=True):
            clean += 1
    report_line(
        4, "zero-shot firewall", clean == runs,
        f"{clean}/{runs} perturbed run_cv folds left every prediction bit unchanged",
    )


# ---------------------------------------------------------------------------
# 5. synthetic zero-shot benchmark
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_regression():
    results = []
    start = time.time()
    for seed in range(10):
        table, manifest, truth = generate(bench_generator(seed))
        report = run_cv(
            table, manifest, bench_pipeline("regression"),
            CvConfig(excluded_holdout_groups=("g0", "g1"), seed=seed),
        )
        vals = {r.model: r.value for r in report.rows}
        results.append((vals["meta"], vals["ridge"], truth.bayes_mse))
    return results, time.time() - start


def test_criterion_5_synthetic_zsl_benchmark(benchmark_regression):
    results, elapsed = benchmark_regression
    beats_ridge = sum(1 for m, r, _ in results if m <= 0.8 * r)
    near_bayes = sum(1 for m, _, b in results if m <= 1.5 * b)
    ok = beats_ridge >= 8 and near_bayes >= 7 and elapsed < 300.0
    meta_mses = np.round([m for m, _, _ in results], 3)
    report_line(
        5, "synthetic zero-shot benchmark", ok,
        f"<=0.8x ridge in {beats_ridge}/10 seeds, <=1.5x bayes in {near_bayes}/10, "
        f"meta mses {meta_mses.tolist()}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 6. overfit-resistance analog
# ---------------------------------------------------------------------------


def test_criterion_6_overfit_gap_vs_knn():
    meta_gaps, knn_gaps = [], []
    undefined = 0
    for seed in range(10):
        table, manifest, _ = generate(bench_generator(seed))
        report = run_cv(
            table, manifest, bench_pipeline("classification"),
            CvConfig(excluded_holdout_groups=("g0", "g1"), seed=seed),
        )
        rows = {r.model: r for r in report.rows}
        for model, store in (("meta", meta_gaps), ("knn", knn_gaps)):
            r = rows[model]
            if math.isfinite(r.value) and math.isfinite(r.train_value):
                store.append(abs(r.value - r.train_value))
            else:
                undefined += 1
    meta_median = float(np.median(meta_gaps))
    knn_median = float(np.median(knn_gaps))
    report_line(
        6, "overfit gap vs knn", meta_median <= knn_median,
        f"median |test-train| auc gap: meta {meta_median:.3f} vs knn {knn_median:.3f} "
        f"({len(meta_gaps)} defined folds, {undefined} single-class excluded)",
    )


# ---------------------------------------------------------------------------
# 7. no-effect sanity
# ---------------------------------------------------------------------------


def test_criterion_7_no_effect_parity():
    # a pure-noise study: zero shifts and no feature coupling anywhere, so
    # there is nothing for any model to exploit beyond the training mean
    ratios = []
    for seed in range(5):
        gen = bench_generator(
            seed, delta=(0.0, 0.0, 0.0),
            target_coupling_scale=0.0, aux_coupling_scale=0.0,
        )
        table, manifest, _ = generate(gen)
        report = run_cv(
            table, manifest, bench_pipeline("regression"),
            CvConfig(excluded_holdout_groups=("g0", "g1"), seed=seed),
        )
        vals = {r.model: r.value for r in report.rows}
        ratios.append(vals["meta"] / vals["mean"])
    ok = all(abs(r - 1.0) <= 0.10 for r in ratios)
    report_line(
        7, "no-effect parity", ok,
        f"meta/mean mse ratios over 5 seeds: {np.round(ratios, 3).tolist()}",
    )


# ---------------------------------------------------------------------------
# 8. CLI determinism
# ---------------------------------------------------------------------------


def test_criterion_8_cli_determinism(tmp_path):
    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps(bench_generator(0, n_per_group=12).to_dict()))
    data_dir = tmp_path / "data"
    assert cli_main(["generate", "--config", str(gen_path), "--out", str(data_dir)]) == 0
    run_path = tmp_path / "run.json"
    run_path.write_text(
        json.dumps(
            {
                "task_kind": "regression",
                "base": {"n_layers": 1, "hidden_dim": 6, "embedding_dim": 4,
                          "activation": "tanh", "dropout_rate": 0.1,
                          "optimizer": "sgd", "learning_rate": 0.05,
                          "inner_iterations": 2},
                "meta": {"meta_iterations": 3, "k": 4},
                "cv": {"seed": 11},
            }
        )
    )
    args = [
        "cv", "--data", str(data_dir / "data.csv"),
        "--manifest", str(data_dir / "manifest.json"), "--config", str(run_path),
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("report.csv", "summary.json", "plot_data.csv")
    )
    report_line(8, "cli determinism", identical, "two cmd_cv runs are byte-identical")


# ---------------------------------------------------------------------------
# 9. preprocessing properties
# ---------------------------------------------------------------------------


def test_criterion_9_preprocessing_properties():
    rng = np.random.default_rng(20240009)

    # (a) residualized features center each training stratum to 0 +- 1e-12
    residual_ok = True
    for _ in range(25):
        n = int(rng.integers(20, 60))
        strat = (rng.random(n) > 0.5).astype(float)
        strat[:2], strat[2:4] = 0.0, 1.0
        f = rng.normal(size=n) + rng.uniform(1.0, 4.0) * strat
        vals = np.column_stack([strat, f, rng.normal(size=n)])
        cols = (
            ColumnMeta("s", "pre", "numeric", "stratifier"),
            ColumnMeta("f", "pre"),
            ColumnMeta("y", "post", "numeric", "target"),
        )
        table = DatasetTable(cols, vals, np.isnan(vals), rng.integers(0, 2, n), ("a", "b"))
        train = rng.random(n) > 0.3
        train[:4] = True
        out, stats = residualize(table, "s", 0.05, train)
        j = out.column_index("f")
        if "f" in stats.columns:
            for s in (0.0, 1.0):
                sel = train & (strat == s)
                if abs(out.values[sel, j].mean()) > 1e-12:
                    residual_ok = False

    # (b) imputation reads training rows only (test-row perturbation)
    imputation_ok = True
    for _ in range(25):
        n = int(rng.integers(10, 40))
        vals = rng.normal(size=(n, 2))
        vals[rng.random(n) < 0.3, 0] = np.nan
        cols = (ColumnMeta("f", "pre"), ColumnMeta("y", "post", "numeric", "target"))
        gids = rng.integers(0, 2, n)
        gids[:2] = [0, 1]
        table = DatasetTable(cols, vals, np.isnan(vals), gids, ("a", "b"))
        train = table.group_ids == 0
        if not (~np.isnan(vals[:, 0]) & train).any():
            continue
        _, means = impute_means(table, train)
        vals2 = np.array(vals)
        vals2[~train, 0] = np.where(np.isnan(vals2[~train, 0]), np.nan, 1e6)
        vals2[~train, 1] = -1e6
        table2 = DatasetTable(cols, vals2, np.isnan(vals2), gids, ("a", "b"))
        _, means2 = impute_means(table2, train)
        if means != means2:
            imputation_ok = False

    # (c) group holdout is an exact partition on 1,000 random tables
    partition_ok = True
    cols = (ColumnMeta("f", "pre"), ColumnMeta("y", "post", "numeric", "target"))
    for _ in range(1000):
        n_groups = int(rng.integers(2, 6))
        n = int(rng.integers(n_groups, 40))
        gids = rng.integers(0, n_groups, n)
        gids[:n_groups] = np.arange(n_groups)
        vals = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
        table = DatasetTable(
            cols, vals, np.zeros((n, 2), dtype=bool), gids,
            tuple(f"g{i}" for i in range(n_groups)),
        )
        g_star = int(rng.integers(n_groups))
        train, test = group_holdout_split(table, table.group_names[g_star])
        ids = sorted(np.concatenate([train.values[:, 0], test.values[:, 0]]))
        if ids != list(range(n)) or not np.all(test.group_ids == g_star):
            partition_ok = False

    report_line(
        9, "preprocessing properties",
        residual_ok and imputation_ok and partition_ok,
        f"residual_centering={residual_ok} train_only_imputation={imputation_ok} "
        f"exact_partition={partition_ok}",
    )
