import json

import numpy as np
import pytest

from metatreat.data_model import load_csv, load_manifest
from metatreat.errors import ConfigError
from metatreat.eval_harness import baseline_predict, mse
from metatreat.synth_gen import (
    MAX_CELLS,
    GeneratorConfig,
    bayes_optimal_mse,
    generate,
    manifest_to_json_text,
    table_to_csv_text,
    write_dataset,
)


def test_no_effect_groups_have_equal_means():
    config = GeneratorConfig(
        n_groups=3, n_per_group=400, delta=(0.0, 0.0, 0.0), noise_sigma=1.0, seed=5
    )
    table, _, _ = generate(config)
    y = table.values[:, table.column_index("y")]
    tol = 4.0 * np.sqrt(2.0) / np.sqrt(400)  # 4 sd of a mean difference
    means = [y[table.group_ids == g].mean() for g in range(3)]
    for a in means:
        for b in means:
            assert abs(a - b) < tol


def test_group_means_separate_by_delta():
    sigma = 1.0
    config = GeneratorConfig(
        n_groups=3,
        n_per_group=500,
        delta=(-2.0 * sigma, 0.0, 2.0 * sigma),
        noise_sigma=sigma,
        seed=6,
    )
    table, _, truth = generate(config)
    y = table.values[:, table.column_index("y")]
    tol = 4.0 * np.sqrt(2.0) / np.sqrt(500)
    for g, d in enumerate(config.delta):
        assert y[table.group_ids == g].mean() == pytest.approx(d, abs=tol)


def test_same_seed_gives_identical_csv():
    config = GeneratorConfig(seed=9, missing_rate=0.1)
    t1, m1, _ = generate(config)
    t2, m2, _ = generate(config)
    assert table_to_csv_text(t1, m1.group_column) == table_to_csv_text(t2, m2.group_column)
    assert manifest_to_json_text(m1) == manifest_to_json_text(m2)


def test_bayes_mse_is_noise_variance():
    assert bayes_optimal_mse(GeneratorConfig(noise_sigma=1.0)) == 1.0
    assert bayes_optimal_mse(GeneratorConfig(noise_sigma=0.5)) == 0.25


def test_oracle_predictor_achieves_bayes_mse():
    config = GeneratorConfig(n_groups=2, n_per_group=5000, delta=(0.0, 1.0), seed=12)
    table, _, truth = generate(config)
    y = table.values[:, table.column_index("y")]
    oracle_mse = mse(truth.noiseless_target, y)
    assert abs(oracle_mse - truth.bayes_mse) / truth.bayes_mse < 0.1


def test_aux_columns_carry_group_signal():
    config = GeneratorConfig(
        n_groups=3, n_per_group=400, delta=(-2.0, 0.0, 2.0), aux_delta_scale=1.0, seed=4
    )
    table, _, _ = generate(config)
    for j in range(config.d_aux):
        col = table.values[:, table.column_index(f"aux{j}")]
        means = [col[table.group_ids == g].mean() for g in range(3)]
        assert means[0] < means[1] < means[2]  # ordering matches the shifts


def test_pooling_failure_bound_for_group_blind_fits():
    # a fit that ignores group identity cannot beat
    # sigma^2 + (weighted mean of training deltas - held-out delta)^2
    config = GeneratorConfig(
        n_groups=3, n_per_group=300, delta=(-2.0, 0.0, 2.0), noise_sigma=1.0, seed=13
    )
    table, _, _ = generate(config)
    test_rows = table.group_ids == 2
    y = table.values[:, table.column_index("y")]
    x_cols = [table.column_index(f"x{i}") for i in range(config.d_pre)]
    x = table.values[:, x_cols]
    train_delta_mean = np.mean([-2.0, 0.0])
    bound = config.noise_sigma**2 + (train_delta_mean - 2.0) ** 2
    for kind in ("mean", "ridge"):
        preds = baseline_predict(kind, (x[~test_rows], y[~test_rows]), x[test_rows])
        test_mse = mse(preds, y[test_rows])
        assert test_mse > 0.9 * bound  # margin for sampling noise


def test_missingness_rate_and_target_completeness():
    config = GeneratorConfig(n_per_group=300, missing_rate=0.2, seed=3)
    table, _, _ = generate(config)
    j_y = table.column_index("y")
    assert not table.missing_mask[:, j_y].any()
    feature_cols = [i for i, c in enumerate(table.columns) if c.role == "feature"]
    frac = table.missing_mask[:, feature_cols].mean()
    assert frac == pytest.approx(0.2, abs=0.02)


def test_written_files_reload_to_the_same_table(tmp_path):
    config = GeneratorConfig(n_per_group=20, missing_rate=0.1, seed=8)
    table, manifest, truth = generate(config)
    paths = write_dataset(tmp_path, table, manifest, truth, config)
    loaded = load_csv(load_manifest(paths["manifest"]), paths["data"])
    assert loaded.group_names == table.group_names
    assert np.array_equal(loaded.missing_mask, table.missing_mask)
    assert np.array_equal(
        np.nan_to_num(loaded.values, nan=-9.0), np.nan_to_num(table.values, nan=-9.0)
    )
    doc = json.loads(paths["ground_truth"].read_text())
    assert doc["bayes_mse"] == truth.bayes_mse
    assert doc["generator_config"]["seed"] == 8


def test_mild_nonlinear_coupling_changes_targets():
    linear = generate(GeneratorConfig(coupling="linear", seed=2))[0]
    bent = generate(GeneratorConfig(coupling="mild_nonlinear", seed=2))[0]
    j = linear.column_index("y")
    assert not np.allclose(linear.values[:, j], bent.values[:, j])


def test_config_validation():
    with pytest.raises(ConfigError):
        GeneratorConfig(n_groups=1, delta=(0.0,))
    with pytest.raises(ConfigError):
        GeneratorConfig(delta=(0.0, 1.0))  # wrong length for 3 groups
    with pytest.raises(ConfigError):
        GeneratorConfig(noise_sigma=0.0)
    with pytest.raises(ConfigError):
        GeneratorConfig.from_dict({"bogus_knob": 1})


def test_config_over_the_cell_cap_is_refused_before_generating():
    # constructing a config allocates nothing, so only the check runs
    rows = MAX_CELLS // (4 + 8 + 1) // 3
    GeneratorConfig(n_per_group=rows)
    with pytest.raises(ConfigError, match="exceeds the generator's cap"):
        GeneratorConfig(n_per_group=rows + 1)
    with pytest.raises(ConfigError, match="exceeds the generator's cap"):
        GeneratorConfig(d_aux=10**12)
    with pytest.raises(ConfigError, match="exceeds the generator's cap"):
        GeneratorConfig.from_dict({"n_groups": 2, "n_per_group": 10**15, "delta": [0, 1]})


def test_explicit_aux_delta_matrix():
    aux = ((0.0, 1.0), (2.0, 3.0))
    config = GeneratorConfig(
        n_groups=2, n_per_group=500, d_aux=2, delta=(0.0, 0.0), aux_delta=aux, seed=1
    )
    table, _, _ = generate(config)
    for j in range(2):
        col = table.values[:, table.column_index(f"aux{j}")]
        diff = col[table.group_ids == 1].mean() - col[table.group_ids == 0].mean()
        assert diff == pytest.approx(aux[1][j] - aux[0][j], abs=0.3)
