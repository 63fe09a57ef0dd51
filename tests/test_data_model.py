import json
import typing

import numpy as np
import pytest
from scipy import stats as scipy_stats

from metatreat.data_model import (
    ColumnMeta,
    DatasetTable,
    ManifestDoc,
    PreprocessConfig,
    _typed,
    binarize_labels,
    differential_features,
    drop_sparse_features,
    fit_preprocess,
    fit_scaling,
    group_holdout_split,
    impute_means,
    load_csv,
    load_manifest,
    model_inputs,
    parse_manifest,
    residualize,
    table_from_rows,
    task_dataset,
    two_sample_t_test,
    withhold_targets,
)
from metatreat.errors import ConfigError, DataError


def make_table(values, columns, group_ids, group_names=("a", "b"), mask=None):
    values = np.asarray(values, dtype=np.float64)
    if mask is None:
        mask = np.isnan(values)
    return DatasetTable(tuple(columns), values, mask, np.asarray(group_ids), tuple(group_names))


def simple_manifest():
    return parse_manifest(
        {
            "columns": [
                {"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"},
                {"name": "f1", "role": "feature", "timing": "pre"},
                {"name": "f2", "role": "feature", "timing": "post"},
                {"name": "y", "role": "target", "timing": "post"},
            ]
        }
    )


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_csv_masks_empty_cells(tmp_path):
    (tmp_path / "m.json").write_text(json.dumps(simple_manifest().to_dict() | {
        "columns": simple_manifest().to_dict()["columns"]
        + [{"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"}]
    }))
    (tmp_path / "d.csv").write_text("grp,f1,f2,y\nA,1,2,3\nB,,4,5\nA,6,7,8\n")
    table = load_csv(load_manifest(tmp_path / "m.json"), tmp_path / "d.csv")
    assert table.missing_mask.sum() == 1
    assert table.missing_mask[1, table.column_index("f1")]
    assert np.isnan(table.values[1, table.column_index("f1")])


def test_load_csv_group_ids_by_first_appearance(tmp_path):
    header = ["grp", "f1", "f2", "y"]
    rows = [["A", "1", "2", "3"], ["B", "1", "2", "3"], ["A", "1", "2", "3"]]
    table = table_from_rows(simple_manifest(), header, rows)
    assert list(table.group_ids) == [0, 1, 0]
    assert table.group_names == ("A", "B")


def test_load_csv_header_manifest_mismatch_names_column(tmp_path):
    header = ["grp", "f1", "bogus", "y"]
    rows = [["A", "1", "2", "3"]]
    with pytest.raises(DataError, match="bogus"):
        table_from_rows(simple_manifest(), header, rows)
    header = ["grp", "f1", "y"]
    with pytest.raises(DataError, match="f2"):
        table_from_rows(simple_manifest(), header, [["A", "1", "3"]])


def test_load_csv_bad_numeric_reports_location():
    header = ["grp", "f1", "f2", "y"]
    rows = [["A", "1", "2", "3"], ["B", "oops", "4", "5"]]
    with pytest.raises(DataError, match=r"row 3.*f1.*oops"):
        table_from_rows(simple_manifest(), header, rows)


def test_load_csv_missing_group_value():
    header = ["grp", "f1", "f2", "y"]
    with pytest.raises(DataError, match="missing group"):
        table_from_rows(simple_manifest(), header, [["", "1", "2", "3"]])


def test_load_csv_one_hot_encodes_categorical():
    manifest = parse_manifest(
        {
            "columns": [
                {"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"},
                {"name": "color", "role": "feature", "kind": "categorical", "timing": "pre"},
                {"name": "y", "role": "target", "timing": "post"},
            ]
        }
    )
    rows = [["A", "red", "1"], ["B", "blue", "2"], ["A", "", "3"]]
    table = table_from_rows(manifest, ["grp", "color", "y"], rows)
    names = [c.name for c in table.columns]
    assert "color=red" in names and "color=blue" in names
    j = table.column_index("color=red")
    assert table.values[0, j] == 1.0 and table.values[1, j] == 0.0
    assert table.missing_mask[2, j]  # missing categorical masks every one-hot cell


def test_manifest_requires_one_group_and_a_target():
    with pytest.raises(ConfigError, match="group"):
        parse_manifest({"columns": [{"name": "y", "role": "target", "timing": "post"}]})
    with pytest.raises(ConfigError, match="target"):
        parse_manifest(
            {"columns": [{"name": "g", "role": "group", "kind": "categorical", "timing": "pre"}]}
        )


@pytest.mark.parametrize(
    "patch, needle",
    [
        ({"columns": 5}, "columns: expected a list"),
        ({"columns": [5]}, r"columns\[0\]: ColumnMeta"),
        ({"columns": [{"timing": "pre"}]}, "missing ColumnMeta keys"),
        ({"columns": [{"name": 3}]}, "ColumnMeta.name: expected"),
        ({"missing_values": 5}, "missing_values: expected"),
        ({"missing_values": ["", 5]}, r"missing_values\[1\]"),
        ({"differential_pairs": 5}, "differential_pairs"),
        ({"differential_pairs": [["f2"]]}, r"\[0\]: expected 2"),
        ({"differential_pairs": [["f2", 1]]}, r"\[1\]: expected str"),
        ({"reference_group": 0}, "reference_group"),
    ],
)
def test_manifest_rejects_wrongly_typed_values(patch, needle):
    doc = {"columns": [
        {"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"},
        {"name": "y", "role": "target", "timing": "post"},
    ]}
    with pytest.raises(ConfigError, match=needle):
        parse_manifest({**doc, **patch})


@pytest.mark.parametrize(
    "pairs, needle",
    [
        ([["f1", "nope"]], r"\['f1', 'nope'\] names undeclared column 'nope'"),
        ([["grp", "f1"]], r"\['grp', 'f1'\] names the group column 'grp'"),
        ([["f1", "f2"], ["f2", "f1"], ["f1", "f2"]], r"\['f1', 'f2'\] is listed twice"),
        ([["y", "f1"]], r"\['y', 'f1'\] names the target column 'y'"),
        ([["f1", "color"]], r"\['f1', 'color'\] names the categorical feature 'color'"),
        ("manual", r'differential_pairs: expected "auto" or a list of pairs'),
    ],
)
def test_manifest_rejects_bad_differential_pairs(pairs, needle):
    columns = [
        {"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"},
        {"name": "f1", "timing": "post"},
        {"name": "f2", "timing": "pre"},
        {"name": "color", "kind": "categorical"},
        {"name": "y", "role": "target", "timing": "post"},
    ]
    with pytest.raises(ConfigError, match=needle):
        parse_manifest({"columns": columns, "differential_pairs": pairs})
    # both orders of one pair are two pairs
    both = [["f1", "f2"], ["f2", "f1"]]
    manifest = parse_manifest({"columns": columns, "differential_pairs": both})
    assert manifest.differential_pairs == (("f1", "f2"), ("f2", "f1"))


def test_typed_union_takes_the_member_of_the_value_type():
    where = "ManifestDoc.differential_pairs"
    hint = typing.get_type_hints(ManifestDoc)["differential_pairs"]
    assert _typed(where, hint, "auto") == "auto"
    pairs = _typed(where, hint, [["a_post", "a_pre"], ["b", "c"]])
    assert pairs == (("a_post", "a_pre"), ("b", "c"))
    with pytest.raises(ConfigError, match=rf"^{where}: expected str or list, got dict$"):
        _typed(where, hint, {"a_post": "a_pre"})


def test_auto_pairs_numeric_features_only():
    columns = [
        {"name": "grp", "role": "group", "kind": "categorical"},
        {"name": "a_post", "timing": "post"},
        {"name": "a_pre"},
        {"name": "c_post", "kind": "categorical", "timing": "post"},
        {"name": "c_pre", "kind": "categorical"},
        {"name": "y_post", "role": "target", "timing": "post"},
        {"name": "y_pre"},
    ]
    manifest = parse_manifest({"columns": columns, "differential_pairs": "auto"})
    assert manifest.differential_pairs == (("a_post", "a_pre"),)


def test_manifest_rejects_unknown_keys():
    doc = simple_manifest().to_dict()
    doc["columns"].append(
        {"name": "grp", "role": "group", "kind": "categorical", "timing": "pre"}
    )
    doc["surprise"] = 1
    with pytest.raises(ConfigError, match="surprise"):
        parse_manifest(doc)


# ---------------------------------------------------------------------------
# sparse features / imputation
# ---------------------------------------------------------------------------

FEAT_COLS = [
    ColumnMeta("f1", "pre"),
    ColumnMeta("f2", "pre"),
    ColumnMeta("y", "post", "numeric", "target"),
]


def test_drop_sparse_features_thresholds():
    vals = np.array(
        [[np.nan, 1.0, 0.0], [np.nan, 2.0, 0.0], [np.nan, np.nan, 0.0], [4.0, 3.0, 0.0], [5.0, 4.0, 0.0]]
    )
    table = make_table(vals, FEAT_COLS, [0, 0, 0, 1, 1])
    train = np.ones(5, dtype=bool)
    out, dropped = drop_sparse_features(table, 0.5, train)
    assert dropped == ("f1",)  # 60% missing > 0.5; f2 at 20% stays
    out, dropped = drop_sparse_features(table, 1.0, train)
    assert dropped == ()
    out, dropped = drop_sparse_features(table, 0.0, train)
    assert set(dropped) == {"f1", "f2"}
    assert [c.name for c in out.columns] == ["y"]  # targets never dropped


def test_impute_means_uses_train_rows_only():
    vals = np.array([[1.0, 0.0], [np.nan, 0.0], [3.0, 0.0], [100.0, 0.0]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 0, 0, 1])
    train = np.array([True, True, True, False])
    out, means = impute_means(table, train)
    assert means == {"f1": 2.0}
    assert out.values[1, 0] == 2.0
    assert not out.missing_mask[:, 0].any()


def test_impute_fills_test_rows_with_train_mean():
    vals = np.array([[1.0, 0.0], [3.0, 0.0], [np.nan, 0.0], [100.0, 0.0]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 0, 1, 1])
    train = np.array([True, True, False, False])
    out, _ = impute_means(table, train)
    assert out.values[2, 0] == 2.0  # train mean, not the test-row mean


def test_impute_identity_when_complete():
    vals = np.array([[1.0, 0.0], [2.0, 0.0]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 1])
    out, _ = impute_means(table, np.array([True, True]))
    assert np.array_equal(out.values, table.values)


def test_impute_errors_when_column_all_missing_in_train():
    vals = np.array([[np.nan, 0.0], [np.nan, 0.0], [5.0, 0.0]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 0, 1])
    with pytest.raises(DataError, match="f1"):
        impute_means(table, np.array([True, True, False]))


# ---------------------------------------------------------------------------
# t-test
# ---------------------------------------------------------------------------


def test_t_test_identical_samples():
    a = np.array([1.0, 2.0, 3.0])
    assert two_sample_t_test(a, a.copy()) == pytest.approx(1.0)


def test_t_test_gross_separation():
    rng = np.random.default_rng(0)
    a = np.zeros(4) + rng.normal(scale=1e-3, size=4)
    b = np.full(4, 10.0) + rng.normal(scale=1e-3, size=4)
    assert two_sample_t_test(a, b) < 1e-3


def test_t_test_matches_reference_welch():
    a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    b = np.array([2.0, 3.0, 4.0, 5.0, 6.0])
    expected = scipy_stats.ttest_ind(a, b, equal_var=False).pvalue
    assert two_sample_t_test(a, b) == pytest.approx(expected, abs=1e-6)


def test_t_test_random_cases_match_reference():
    rng = np.random.default_rng(5)
    for _ in range(25):
        a = rng.normal(size=rng.integers(2, 12))
        b = rng.normal(loc=rng.normal(), size=rng.integers(2, 12))
        expected = scipy_stats.ttest_ind(a, b, equal_var=False).pvalue
        assert two_sample_t_test(a, b) == pytest.approx(expected, abs=1e-9)


def test_t_test_degenerate_variance_warns_p1():
    with pytest.warns(UserWarning):
        p = two_sample_t_test(np.zeros(3), np.ones(3))
    assert p == 1.0


# ---------------------------------------------------------------------------
# residual features
# ---------------------------------------------------------------------------


def residual_fixture():
    # stratum 0 rows have f1 ~ 10, stratum 1 rows ~ 20: clearly separated
    vals = np.array(
        [
            [0.0, 9.0, 5.0, 0.0],
            [0.0, 11.0, 5.0, 0.0],
            [0.0, 10.0, 5.0, 0.0],
            [1.0, 19.0, 5.0, 0.0],
            [1.0, 21.0, 5.0, 0.0],
            [1.0, 20.0, 5.0, 0.0],
        ]
    )
    cols = [
        ColumnMeta("sex", "pre", "numeric", "stratifier"),
        ColumnMeta("f1", "pre"),
        ColumnMeta("f2", "pre"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    return make_table(vals, cols, [0, 0, 0, 1, 1, 1])


def test_residualize_centers_each_stratum():
    table = residual_fixture()
    out, stats = residualize(table, "sex", 0.05, np.ones(6, dtype=bool))
    assert "f1" in stats.columns
    j = out.column_index("f1")
    assert np.allclose(out.values[:3, j], [-1.0, 1.0, 0.0])
    assert np.allclose(out.values[3:, j], [-1.0, 1.0, 0.0])


def test_residualize_leaves_insensitive_features():
    table = residual_fixture()
    out, stats = residualize(table, "sex", 0.05, np.ones(6, dtype=bool))
    assert "f2" not in stats.columns  # constant across strata
    j = out.column_index("f2")
    assert np.array_equal(out.values[:, j], table.values[:, j])


def test_residualize_within_stratum_train_mean_is_zero():
    rng = np.random.default_rng(11)
    n = 40
    strat = (rng.random(n) > 0.5).astype(float)
    f = rng.normal(size=n) + 3.0 * strat
    vals = np.column_stack([strat, f, np.zeros(n)])
    cols = [
        ColumnMeta("sex", "pre", "numeric", "stratifier"),
        ColumnMeta("f1", "pre"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    table = make_table(vals, cols, rng.integers(0, 2, n))
    train = rng.random(n) > 0.3
    out, stats = residualize(table, "sex", 0.05, train)
    assert "f1" in stats.columns
    j = out.column_index("f1")
    for s in (0.0, 1.0):
        sel = train & (strat == s)
        assert abs(out.values[sel, j].mean()) < 1e-12


def test_residualize_rejects_nonbinary_stratifier():
    vals = np.array([[0.0, 1.0, 0.0], [1.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 1.0, 0.0]])
    cols = [
        ColumnMeta("s", "pre", "numeric", "stratifier"),
        ColumnMeta("f1", "pre"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    table = make_table(vals, cols, [0, 0, 1, 1])
    with pytest.raises(DataError, match="two values"):
        residualize(table, "s", 0.05, np.ones(4, dtype=bool))


# ---------------------------------------------------------------------------
# differential features
# ---------------------------------------------------------------------------


def diff_fixture():
    vals = np.array([[3.0, 5.0, 0.0], [1.0, np.nan, 0.0]])
    cols = [
        ColumnMeta("score_pre", "pre"),
        ColumnMeta("score_post", "post"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    return make_table(vals, cols, [0, 1])


def test_differential_post_minus_pre():
    out = differential_features(diff_fixture(), (("score_post", "score_pre"),))
    j = out.column_index("score_post_minus_score_pre")
    assert out.values[0, j] == 2.0
    assert out.columns[j].timing == "post"


def test_differential_missing_propagates():
    out = differential_features(diff_fixture(), (("score_post", "score_pre"),))
    j = out.column_index("score_post_minus_score_pre")
    assert out.missing_mask[1, j]


def test_differential_rejects_target_columns():
    with pytest.raises(ConfigError, match="target"):
        differential_features(diff_fixture(), (("y", "score_pre"),))


# ---------------------------------------------------------------------------
# scaling
# ---------------------------------------------------------------------------


def scale_fixture():
    vals = np.array(
        [[0.0, 1.0, 10.0], [5.0, 2.0, 20.0], [10.0, 3.0, 30.0], [10.0, 4.0, 40.0]]
    )
    cols = [
        ColumnMeta("f1", "pre"),
        ColumnMeta("f2", "pre"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    return make_table(vals, cols, [0, 0, 1, 1], group_names=("a", "b"))


def test_normalize_min_max():
    table = scale_fixture()
    out, _ = fit_scaling(table, np.array([True, True, True, False]), "normalize", None)
    assert np.allclose(out.values[:3, 0], [0.0, 0.5, 1.0])


def test_standardize_unit_moments_on_fit_rows():
    table = scale_fixture()
    train = np.array([True, True, True, True])
    out, _ = fit_scaling(table, train, "standardize", None)
    for j in (0, 1):
        assert abs(out.values[:, j].mean()) < 1e-12
        assert abs(out.values[:, j].std() - 1.0) < 1e-12
    assert np.array_equal(out.values[:, 2], table.values[:, 2])  # targets untouched


def test_reference_group_mode_standardizes_targets():
    table = scale_fixture()
    train = np.array([True, True, True, True])
    out, _ = fit_scaling(table, train, "standardize_vs_reference_group", reference_group="a")
    ref = out.group_ids == 0
    y = out.values[:, 2]
    assert abs(y[ref].mean()) < 1e-12 and abs(y[ref].std() - 1.0) < 1e-12
    assert abs(y[~ref].mean()) > 1.0  # other groups are shifted, not recentred


def test_zero_variance_column_left_unscaled():
    vals = np.array([[1.0, 7.0, 0.0], [1.0, 8.0, 0.0]])
    cols = [
        ColumnMeta("const", "pre"),
        ColumnMeta("f", "pre"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    table = make_table(vals, cols, [0, 1])
    with pytest.warns(UserWarning, match="const"):
        out, stats = fit_scaling(table, np.array([True, True]), "standardize", None)
    assert np.array_equal(out.values[:, 0], table.values[:, 0])
    assert "const" in stats.skipped


# ---------------------------------------------------------------------------
# group holdout split
# ---------------------------------------------------------------------------


def split_fixture():
    vals = np.arange(8, dtype=float).reshape(4, 2)
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    return make_table(vals, cols, [0, 1, 0, 2], group_names=("a", "b", "c"))


def test_split_by_group():
    train, test = group_holdout_split(split_fixture(), "a")
    assert list(test.group_ids) == [0, 0]
    assert list(train.group_ids) == [1, 2]


def test_split_singleton_group():
    _, test = group_holdout_split(split_fixture(), "c")
    assert test.n_rows == 1


def test_split_is_a_partition():
    table = split_fixture()
    train, test = group_holdout_split(table, "b")
    assert train.n_rows + test.n_rows == table.n_rows
    all_rows = np.concatenate([train.values[:, 0], test.values[:, 0]])
    assert sorted(all_rows) == sorted(table.values[:, 0])


def test_split_partition_property_random_tables():
    rng = np.random.default_rng(17)
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    for _ in range(200):
        n_groups = int(rng.integers(2, 5))
        n = int(rng.integers(n_groups, 30))
        gids = rng.integers(0, n_groups, n)
        gids[: n_groups] = np.arange(n_groups)  # every group non-empty
        vals = np.column_stack([np.arange(n, dtype=float), rng.normal(size=n)])
        table = make_table(vals, cols, gids, group_names=tuple(f"g{i}" for i in range(n_groups)))
        g_star = int(rng.integers(n_groups))
        train, test = group_holdout_split(table, table.group_names[g_star])
        ids = np.concatenate([train.values[:, 0], test.values[:, 0]])
        assert sorted(ids) == list(range(n))  # exact partition, no dup, no loss
        assert np.all(test.group_ids == g_star)
        assert np.all(train.group_ids != g_star)


def test_split_empty_group_errors():
    vals = np.zeros((2, 2))
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 1], group_names=("a", "b", "ghost"))
    with pytest.raises(DataError, match="ghost"):
        group_holdout_split(table, "ghost")


# ---------------------------------------------------------------------------
# the fitted plan
# ---------------------------------------------------------------------------


def plan_fixture():
    rng = np.random.default_rng(23)
    n = 60
    gids = np.repeat([0, 1, 2], n // 3)
    sex = (rng.random(n) > 0.5).astype(float)
    f1 = rng.normal(size=n) + 2.0 * sex
    f2 = rng.normal(size=n)
    f2[rng.random(n) < 0.1] = np.nan
    sparse = np.where(rng.random(n) < 0.9, np.nan, 1.0 + rng.normal(size=n))
    post = f1 + rng.normal(size=n)
    y = rng.normal(size=n) + gids.astype(float)
    vals = np.column_stack([sex, f1, f2, sparse, post, y])
    cols = [
        ColumnMeta("sex", "pre", "numeric", "stratifier"),
        ColumnMeta("f1_pre", "pre"),
        ColumnMeta("f2", "pre"),
        ColumnMeta("sparse", "pre"),
        ColumnMeta("f1_post", "post"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    return make_table(vals, cols, gids, group_names=("a", "b", "c"))


def test_plan_never_reads_test_rows():
    table = plan_fixture()
    train = table.group_ids != 2
    config = PreprocessConfig(scaling="standardize")
    plan, _ = fit_preprocess(table, train, config, (("f1_post", "f1_pre"),))

    # perturb every numeric value in the held-out rows; the plan must not move
    rng = np.random.default_rng(99)
    vals = np.array(table.values)
    test_rows = ~train
    vals[test_rows] = vals[test_rows] + rng.normal(scale=10.0, size=vals[test_rows].shape)
    vals[test_rows[:, None] & np.isnan(table.values)] = np.nan
    perturbed = DatasetTable(
        table.columns, vals, table.missing_mask, table.group_ids, table.group_names
    )
    plan2, _ = fit_preprocess(perturbed, train, config, (("f1_post", "f1_pre"),))
    assert plan.to_dict() == plan2.to_dict()


def test_preprocess_clears_feature_mask():
    table = plan_fixture()
    train = table.group_ids != 1
    _, processed = fit_preprocess(table, train, PreprocessConfig(), ())
    for j, col in enumerate(processed.columns):
        if col.role == "feature":
            assert not processed.missing_mask[:, j].any()


# ---------------------------------------------------------------------------
# model-facing views
# ---------------------------------------------------------------------------


def test_model_inputs_excludes_post_and_targets():
    table = plan_fixture()
    _, processed = fit_preprocess(table, table.group_ids != 2, PreprocessConfig(), ())
    x = model_inputs(processed)
    from metatreat.data_model import model_input_columns

    names = model_input_columns(processed)
    assert "f1_post" not in names and "y" not in names and "sex" not in names
    assert x.shape == (processed.n_rows, len(names))


def test_task_dataset_binarizes_strictly_above_zero():
    vals = np.array([[1.0, -0.5], [2.0, 0.0], [3.0, 0.5]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 1, 0])
    data = task_dataset(table, "y", "classification")
    assert list(data.y) == [0.0, 0.0, 1.0]
    assert list(binarize_labels(np.array([-1.0, 0.0, 1e-12]))) == [0.0, 0.0, 1.0]


def test_reference_scaling_binarizes_above_the_reference_mean():
    # targets are scaled before binarization, so under
    # standardize_vs_reference_group the positive class is a raw target above
    # the reference group's training mean (5 here): a raw 2.0 is labelled 0
    vals = np.array([[0.1, 4.0], [0.2, 6.0], [0.3, 2.0], [0.4, 7.0], [0.5, -1.0]])
    cols = [ColumnMeta("f1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = make_table(vals, cols, [0, 0, 1, 1, 1])
    config = PreprocessConfig(scaling="standardize_vs_reference_group", reference_group="a")
    _, processed = fit_preprocess(table, np.ones(5, dtype=bool), config, ())
    assert list(task_dataset(processed, "y", "classification").y) == [0.0, 1.0, 0.0, 1.0, 0.0]


def test_withhold_targets_masks_all_target_cells():
    table = plan_fixture()
    masked = withhold_targets(table)
    j = masked.column_index("y")
    assert masked.missing_mask[:, j].all()
    assert np.isnan(masked.values[:, j]).all()
    # features untouched
    k = masked.column_index("f1_pre")
    assert np.array_equal(masked.values[:, k], table.values[:, k])
