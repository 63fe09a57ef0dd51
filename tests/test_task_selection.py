import math

import numpy as np
import pytest

from metatreat.data_model import ColumnMeta, DatasetTable
from metatreat.errors import ConfigError, DataError
from metatreat.task_selection import (
    MAX_HISTOGRAM_CELLS,
    SelectionConfig,
    mutual_information,
    pearson,
    select_training_tasks,
)
from oracles import plugin_mi_from_counts


def make_table(named_columns, group_ids=None):
    names = [n for n, _, _ in named_columns]
    cols = tuple(
        ColumnMeta(n, timing, "numeric", role) for n, timing, role in named_columns
    )
    return names, cols


def table_of(columns, data, gids=None):
    data = np.asarray(data, dtype=np.float64)
    gids = np.zeros(len(data), dtype=int) if gids is None else np.asarray(gids)
    names = sorted(set(int(g) for g in gids)) or [0]
    return DatasetTable(
        tuple(columns), data, np.isnan(data), gids, tuple(f"g{i}" for i in range(max(names) + 1))
    )


# ---------------------------------------------------------------------------
# pearson
# ---------------------------------------------------------------------------


def test_pearson_perfect_linear():
    assert pearson(np.array([1.0, 2, 3]), np.array([2.0, 4, 6])) == pytest.approx(1.0)


def test_pearson_perfect_negative():
    assert pearson(np.array([1.0, 2, 3]), np.array([3.0, 2, 1])) == pytest.approx(-1.0)


def test_pearson_hand_computed():
    # deviations x: [-1.5,-0.5,0.5,1.5], y: [-1.5,0.5,-0.5,1.5]
    # cross sum 4, each square sum 5 -> r = 4/5
    assert pearson(np.array([1.0, 2, 3, 4]), np.array([1.0, 3, 2, 4])) == pytest.approx(0.8)


def test_pearson_zero_variance_is_nan():
    assert np.isnan(pearson(np.array([1.0, 1, 1]), np.array([1.0, 2, 3])))


def test_pearson_symmetry_and_affine_invariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=12)
        y = rng.normal(size=12)
        r = pearson(x, y)
        assert r == pytest.approx(pearson(y, x))
        assert pearson(2.5 * x + 7.0, y) == pytest.approx(r)
        assert pearson(-x, y) == pytest.approx(-r)
        assert -1.0 <= r <= 1.0


# ---------------------------------------------------------------------------
# mutual information
# ---------------------------------------------------------------------------


def test_mi_of_identical_balanced_bits_is_ln2():
    x = np.array([0.0, 1, 0, 1, 0, 1])
    assert mutual_information(x, x, bins=2) == pytest.approx(np.log(2.0))


def test_mi_of_exact_product_table_is_zero():
    x = np.array([0.0, 0, 1, 1])
    y = np.array([0.0, 1, 0, 1])
    assert mutual_information(x, y, bins=2) == pytest.approx(0.0, abs=1e-12)


def test_mi_matches_plugin_oracle():
    # joint counts [[2,1],[1,2]] realized by explicit 0/1 pairs
    x = np.array([0.0, 0, 0, 1, 1, 1])
    y = np.array([0.0, 0, 1, 0, 1, 1])
    expected = plugin_mi_from_counts(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert mutual_information(x, y, bins=2) == pytest.approx(expected, abs=1e-12)


def test_mi_nonnegative_and_permutation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        mi = mutual_information(x, y)
        assert mi >= 0.0
        perm = rng.permutation(30)
        assert mutual_information(x[perm], y[perm]) == pytest.approx(mi)


def test_mi_degenerate_column_is_zero():
    x = np.full(10, 3.0)
    y = np.arange(10, dtype=float)
    assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# selection
# ---------------------------------------------------------------------------


def selection_fixture(n=40, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    cols = [
        ColumnMeta("x1", "pre"),
        ColumnMeta("p1", "post"),
        ColumnMeta("p2", "post"),
        ColumnMeta("p3", "post"),
        ColumnMeta("p4", "post"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    data = np.column_stack(
        [
            rng.normal(size=n),
            y + 0.1 * rng.normal(size=n),  # p1 strongly related
            y.copy(),  # p2 duplicates the target
            rng.normal(size=n),  # p3 noise
            rng.normal(size=n),  # p4 noise
            y,
        ]
    )
    return table_of(cols, data, np.zeros(n, dtype=int))


TARGET = "y"


def test_all_post_keeps_every_usable_candidate():
    table = selection_fixture()
    tasks = select_training_tasks(table, [TARGET], SelectionConfig("all_post"))
    assert tasks == ("p1", "p2", "p3", "p4")


def test_pearson_top1_picks_target_duplicate():
    table = selection_fixture()
    config = SelectionConfig("pearson", keep_fraction=0.25)
    tasks = select_training_tasks(table, [TARGET], config)
    assert tasks == ("p2",)  # |r| = 1


def test_keep_fraction_rounds_up():
    table = selection_fixture()
    config = SelectionConfig("pearson", keep_fraction=0.7)
    tasks = select_training_tasks(table, [TARGET], config)
    assert len(tasks) == 3  # ceil(0.7 * 4)


def test_selection_uses_training_rows_only():
    table = selection_fixture()
    config = SelectionConfig("mutual_info", keep_fraction=0.5)
    chosen = select_training_tasks(table, [TARGET], config)
    # a fresh table with different extra rows, restricted to the same rows,
    # must give the same answer; selection is a function of the given table
    again = select_training_tasks(table, [TARGET], config)
    assert chosen == again


def test_target_columns_never_become_training_tasks():
    table = selection_fixture()
    tasks = select_training_tasks(table, [TARGET], SelectionConfig("all_post"))
    assert "y" not in tasks


def test_no_post_features_errors():
    cols = [ColumnMeta("x1", "pre"), ColumnMeta("y", "post", "numeric", "target")]
    table = table_of(cols, np.random.default_rng(0).normal(size=(10, 2)))
    with pytest.raises(DataError, match="no training tasks"):
        select_training_tasks(table, [TARGET], SelectionConfig("all_post"))


def test_constant_candidates_excluded():
    cols = [
        ColumnMeta("x1", "pre"),
        ColumnMeta("flat", "post"),
        ColumnMeta("p1", "post"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    rng = np.random.default_rng(1)
    data = np.column_stack(
        [rng.normal(size=20), np.full(20, 2.0), rng.normal(size=20), rng.normal(size=20)]
    )
    table = table_of(cols, data)
    tasks = select_training_tasks(table, [TARGET], SelectionConfig("all_post"))
    assert tasks == ("p1",)


def test_selection_config_validation():
    with pytest.raises(ConfigError):
        SelectionConfig("nope")
    with pytest.raises(ConfigError):
        SelectionConfig("pearson", keep_fraction=0.0)


def test_mutual_information_histogram_is_capped():
    # the largest square histogram under the cap is accepted, one bin more
    # is refused before any histogram is built
    side = math.isqrt(MAX_HISTOGRAM_CELLS)
    assert SelectionConfig("mutual_info", mi_bins=side).mi_bins == side
    with pytest.raises(ConfigError, match=f"mi_bins {side + 1} gives a"):
        SelectionConfig("mutual_info", mi_bins=side + 1)


def test_relevance_ties_break_by_column_order():
    rng = np.random.default_rng(2)
    y = rng.normal(size=30)
    noise = rng.normal(size=30)
    cols = [
        ColumnMeta("x1", "pre"),
        ColumnMeta("p_second", "post"),
        ColumnMeta("p_first", "post"),
        ColumnMeta("y", "post", "numeric", "target"),
    ]
    # p_second and p_first carry identical values, hence identical relevance
    data = np.column_stack([rng.normal(size=30), noise, noise, y])
    table = table_of(cols, data)
    tasks = select_training_tasks(
        table, [TARGET], SelectionConfig("pearson", keep_fraction=0.5)
    )
    assert tasks == ("p_second",)  # earlier column wins
