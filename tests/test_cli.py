import csv
import dataclasses
import io
import json
import math
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metatreat import eval_harness
from metatreat.cli import _load_json, _run_config, build_parser, main, report_from_csv_text
from metatreat.data_model import (
    DEFAULT_MISSING_SENTINELS,
    KINDS,
    SCALING_MODES,
    TIMINGS,
    DatasetTable,
    Manifest,
    load_csv,
    load_manifest,
    strict_dataclass,
)
from metatreat.errors import DataError
from metatreat.eval_harness import MetricReport, MetricRow, SearchSpace, plot_data_csv
from metatreat.synth_gen import (
    COUPLINGS,
    GeneratorConfig,
    generate,
    manifest_to_json_text,
    write_dataset,
)
from metatreat.task_selection import SELECTION_METHODS

GEN_CONFIG = {
    "n_groups": 3,
    "n_per_group": 10,
    "d_pre": 3,
    "d_aux": 3,
    "delta": [-1.0, 0.0, 1.0],
    "noise_sigma": 0.5,
    "seed": 4,
}

FAST_RUN = {
    "task_kind": "regression",
    "preprocess": {"scaling": "standardize"},
    "selection": {"method": "all_post"},
    "base": {
        "n_layers": 1,
        "hidden_dim": 6,
        "embedding_dim": 4,
        "activation": "tanh",
        "dropout_rate": 0.05,
        "reg_kind": "l2",
        "reg_strength": 1e-4,
        "optimizer": "sgd",
        "learning_rate": 0.05,
        "inner_iterations": 2,
    },
    "meta": {"meta_iterations": 3, "epsilon0": 0.5, "k": 4, "tasks_per_iteration": 1},
    "cv": {"seed": 7},
}

TINY_SPACE = {
    "n_layers": [1],
    "hidden_dim": [6],
    "embedding_dim": [4],
    "activation": ["tanh"],
    "dropout_rate": [0.05],
    "reg_kind": ["l2"],
    "reg_strength": [1e-4],
    "optimizer": ["sgd"],
    "learning_rate": [0.05, 0.01],
    "inner_iterations": [2],
    "meta_iterations": [3],
    "epsilon0": [0.5],
    "k": [4],
    "tasks_per_iteration": [1],
    "selection_method": ["all_post"],
    "scaling": ["standardize"],
    "missing_threshold": [0.5],
}


@pytest.fixture()
def study_dir(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(GEN_CONFIG))
    out = tmp_path / "data"
    assert main(["generate", "--config", str(gen), "--out", str(out)]) == 0
    return out


def write_run_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(FAST_RUN))
    return path


def test_generate_writes_three_files(study_dir):
    assert (study_dir / "data.csv").exists()
    assert (study_dir / "manifest.json").exists()
    assert (study_dir / "ground_truth.json").exists()


def test_generate_rerun_is_byte_identical(tmp_path, study_dir):
    gen = tmp_path / "gen.json"
    out2 = tmp_path / "data2"
    assert main(["generate", "--config", str(gen), "--out", str(out2)]) == 0
    for name in ("data.csv", "manifest.json", "ground_truth.json"):
        assert (study_dir / name).read_bytes() == (out2 / name).read_bytes()


def test_generate_malformed_config_names_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GEN_CONFIG, "n_grups": 3}))
    code = main(["generate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "n_grups" in capsys.readouterr().err


def test_cv_writes_reports_with_all_model_rows(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    out = tmp_path / "cv"
    code = main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--out", str(out),
    ])
    assert code == 0
    text = (out / "report.csv").read_text()
    report = report_from_csv_text(text)
    assert {r.group for r in report.rows} == {"g0", "g1", "g2"}  # 3 folds
    models = {r.model for r in report.rows}
    assert {"base_initial", "meta", "mean", "median", "knn", "ridge"} == models
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed"] == 7
    assert "config_hash" in summary and "version" in summary


def test_cv_holdout_exclude_removes_fold(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    out = tmp_path / "cv_ex"
    code = main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--holdout-exclude", "g1", "--out", str(out),
    ])
    assert code == 0
    report = report_from_csv_text((out / "report.csv").read_text())
    assert {r.group for r in report.rows} == {"g0", "g2"}


def _search_argv(tmp_path, study_dir, command, data=None):
    """``command`` on the study with the fast run config; grid-search with
    the tiny space and a budget of three candidates."""
    argv = [
        command, "--data", str(data or study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(write_run_config(tmp_path)), "--out", str(tmp_path / command),
    ]
    if command == "grid-search":
        space = tmp_path / "space.json"
        space.write_text(json.dumps(TINY_SPACE))
        argv += ["--budget", "3", "--space", str(space)]
    return argv


@pytest.mark.parametrize("command", ["cv", "grid-search"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_unknown_excluded_group_exits_3_listing_the_known_groups(
    tmp_path, study_dir, capsys, command, source
):
    argv = _search_argv(tmp_path, study_dir, command)
    if source == "flag":
        argv += ["--holdout-exclude", "G0"]
    else:
        write_run_config(tmp_path).write_text(
            json.dumps({**FAST_RUN, "cv": {"excluded_holdout_groups": ["G0"]}})
        )
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "['G0'] are not in the data" in err and "['g0', 'g1', 'g2']" in err
    assert not (tmp_path / command).exists()


@pytest.mark.parametrize(
    "case, code", [("every group excluded", 2), ("unknown group", 3), ("one group", 3)]
)
def test_grid_search_fails_a_pre_flight_no_candidate_passes_once_as_cv_does(
    tmp_path, study_dir, capsys, case, code
):
    data, extra = None, []
    if case == "one group":
        lines = (study_dir / "data.csv").read_text().splitlines()
        data = tmp_path / "one-group.csv"
        data.write_text("\n".join(l for l in lines if not l.startswith(("g1", "g2"))) + "\n")
    else:
        groups = ["g0", "g1", "g2"] if case == "every group excluded" else ["g9"]
        extra = [arg for g in groups for arg in ("--holdout-exclude", g)]
    errors = []
    for command in ("cv", "grid-search"):
        assert main(_search_argv(tmp_path, study_dir, command, data) + extra) == code
        errors.append(capsys.readouterr().err)
    # cv notes the off-grid fields first; grid-search prints the error alone
    assert errors[0].endswith(errors[1]) and errors[1].count("\n") == 1


def test_cv_same_seed_byte_identical_reports(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    args = [
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"), "--config", str(run),
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("report.csv", "summary.json", "plot_data.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_cv_flag_overrides_config_seed(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    out = tmp_path / "cv_seed"
    main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--seed", "123", "--out", str(out),
    ])
    assert json.loads((out / "summary.json").read_text())["seed"] == 123


def test_cv_unknown_config_key_exit_2(tmp_path, study_dir, capsys):
    run = tmp_path / "run.json"
    run.write_text(json.dumps({**FAST_RUN, "mystery": 1}))
    code = main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_cv_missing_data_file_exit_3(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    code = main([
        "cv", "--data", str(tmp_path / "nope.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--out", str(tmp_path / "x"),
    ])
    assert code == 3


@pytest.mark.parametrize(
    "pairs, needle",
    [
        ([["aux0", "nope"]], "['aux0', 'nope'] names undeclared column 'nope'"),
        ([["aux0", "group"]], "['aux0', 'group'] names the group column 'group'"),
        ([["aux0", "x0"], ["aux0", "x0"]], "['aux0', 'x0'] is listed twice"),
        ([["y", "x0"]], "['y', 'x0'] names the target column 'y'"),
        ([["color", "x0"]], "['color', 'x0'] names the categorical feature 'color'"),
    ],
)
def test_bad_differential_pair_exits_2_before_data_loads(
    tmp_path, study_dir, capsys, pairs, needle
):
    doc = json.loads((study_dir / "manifest.json").read_text(encoding="utf-8"))
    doc["columns"].append({"name": "color", "kind": "categorical"})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({**doc, "differential_pairs": pairs}), encoding="utf-8")
    # the data file does not exist: loading it would exit 3
    code = main([
        "cv", "--data", str(tmp_path / "absent.csv"), "--manifest", str(manifest),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert needle in capsys.readouterr().err


def test_cv_numeric_blowup_exit_4(tmp_path, study_dir, capsys):
    # an absurd learning rate overflows the forward pass mid-run
    run = tmp_path / "run.json"
    blowup = dict(FAST_RUN)
    blowup["base"] = {**FAST_RUN["base"], "learning_rate": 1e12, "inner_iterations": 5}
    run.write_text(json.dumps(blowup))
    import numpy as np

    with np.errstate(all="ignore"):
        code = main([
            "cv", "--data", str(study_dir / "data.csv"),
            "--manifest", str(study_dir / "manifest.json"),
            "--config", str(run), "--out", str(tmp_path / "x"),
        ])
    assert code == 4
    assert "numeric failure" in capsys.readouterr().err


def test_cv_reference_group_holdout_fails_before_any_fold(tmp_path, study_dir, monkeypatch, capsys):
    # g2 is the reference group and the last fold; its own fold cannot fit
    # the reference scaling, so the run stops before any fold meta-trains
    calls = []
    real_meta_train = eval_harness.meta_train

    def counting_meta_train(train_tables, *args, **kwargs):
        calls.extend(train_tables)  # one training table per fold
        return real_meta_train(train_tables, *args, **kwargs)

    monkeypatch.setattr(eval_harness, "meta_train", counting_meta_train)
    run = tmp_path / "run.json"
    scaling = {"scaling": "standardize_vs_reference_group", "reference_group": "g2"}
    run.write_text(json.dumps({**FAST_RUN, "preprocess": scaling}))
    args = [
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"), "--config", str(run),
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 3
    assert "--holdout-exclude g2" in capsys.readouterr().err
    assert calls == []
    assert main(args + ["--holdout-exclude", "g2", "--out", str(tmp_path / "b")]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize(
    "kind, code", [("data", 3), ("manifest", 3), ("config", 2), ("space", 2)]
)
def test_non_utf8_input_file_exits_with_message(tmp_path, study_dir, capsys, kind, code):
    space = tmp_path / "space.json"
    space.write_text(json.dumps(TINY_SPACE))
    files = {
        "data": study_dir / "data.csv", "manifest": study_dir / "manifest.json",
        "config": write_run_config(tmp_path), "space": space,
    }
    bad = tmp_path / f"bad-{kind}"
    bad.write_bytes(b"\xff\xfe" + files[kind].read_bytes())
    files[kind] = bad
    code_seen = main([
        "grid-search", "--data", str(files["data"]), "--manifest", str(files["manifest"]),
        "--config", str(files["config"]), "--space", str(files["space"]),
        "--budget", "1", "--out", str(tmp_path / "x"),
    ])
    assert code_seen == code
    err = capsys.readouterr().err
    assert str(bad) in err and "not UTF-8" in err


@pytest.mark.parametrize("kind, text", [("config", "null"), ("config", "[]"), ("manifest", "0")])
def test_json_input_that_is_not_an_object_exits_2(tmp_path, study_dir, capsys, kind, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    manifest = bad if kind == "manifest" else study_dir / "manifest.json"
    argv = ["cv", "--data", str(study_dir / "data.csv"), "--manifest", str(manifest)]
    if kind == "config":
        argv += ["--config", str(bad)]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, doc, needle",
    [
        ("config", {"cv": 5}, "CvConfig: expected a JSON object"),
        ("config", {"base": 5}, "BaseLearnerConfig: expected a JSON object"),
        ("config", {"base": {"n_layers": "x"}}, "BaseLearnerConfig.n_layers: expected int"),
        ("config", {"meta": {"k": 2.5}}, "MetaConfig.k: expected int, got float"),
        ("config", {"cv": {"excluded_holdout_groups": 5}}, "expected a list, got int"),
        ("config", {"cv": {"jobs": "2"}}, "CvConfig.jobs: expected int, got str"),
        ("config", {"cv": {"jobs": True}}, "CvConfig.jobs: expected int, got bool"),
        ("config", {"preprocess": {"missing_threshold": "a"}}, "missing_threshold"),
        ("manifest", {"columns": 5}, "ManifestDoc.columns: expected a list"),
        ("manifest", {"columns": [5]}, "ManifestDoc.columns[0]: ColumnMeta"),
        ("manifest", {"missing_values": 5}, "ManifestDoc.missing_values"),
        ("space", {"n_layers": 5}, "SearchSpace.n_layers: expected a list, got int"),
        ("space", {"n_layers": []}, "grid 'n_layers' is empty"),
        ("space", {"n_layers": ["a"]}, "SearchSpace.n_layers[0]: expected int, got str"),
        ("space", {"keep_fraction_range": [0.9]}, "expected 2 entries, got 1"),
        # every depth of a document: a top-level key, a section's, a list's entry
        ("config", {"task_kind": 5}, "PipelineConfig.task_kind: expected str, got int"),
        ("config", {"cv": {"excluded_holdout_groups": [1]}}, "CvConfig.excluded_holdout_groups[0]"),
        ("space", {"keep_fraction_range": [0.8, "1"]}, "SearchSpace.keep_fraction_range[1]"),
        ("manifest", {"reference_group": 0}, "ManifestDoc.reference_group: expected str"),
        ("manifest", {"columns": [{"name": "y", "role": None}]}, "ColumnMeta.role: expected str"),
    ],
)
def test_wrongly_typed_json_exits_2(tmp_path, study_dir, capsys, kind, doc, needle):
    files = {"manifest": study_dir / "manifest.json", "config": write_run_config(tmp_path)}
    if kind == "manifest":
        doc = {**json.loads(files["manifest"].read_text()), **doc}
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(json.dumps(doc))
    files[kind] = bad
    argv = [
        "cv", "--data", str(study_dir / "data.csv"), "--manifest", str(files["manifest"]),
        "--config", str(files["config"]), "--out", str(tmp_path / "x"),
    ]
    if kind == "space":
        argv = ["grid-search", *argv[1:], "--budget", "1", "--space", str(bad)]
    assert main(argv) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc, needle",
    [
        ({"n_groups": "x"}, "GeneratorConfig.n_groups: expected int, got str"),
        ({"delta": 5}, "GeneratorConfig.delta: expected a list, got int"),
        ({"seed": 1.5}, "GeneratorConfig.seed: expected int, got float"),
        ({"n_per_group": True}, "GeneratorConfig.n_per_group: expected int, got bool"),
        ({"delta": [0, 1, 10**400]}, "GeneratorConfig.delta[2]: integer out of float range"),
        ({"seed": -1}, "seed must be non-negative"),
        ({"bogus_knob": 1}, "unknown GeneratorConfig keys: ['bogus_knob']"),
        ({"aux_delta": [[0.0], [0.0, "x"]]}, "GeneratorConfig.aux_delta[1][1]: expected float"),
    ],
)
def test_wrongly_typed_generator_config_exits_2(tmp_path, capsys, doc, needle):
    bad = tmp_path / "gen.json"
    bad.write_text(json.dumps(doc))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["config", "manifest"])
def test_integer_literal_past_the_digit_limit_exits_2(tmp_path, capsys, kind):
    # json refuses integers of more than 4300 digits with a plain ValueError
    bad = tmp_path / "big.json"
    bad.write_text('{"seed": ' + "9" * 5000 + "}")
    if kind == "config":
        argv = ["generate", "--config", str(bad)]
    else:
        argv = ["cv", "--data", str(tmp_path / "missing.csv"), "--manifest", str(bad)]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind, doc, needle",
    [
        ("generate", {**GEN_CONFIG, "noise_sigma": math.nan}, "noise_sigma: NaN is not a JSON"),
        ("generate", {**GEN_CONFIG, "delta": [0.0, math.inf, 1.0]}, "delta: Infinity is not"),
        ("config", {"baselines": {"ridge_alpha": math.nan}}, "ridge_alpha: NaN is not a JSON"),
        ("config", {"base": {"learning_rate": -math.inf}}, "learning_rate: -Infinity is not"),
        ("config", {"base": {"hidden_dim": 0}}, "hidden_dim must be >= 1"),
        ("config", {"base": {"embedding_dim": -2}}, "embedding_dim must be non-negative"),
        ("config", {"base": {"reg_strength": -1e-3}}, "reg_strength must be non-negative"),
        ("config", {"baselines": {"knn_k": 0}}, "knn_k must be at least 1"),
        ("config", {"baselines": {"ridge_alpha": -1.0}}, "ridge_alpha must be non-negative"),
        ("config", {"baselines": {"logistic_alpha": -1.0}}, "logistic_alpha must be non-negative"),
        ("space", {"keep_fraction_range": [0.99, 0.7]}, "keep_fraction_range must satisfy"),
        ("space", {"keep_fraction_range": [0.0, 0.7]}, "keep_fraction_range must satisfy"),
    ],
)
def test_out_of_range_config_values_exit_2_naming_the_key(
    tmp_path, study_dir, capsys, kind, doc, needle
):
    bad = tmp_path / f"bad-{kind}.json"
    bad.write_text(json.dumps(doc))  # writes NaN and Infinity as Python's json does
    if kind == "generate":
        argv = ["generate", "--config", str(bad)]
    else:
        argv = ["cv", "--data", str(study_dir / "data.csv"), "--manifest",
                str(study_dir / "manifest.json"), "--config", str(bad)]
    if kind == "space":
        argv = ["grid-search", *argv[1:5], "--budget", "1", "--space", str(bad)]
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_non_finite_data_cell_exits_3_naming_row_and_column(tmp_path, study_dir, capsys, cell):
    lines = (study_dir / "data.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[2] = cell
    header = lines[0].split(",")
    data = tmp_path / "bad.csv"
    data.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    argv = [
        "cv", "--data", str(data), "--manifest", str(study_dir / "manifest.json"),
        "--config", str(write_run_config(tmp_path)), "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 3
    assert f"row 4, column {header[2]!r}: non-finite value {cell!r}" in capsys.readouterr().err


def test_generate_over_the_cell_cap_exits_2_without_output(tmp_path, capsys):
    bad = tmp_path / "gen.json"
    bad.write_text(json.dumps({**GEN_CONFIG, "n_per_group": 10**9}))
    assert main(["generate", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert "exceeds the generator's cap" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_generator_integer_shifts_are_written_as_floats(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({**GEN_CONFIG, "delta": [-1, 0, 1]}))
    assert main(["generate", "--config", str(gen), "--out", str(tmp_path / "ints")]) == 0
    gen.write_text(json.dumps(GEN_CONFIG))
    assert main(["generate", "--config", str(gen), "--out", str(tmp_path / "floats")]) == 0
    for name in ("data.csv", "manifest.json", "ground_truth.json"):
        assert (tmp_path / "ints" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()


def test_data_header_naming_a_column_twice_exits_3(tmp_path, study_dir, capsys):
    lines = (study_dir / "data.csv").read_text().splitlines()
    data = tmp_path / "dup.csv"
    data.write_text("\n".join([lines[0] + ",x0"] + [line + ",999" for line in lines[1:]]) + "\n")
    argv = [
        "cv", "--data", str(data), "--manifest", str(study_dir / "manifest.json"),
        "--config", str(write_run_config(tmp_path)), "--out", str(tmp_path / "x"),
    ]
    assert main(argv) == 3
    assert "column 'x0' appears twice" in capsys.readouterr().err


def test_utf8_bom_inputs_give_the_same_outputs(tmp_path, study_dir):
    # Excel's "CSV UTF-8" and some editors prefix a byte-order mark
    plain = {
        "data": study_dir / "data.csv",
        "manifest": study_dir / "manifest.json",
        "config": write_run_config(tmp_path),
    }
    bom = {}
    for kind, path in plain.items():
        bom[kind] = tmp_path / f"bom-{path.name}"
        bom[kind].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = ("report.csv", "summary.json", "plot_data.csv")
    runs = {}
    for name, files in (("plain", plain), ("bom", bom)):
        argv = ["cv", "--out", str(tmp_path / name)]
        for kind, path in files.items():
            argv += [f"--{kind}", str(path)]
        assert main(argv) == 0
        runs[name] = [(tmp_path / name / out).read_bytes() for out in outputs]
    assert runs["bom"] == runs["plain"]

    report = tmp_path / "plain" / "report.csv"
    bom_report = tmp_path / "bom-report.csv"
    bom_report.write_bytes(b"\xef\xbb\xbf" + report.read_bytes())
    for name, path in (("gaps-plain", report), ("gaps-bom", bom_report)):
        assert main(["report", "--report", str(path), "--out", str(tmp_path / name)]) == 0
    for out in ("plot_data.csv", "gap_stats.json"):
        assert (tmp_path / "gaps-bom" / out).read_bytes() == (
            tmp_path / "gaps-plain" / out
        ).read_bytes()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    gen = root / "gen.json"
    gen.write_text(json.dumps(GEN_CONFIG))
    assert main(["generate", "--config", str(gen), "--out", str(root / "data")]) == 0
    return root


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(["data", "manifest", "config"]),
    payload=st.one_of(st.binary(max_size=64), st.text(max_size=64).map(str.encode)),
)
def test_cli_any_input_bytes_exit_2_3_or_4(fuzz_dir, kind, payload):
    # the fuzzed file replaces one input; for manifest and config the data
    # path does not exist, so input that parses still stops before any work
    fuzzed = fuzz_dir / f"fuzzed-{kind}"
    fuzzed.write_bytes(payload)
    data = fuzzed if kind == "data" else fuzz_dir / "missing.csv"
    manifest = fuzzed if kind == "manifest" else fuzz_dir / "data" / "manifest.json"
    argv = ["cv", "--data", str(data), "--manifest", str(manifest)]
    if kind == "config":
        argv += ["--config", str(fuzzed)]
    assert main(argv + ["--out", str(fuzz_dir / "out")]) in (2, 3, 4)


def test_grid_search_budget_one(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(json.dumps(TINY_SPACE))
    out = tmp_path / "gs"
    code = main([
        "grid-search", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--space", str(space),
        "--budget", "1", "--seed", "2", "--out", str(out),
    ])
    assert code == 0
    lines = [l for l in (out / "leaderboard.csv").read_text().splitlines() if l and not l.startswith("#")]
    assert len(lines) == 2  # header + one candidate
    best = json.loads((out / "best_config.json").read_text())
    assert best["best"]["base"]["n_layers"] == 1


def test_grid_search_fixed_seed_identical_leaderboard(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    space = tmp_path / "space.json"
    space.write_text(json.dumps(TINY_SPACE))
    args = [
        "grid-search", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--space", str(space), "--budget", "3", "--seed", "5",
    ]
    out1, out2 = tmp_path / "g1", tmp_path / "g2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "leaderboard.csv").read_bytes() == (out2 / "leaderboard.csv").read_bytes()
    assert (out1 / "best_config.json").read_bytes() == (out2 / "best_config.json").read_bytes()


def test_grid_search_stamp_covers_excluded_groups_and_space(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    wide, narrow = tmp_path / "wide.json", tmp_path / "narrow.json"
    wide.write_text(json.dumps(TINY_SPACE))
    narrow.write_text(json.dumps({**TINY_SPACE, "learning_rate": [0.05]}))
    args = [
        "grid-search", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--budget", "1", "--seed", "5",
    ]
    variants = {
        "plain": ["--space", str(wide)],
        "excluded": ["--space", str(wide), "--holdout-exclude", "g0"],
        "space": ["--space", str(narrow)],
    }
    stamps = set()
    for name, extra in variants.items():
        out = tmp_path / name
        assert main(args + extra + ["--out", str(out)]) == 0
        stamps.add(json.loads((out / "best_config.json").read_text())["config_hash"])
    assert len(stamps) == 3


def test_grid_search_budget_zero_usage_error(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    code = main([
        "grid-search", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--budget", "0", "--out", str(tmp_path / "x"),
    ])
    assert code == 2


def test_report_command_recomputes_gap_files(tmp_path, study_dir):
    run = write_run_config(tmp_path)
    cv_out = tmp_path / "cv_for_report"
    main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--out", str(cv_out),
    ])
    rep_out = tmp_path / "rep"
    code = main(["report", "--report", str(cv_out / "report.csv"), "--out", str(rep_out)])
    assert code == 0
    assert (rep_out / "plot_data.csv").read_bytes() == (cv_out / "plot_data.csv").read_bytes()
    gaps = json.loads((rep_out / "gap_stats.json").read_text())
    assert "meta" in gaps["overfit_gap"]


# Any legal name: every Unicode text except lone surrogates, which cannot
# be written as UTF-8.
NAMES = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
CELL_FLOATS = st.floats(allow_nan=True, allow_infinity=True)


@settings(max_examples=200, deadline=None)
@given(
    NAMES,
    st.lists(
        st.tuples(NAMES, NAMES, NAMES, CELL_FLOATS, CELL_FLOATS, st.integers(0, 10**9), NAMES),
        max_size=4,
    ),
)
@example("mse", [("g0", "y", "meta", 0.0, 0.0, 1, ""), ("g1", "y", "meta", 2.68e154, 0.0, 1, "")])
@example("mse", [("g0", "y", "meta", 1.5e308, -1.5e308, 1, "")])
def test_report_csv_round_trips_any_names(metric, cells):
    # a report holds one metric, of any name
    report = MetricReport(tuple(MetricRow(*row[:3], metric, *row[3:]) for row in cells))
    back = report_from_csv_text("# stamp\n" + report.to_csv_text())
    assert len(back.rows) == len(report.rows)
    for got, want in zip(back.rows, report.rows):
        for a, b in zip(got.__dict__.values(), want.__dict__.values()):
            assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))
    # plot_data.csv names the same models and metric, one full row each,
    # whose statistics of finite values are finite; only a test - train gap
    # beyond the float range is refused, naming its row
    try:
        plot = plot_data_csv(back)
    except DataError as exc:
        assert "is beyond the float range" in str(exc)
        return
    models = [e["model"] for e in back.summary()]
    header, *plot_rows = csv.reader(io.StringIO(plot, newline=""))
    assert all(len(row) == len(header) for row in plot_rows)
    assert [row[:2] for row in plot_rows] == [[model, metric] for model in models]
    assert all(math.isfinite(float(cell)) for row in plot_rows for cell in row[2:] if cell)


# Names the loader reads back as written: it strips cells, and a cell equal
# to a missing sentinel is a missing value.
LOADABLE_NAMES = NAMES.filter(
    lambda name: name == name.strip() and name not in DEFAULT_MISSING_SENTINELS
)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(LOADABLE_NAMES, min_size=4, max_size=4, unique=True),
    st.lists(LOADABLE_NAMES, min_size=2, max_size=3, unique=True),
)
@example(['gr"p', "x,0", "aux0", "y"], ["a,b", 'c"d', "e\r\nf"])
@example(["\ufeffgroup", "x0", "aux0", "y"], ["g0", "g1"])  # the file's first cell
def test_written_study_round_trips_any_names(columns, groups):
    config = GeneratorConfig(
        n_groups=len(groups), n_per_group=2, d_pre=1, d_aux=1, delta=(0.0,) * len(groups)
    )
    table, _, truth = generate(config)
    group_column, *names = columns
    metas = tuple(dataclasses.replace(c, name=n) for c, n in zip(table.columns, names))
    table = DatasetTable(
        metas, table.values, table.missing_mask, table.group_ids, tuple(groups), group_column
    )
    with tempfile.TemporaryDirectory() as out:
        paths = write_dataset(out, table, Manifest(metas, group_column), truth, config)
        back = load_csv(load_manifest(paths["manifest"]), paths["data"])
    assert back.group_column == group_column and back.group_names == table.group_names
    assert back.columns == metas and np.array_equal(back.values, table.values)


def test_report_csv_quotes_only_names_that_need_it():
    rows = (
        MetricRow("g0", "y", "meta", "mse", 0.5, 0.25, 3),
        MetricRow("ctrl, placebo", 'say "hi"', "meta", "mse", 1.0, 2.0, 4, "a\rb"),
    )
    lines = MetricReport(rows).to_csv_text().split("\n")
    assert lines[1] == "g0,y,meta,mse,0.5,0.25,3,"
    assert lines[2] == '"ctrl, placebo","say ""hi""",meta,mse,1.0,2.0,4,"a\rb"'


def test_report_command_reads_quoted_names_and_rejects_malformed_rows(tmp_path):
    rows = (MetricRow("ctrl, placebo", "y", "meta", "mse", 1.0, 2.0, 4),)
    good = tmp_path / "report.csv"
    good.write_text("# stamp\n" + MetricReport(rows).to_csv_text(), encoding="utf-8")
    assert main(["report", "--report", str(good), "--out", str(tmp_path / "a")]) == 0
    bad = tmp_path / "bad.csv"
    for text in (
        "group,task,model,metric,value,train_value,n_test,note\nctrl, placebo,y,meta,mse,1,2,4,\n",
        "group,task,model,metric,value,train_value,n_test,note\ng0,y,meta,mse,one,2,4,\n",
        "",
    ):
        bad.write_text(text, encoding="utf-8")
        assert main(["report", "--report", str(bad), "--out", str(tmp_path / "b")]) == 3
    bad.write_bytes(b"group,task\n\xff\xfe\n")
    assert main(["report", "--report", str(bad), "--out", str(tmp_path / "b")]) == 3


def test_report_mixing_metrics_exits_3_naming_both(tmp_path, capsys):
    rows = (
        MetricRow("g0", "y", "meta", "mse", 0.5, 0.25, 3),
        MetricRow("g1", "y", "meta", "auc", 0.75, 0.5, 3),
    )
    path = tmp_path / "report.csv"
    path.write_text("# stamp\n" + MetricReport(rows).to_csv_text(), encoding="utf-8")
    assert main(["report", "--report", str(path), "--out", str(tmp_path / "out")]) == 3
    assert "['auc', 'mse']" in capsys.readouterr().err
    assert not (tmp_path / "out" / "plot_data.csv").exists()


def test_report_keeps_statistics_of_finite_values_finite(tmp_path, capsys):
    # the sample variance of 0 and 2.68e154 overflows; their standard error
    # is 1.34e154, and a test - train gap of 3e308 has no float at all
    def report(*rows):
        path = tmp_path / "report.csv"
        path.write_text(MetricReport(rows).to_csv_text(), encoding="utf-8")
        return main(["report", "--report", str(path), "--out", str(tmp_path / "out")])

    big = (MetricRow("g0", "y", "meta", "mse", 0.0, 0.0, 3),
           MetricRow("g1", "y", "meta", "mse", 2.68e154, 0.0, 3))
    assert report(*big) == 0
    [row] = list(csv.DictReader(io.StringIO((tmp_path / "out" / "plot_data.csv").read_text())))
    assert float(row["mean"]) == 1.34e154 and float(row["stderr"]) == 1.34e154
    gaps = json.loads((tmp_path / "out" / "gap_stats.json").read_text())["overfit_gap"]["meta"]
    assert all(math.isfinite(v) for v in gaps.values()) and gaps["max"] == 2.68e154
    assert "Warning" not in capsys.readouterr().err

    (tmp_path / "out" / "plot_data.csv").unlink()
    wide = MetricRow("g2", "y", "meta", "mse", 1.5e308, -1.5e308, 3)
    assert report(big[0], wide) == 3
    err = capsys.readouterr().err
    assert "report row 2: test - train gap 1.5e+308 - -1.5e+308" in err and "Warning" not in err
    assert not (tmp_path / "out" / "plot_data.csv").exists()


def test_out_dir_env_override(tmp_path, study_dir, monkeypatch):
    run = write_run_config(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("METATREAT_OUT_DIR", str(env_out))
    code = main([
        "cv", "--data", str(study_dir / "data.csv"),
        "--manifest", str(study_dir / "manifest.json"),
        "--config", str(run), "--out", str(tmp_path / "ignored"),
    ])
    assert code == 0
    assert (env_out / "report.csv").exists()
    assert not (tmp_path / "ignored").exists()


# ---------------------------------------------------------------------------
# JSON documents: one checker in, one encoder out
# ---------------------------------------------------------------------------


def json_number(lo: int, hi: int) -> st.SearchStrategy:
    """A JSON number in [lo, hi], an integer as often as a float."""
    return st.integers(lo, hi) | st.floats(lo, hi)


UNIT_OPEN_LOW = st.floats(0.0, 1.0, exclude_min=True) | st.just(1)  # (0, 1]
UNIT_OPEN_HIGH = st.floats(0.0, 1.0, exclude_max=True) | st.just(0)  # [0, 1)
POSITIVE = st.integers(1, 5) | st.floats(0.1, 5.0)

RUN_CONFIGS = st.fixed_dictionaries({
    "task_kind": st.sampled_from(["regression", "classification"]),
    "preprocess": st.fixed_dictionaries({
        "missing_threshold": json_number(0, 1),
        "scaling": st.sampled_from(SCALING_MODES),
        "reference_group": st.none() | st.text(max_size=4),
        "residual_alpha": json_number(0, 1),
    }),
    "selection": st.fixed_dictionaries({
        "method": st.sampled_from(SELECTION_METHODS),
        "keep_fraction": UNIT_OPEN_LOW,
        "mi_bins": st.integers(2, 40),
    }),
    "base": st.fixed_dictionaries({
        "n_layers": st.integers(1, 8),
        "hidden_dim": st.integers(1, 128),
        "embedding_dim": st.integers(0, 128),
        "activation": st.sampled_from(["relu", "tanh"]),
        "dropout_rate": UNIT_OPEN_HIGH,
        "reg_kind": st.sampled_from(["l1", "l2", "both"]),
        "reg_strength": json_number(0, 1),
        "optimizer": st.sampled_from(["sgd", "adam"]),
        "learning_rate": json_number(0, 1),
        "inner_iterations": st.integers(0, 5),
    }),
    "meta": st.fixed_dictionaries({
        "meta_iterations": st.integers(0, 100),
        "epsilon0": UNIT_OPEN_LOW,
        "k": st.integers(1, 20),
        "tasks_per_iteration": st.integers(1, 5),
    }),
    "baselines": st.fixed_dictionaries({
        "knn_k": st.integers(1, 20),
        "ridge_alpha": json_number(0, 10),
        "logistic_alpha": json_number(0, 10),
    }),
    "cv": st.fixed_dictionaries({
        "excluded_holdout_groups": st.lists(st.text(max_size=4), max_size=3),
        "seed": st.integers(0, 2**40),
        "jobs": st.integers(1, 4),
    }),
})

GRID_VALUES = {int: st.integers(-10, 10), float: json_number(-10, 10), str: st.text(max_size=3)}
SEARCH_SPACES = st.fixed_dictionaries({
    name: st.lists(GRID_VALUES[typing.get_args(hint)[0]], min_size=1, max_size=3)
    for name, hint in typing.get_type_hints(SearchSpace).items()
    if name != "keep_fraction_range"
} | {"keep_fraction_range": st.lists(UNIT_OPEN_LOW, min_size=2, max_size=2).map(sorted)})


@st.composite
def generator_configs(draw):
    groups, d_aux = draw(st.integers(2, 4)), draw(st.integers(0, 3))
    shifts = st.lists(json_number(-5, 5), min_size=groups, max_size=groups)
    rows = st.lists(json_number(-5, 5), min_size=d_aux, max_size=d_aux)
    return draw(st.fixed_dictionaries({
        "n_groups": st.just(groups), "n_per_group": st.integers(1, 50),
        "d_pre": st.integers(1, 5), "d_aux": st.just(d_aux), "delta": shifts,
        "aux_delta": st.none() | st.lists(rows, min_size=groups, max_size=groups),
        "aux_delta_scale": json_number(-5, 5), "noise_sigma": POSITIVE,
        "aux_noise_sigma": st.none() | POSITIVE, "coupling": st.sampled_from(COUPLINGS),
        "target_coupling_scale": json_number(-5, 5), "aux_coupling_scale": json_number(-5, 5),
        "aux_mix": json_number(-5, 5), "missing_rate": UNIT_OPEN_HIGH,
        "seed": st.integers(0, 2**40),
    }))


@st.composite
def manifests(draw):
    """A manifest document: one group column, a numeric target, other
    columns of any timing and kind, and keys left to their defaults."""
    names = draw(st.lists(st.text(max_size=6), min_size=2, max_size=6, unique=True))
    columns = [{"name": names[0], "role": "group", "kind": "categorical"},
               {"name": names[1], "role": "target", "timing": draw(st.sampled_from(TIMINGS))}]
    for name in names[2:]:
        columns.append(draw(st.fixed_dictionaries(
            {"name": st.just(name)},
            optional={
                "role": st.sampled_from(["feature", "stratifier"]),
                "kind": st.sampled_from(KINDS),
                "timing": st.sampled_from(TIMINGS),
            },
        )))
    # pairs of the columns a pair may name (no target, no categorical
    # feature), none listed twice
    pairable = [
        c["name"] for c in columns[2:]
        if c.get("kind") != "categorical" or c.get("role") == "stratifier"
    ]
    pair = st.lists(st.sampled_from(pairable), min_size=2, max_size=2)
    pairs = st.lists(pair, max_size=2, unique_by=tuple) if pairable else st.just([])
    return draw(st.fixed_dictionaries(
        {"columns": st.permutations(columns)},
        optional={
            "differential_pairs": st.just("auto") | pairs,
            "reference_group": st.none() | st.sampled_from(names),
            "missing_values": st.lists(st.text(max_size=3), max_size=3),
        },
    ))


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@settings(max_examples=60, deadline=None)
@given(doc=RUN_CONFIGS)
def test_run_config_round_trips_through_its_json_text(codec_dir, doc):
    config = _write(codec_dir / "run.json", doc)
    args = build_parser().parse_args(["cv", "--data", "d", "--manifest", "m", "--config", config])
    pipeline, cv = _run_config(args)
    # every value comes back with its JSON type: an integer stays an integer
    written = {**pipeline.to_dict(), "cv": dataclasses.asdict(cv)}
    assert json.dumps(written, sort_keys=True) == json.dumps(doc, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(doc=SEARCH_SPACES)
def test_search_space_round_trips_through_its_json_text(codec_dir, doc):
    space = strict_dataclass(SearchSpace, _load_json(_write(codec_dir / "space.json", doc)))
    assert json.dumps(dataclasses.asdict(space), sort_keys=True) == json.dumps(doc, sort_keys=True)


@settings(max_examples=60, deadline=None)
@given(doc=generator_configs())
def test_generator_config_round_trips_through_its_json_text(codec_dir, doc):
    config = GeneratorConfig.from_dict(_load_json(_write(codec_dir / "gen.json", doc)))
    text = json.dumps(config.to_dict(), sort_keys=True)
    again = GeneratorConfig.from_dict(json.loads(text))
    assert again == config and json.dumps(again.to_dict(), sort_keys=True) == text
    # shifts are written as floats; every other value keeps its JSON type
    kept = {k: v for k, v in doc.items() if k not in ("delta", "aux_delta")}
    assert json.dumps({k: json.loads(text)[k] for k in kept}) == json.dumps(kept)


@settings(max_examples=60, deadline=None)
@given(doc=manifests())
def test_manifest_round_trips_through_its_json_text(codec_dir, doc):
    manifest = load_manifest(_write(codec_dir / "manifest.json", doc))
    text = manifest_to_json_text(manifest)
    (codec_dir / "written.json").write_text(text, encoding="utf-8")
    again = load_manifest(codec_dir / "written.json")
    assert again == manifest and manifest_to_json_text(again) == text
