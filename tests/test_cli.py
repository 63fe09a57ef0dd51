import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metatreat import eval_harness
from metatreat.cli import main, report_from_csv_text
from metatreat.eval_harness import MetricReport, MetricRow

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
        ("manifest", {"columns": 5}, "'columns' must be a list"),
        ("manifest", {"columns": [5]}, "must be an object"),
        ("manifest", {"missing_values": 5}, "'missing_values' must be a list of strings"),
        ("space", {"n_layers": 5}, "SearchSpace.n_layers: expected a list, got int"),
        ("space", {"n_layers": []}, "grid 'n_layers' is empty"),
        ("space", {"n_layers": ["a"]}, "SearchSpace.n_layers[0]: expected int, got str"),
        ("space", {"keep_fraction_range": [0.9]}, "expected 2 entries, got 1"),
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
    st.lists(
        st.tuples(NAMES, NAMES, NAMES, NAMES, CELL_FLOATS, CELL_FLOATS,
                  st.integers(0, 10**9), NAMES),
        max_size=4,
    )
)
def test_report_csv_round_trips_any_names(cells):
    report = MetricReport(tuple(MetricRow(*row) for row in cells))
    back = report_from_csv_text("# stamp\n" + report.to_csv_text())
    assert len(back.rows) == len(report.rows)
    for got, want in zip(back.rows, report.rows):
        for a, b in zip(got.__dict__.values(), want.__dict__.values()):
            assert a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


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
