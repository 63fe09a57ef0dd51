"""Behaviour pins: committed outputs that a refactor must reproduce.

``fixtures/golden_report.json`` holds every row of two 3x60 ``run_cv``
reports (the default regression pipeline, and a classification pipeline
with adam, l1+l2 regularization and dropout). ``fixtures/generate_*.json``
hold the manifest and ground-truth bytes ``generate`` writes for
``GENERATE_CONFIG``, and ``STAMP_HASHES`` the ``config_hash`` of ``cv`` and
``grid-search`` stamps, so a change to how configs are read or written
cannot move either unnoticed. ``fixtures/checkpoint_v1.json``
describes a tiny net by its parameter layout, flat values and activations
(its other keys are not read), and ``fixtures/checkpoint_v1_predictions.json``
holds its eval-mode predictions.

The fixtures are regenerated with ``PYTHONPATH=src python tests/test_golden.py``,
which is only right when a change is meant to move these numbers.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from metatreat.base_learner import (
    BaseLearnerConfig,
    BaseLearnerWeights,
    forward,
    init_weights,
)
from metatreat.cli import main, report_from_csv_text
from metatreat.errors import ShapeError
from metatreat.eval_harness import CvConfig, PipelineConfig, run_cv
from metatreat.synth_gen import GeneratorConfig, generate

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN_REPORT = FIXTURES / "golden_report.json"
CHECKPOINT = FIXTURES / "checkpoint_v1.json"
CHECKPOINT_PREDICTIONS = FIXTURES / "checkpoint_v1_predictions.json"
CHECKPOINT_HASH = "0123456789abcdef"
TINY = BaseLearnerConfig(n_layers=2, hidden_dim=3, embedding_dim=2, dropout_rate=0.1)

# JSON integers in float fields, which ``generate`` writes as floats
GENERATE_CONFIG = {
    "n_groups": 3, "n_per_group": 4, "d_pre": 2, "d_aux": 2, "delta": [-1, 0, 2],
    "aux_delta": [[1, 0], [0, 0.5], [-2, 1]], "noise_sigma": 1, "coupling": "mild_nonlinear",
    "missing_rate": 0.2, "seed": 5,
}
GENERATE_FILES = ("manifest.json", "ground_truth.json")

# Run configs whose stamps are pinned: the defaults, and one with JSON
# integers in float fields (which the hash keeps as integers), excluded
# groups and non-default sections.
STAMP_RUNS = {
    "default": {},
    "custom": {
        "preprocess": {"missing_threshold": 1, "scaling": "normalize"},
        "selection": {"method": "pearson", "keep_fraction": 1},
        "base": {"n_layers": 1, "hidden_dim": 4, "learning_rate": 0, "reg_strength": 0},
        "meta": {"meta_iterations": 2, "epsilon0": 1, "k": 3},
        "baselines": {"ridge_alpha": 2},
        "cv": {"excluded_holdout_groups": ["g2"], "seed": 3},
    },
}
STAMP_SPACE = {
    "n_layers": [1], "hidden_dim": [4], "embedding_dim": [2], "learning_rate": [0.05],
    "inner_iterations": [1], "meta_iterations": [2], "k": [3], "tasks_per_iteration": [1],
}
STAMP_HASHES = {
    ("cv", "default"): "1085b4cffb3a1925",
    ("cv", "custom"): "f8f9166e8004422a",
    ("grid-search", "default"): "3c4f311f842c36df",
    ("grid-search", "custom"): "2c99e6783d8803a2",
}

GOLDEN_CASES = {
    "regression_default": PipelineConfig(),
    "classification_adam_both_dropout": PipelineConfig(
        task_kind="classification",
        base=replace(
            BaseLearnerConfig(), optimizer="adam", learning_rate=0.01,
            reg_kind="both", reg_strength=1e-3, dropout_rate=0.2,
        ),
    ),
}


def _golden_rows(name: str) -> list[list]:
    table, manifest, _ = generate(GeneratorConfig(n_groups=3, n_per_group=60, seed=1))
    report = run_cv(table, manifest, GOLDEN_CASES[name], CvConfig(seed=1))
    parsed = report_from_csv_text(report.to_csv_text())
    return [[r.group, r.task, r.model, r.value, r.train_value] for r in parsed.rows]


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_cv_report_matches_golden_rows(name):
    expected = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))[name]
    got = _golden_rows(name)
    assert [row[:3] for row in got] == [row[:3] for row in expected]
    for column in (3, 4):
        assert np.allclose(
            [row[column] for row in got], [row[column] for row in expected],
            rtol=1e-9, atol=0.0, equal_nan=True,
        )


def _checkpoint_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(4)
    return rng.normal(size=(6, 2)), np.array([0, 1, 2, 0, 1, 2])


def _checkpoint() -> dict:
    return json.loads(CHECKPOINT.read_text(encoding="utf-8"))


def _weights(doc: dict) -> BaseLearnerWeights:
    """The network a checkpoint document describes."""
    layout = tuple((name, tuple(shape)) for name, shape in doc["layout"])
    acts = doc["activations"]
    return BaseLearnerWeights(
        np.asarray(doc["values"]), layout, (*acts["extractor"], acts["head"])
    )


def _predictions(weights: BaseLearnerWeights) -> dict[str, list[float]]:
    x, g = _checkpoint_inputs()
    return {
        kind: forward(weights, x, g, TINY, kind=kind).tolist()
        for kind in ("regression", "classification")
    }


def test_checkpoint_v1_predicts_stored_values_exactly():
    stored = json.loads(CHECKPOINT_PREDICTIONS.read_text(encoding="utf-8"))
    assert _predictions(_weights(_checkpoint())) == stored


def test_checkpoint_values_length_must_match_layout():
    doc = _checkpoint()
    doc["values"].pop()
    with pytest.raises(ShapeError):
        _weights(doc)


def test_checkpoint_layout_missing_head_direction_rejected():
    doc = _checkpoint()
    doc["layout"] = [entry for entry in doc["layout"] if entry[0] != "head.v"]
    with pytest.raises(ShapeError):
        _weights(doc)


def _generate(out: Path) -> Path:
    config = out / "generator.json"
    config.write_text(json.dumps(GENERATE_CONFIG), encoding="utf-8")
    assert main(["generate", "--config", str(config), "--out", str(out / "study")]) == 0
    return out / "study"


def _stamp_hash(tmp_path: Path, command: str, run: str) -> str:
    """The config_hash a command's stamp line carries for ``STAMP_RUNS[run]``."""
    study = _generate(tmp_path)
    paths = {}
    for name, doc in (("run", STAMP_RUNS[run]), ("space", STAMP_SPACE)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    argv = [
        command, "--data", str(study / "data.csv"), "--manifest", str(study / "manifest.json"),
        "--config", str(paths["run"]), "--out", str(out),
    ]
    if command == "grid-search":
        argv += ["--budget", "1", "--space", str(paths["space"])]
    else:
        argv += ["--holdout-exclude", "g1"]
    assert main(argv) == 0
    stamped = out / ("report.csv" if command == "cv" else "leaderboard.csv")
    stamp = stamped.read_text(encoding="utf-8").partition("\n")[0]
    return stamp.split()[1].removeprefix("config_hash=")


def test_generate_writes_the_pinned_manifest_and_ground_truth_bytes(tmp_path):
    study = _generate(tmp_path)
    for name in GENERATE_FILES:
        assert (study / name).read_bytes() == (FIXTURES / f"generate_{name}").read_bytes()


@pytest.mark.parametrize("command, run", sorted(STAMP_HASHES))
def test_stamp_config_hash_is_pinned(tmp_path, command, run):
    assert _stamp_hash(tmp_path, command, run) == STAMP_HASHES[command, run]


def _write_fixtures() -> None:
    FIXTURES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        study = _generate(Path(tmp))
        for name in GENERATE_FILES:
            (FIXTURES / f"generate_{name}").write_bytes((study / name).read_bytes())
    golden = {name: _golden_rows(name) for name in sorted(GOLDEN_CASES)}
    GOLDEN_REPORT.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    rng = np.random.default_rng(3)
    theta = init_weights(TINY, 2, 3, rng)
    theta.embeddings[:] = rng.normal(size=theta.embeddings.shape)
    doc = {
        "format_version": 1,
        "config_hash": CHECKPOINT_HASH,
        "layout": [[name, list(shape)] for name, shape in theta.layout],
        "values": theta.values.tolist(),
        "activations": {"extractor": list(theta.activations[:-1]), "head": theta.activations[-1]},
        "meta_iteration": 3,
        "rng_state": rng.bit_generator.state,
    }
    CHECKPOINT.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    predictions = _predictions(_weights(_checkpoint()))
    CHECKPOINT_PREDICTIONS.write_text(json.dumps(predictions, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_fixtures()
