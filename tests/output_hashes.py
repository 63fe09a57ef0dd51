"""SHA-256 of every output file of a fixed set of ``metatreat`` runs.

    PYTHONPATH=src python tests/output_hashes.py OUT_DIR

runs ``cv`` and ``grid-search`` in-process on the benchmark's generator
study (``bench/workloads.py``'s settings at seed 7), with BLAS and OpenMP
pinned to one thread, then ``generate`` on that study's settings with
missing cells and ``report`` on the ``cv-regression`` run's report. It
writes each run's outputs under ``OUT_DIR/<run>/`` and
prints one ``<sha256>  <run>/<file>`` line per output file, plus an
``exit <code>  <run>  <last stderr line>`` line for any run that exits
non-zero; after all of those, one ``<sha256>  <run>/stderr`` line for
each run that exits 0 having printed to stderr, such as the warnings of
``cv-k-over-rows``. Run it in two checkouts and diff what they
print: a change that keeps behaviour prints the same lines. The runs cover
regression, classification and two jobs; a training step without
dropout, under Adam and both penalties; a study with missing cells under
two scalings; a study whose target is blank in some rows of every group,
so that scoring picks a proper subset of each side's rows; a binary
stratifier tied to ``x0``, so that features residualize, under two
scalings, and written as a two-level categorical column, which loading
codes 0/1; a study whose manifest declares a
two-level categorical feature and a ``score_pre``/``score_post`` pair under
``"differential_pairs": "auto"``, so that loading one-hot encodes and
preprocessing appends a differential feature; budget-12 searches on the
bench space; and four ``cv`` runs that stop in a numeric failure, one at
the head, one in an extractor layer, one at the loss, and one in the last
fold alone, whose ``x0`` cells are huge, so that the meta-loop drops that
fold and steps on with the earlier ones. After ``generate`` and ``report``
come a ``cv`` whose first meta-iteration steps all the way to the adapted
weights (``epsilon0`` 1), a ``report`` on a hand-written report whose
scores overflow the mean's sum, a ``cv`` with two target columns
under Pearson selection, a ``cv`` on a study with a three-level
categorical feature and a categorical stratifier, each with blank cells, a
``cv`` whose ``k`` exceeds every group's rows, so that each draw samples
with replacement, a ``cv`` on the plain study's settings at 10 groups,
whose one lockstep stack holds 10 folds, a two-job classification
``grid-search`` on the plain study. Last come ``cv-unscaled-x0`` and
``cv-unscaled-x0-classification``, regression and classification ``cv`` on
the plain study with every ``x0`` cell times ``UNSCALED`` under
``"scaling": "none"``, whose ridge and logistic fits meet columns of
unequal scale, then ``cv-setup-last-fold`` and ``cv-setup-last-fold-jobs2``
at one and two jobs on the plain study with every ``x0`` cell blank outside
``g2`` under ``"missing_threshold": 1.0``, so that the last fold stops in
its setup, unable to impute ``x0``; at two jobs that fold is a group of
its own, and the run merges the outcomes of (g0, g1) and (g2).
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import numpy as np  # noqa: E402
from workloads import GRID_BUDGET, WORKLOADS, study_config, write_space  # noqa: E402

STUDY_SEED = 7
MISSING_RATE = 0.35
TARGET_GAP = 5  # every fifth row's target is blank in the missing-target study
TIER_GAP, STRATUM_GAP = 7, 11  # blank rows of the categorical-blanks study's two columns
HUGE = 1e100  # the last-fold study's factor on group g2's x0
UNSCALED = 1e3  # the unscaled-x0 study's factor on every group's x0
REFERENCE = "g0"

# run name -> (study, command, extra argv, run config or None)
RUNS = {
    "cv-regression": ("plain", "cv", [], None),
    "cv-classification": ("plain", "cv", ["--task-kind", "classification"], None),
    "cv-jobs2": ("plain", "cv", ["--jobs", "2"], None),
    "cv-missing-standardize": ("missing", "cv", [], None),
    "cv-missing-normalize": (
        "missing", "cv", [], {"preprocess": {"scaling": "normalize", "missing_threshold": 0.4}},
    ),
    "cv-missing-target": ("missing-target", "cv", [], None),
    # the only hashed training step without a dropout mask
    "cv-no-dropout": (
        "plain", "cv", [],
        {"base": {"dropout_rate": 0.0, "optimizer": "adam", "reg_kind": "both"}},
    ),
    "cv-stratifier-standardize": ("stratifier", "cv", [], None),
    "cv-stratifier-reference": (
        "stratifier", "cv", ["--holdout-exclude", REFERENCE],
        {"preprocess": {
            "scaling": "standardize_vs_reference_group", "reference_group": REFERENCE,
        }},
    ),
    **{
        f"grid-seed{seed}-jobs{jobs}": (
            "plain", "grid-search", ["--seed", str(seed), "--jobs", str(jobs)], None,
        )
        for seed in (0, 1) for jobs in (1, 2)
    },
    "grid-missing-seed2": ("missing", "grid-search", ["--seed", "2"], None),
    "cv-ingest": ("ingest", "cv", [], None),
    "grid-ingest-seed0": ("ingest", "grid-search", ["--seed", "0"], None),
    # each stops in a numeric failure: at the head, in an extractor layer,
    # and at the loss
    "cv-numeric-head": (
        "plain", "cv", [], {"base": {"activation": "relu", "learning_rate": 1e6, "n_layers": 4}},
    ),
    "cv-numeric-extractor": (
        "plain", "cv", [],
        {"base": {"activation": "relu", "learning_rate": 1e8, "n_layers": 6, "hidden_dim": 64}},
    ),
    "cv-numeric-loss": ("plain", "cv", [], {"base": {"reg_strength": 1e308}}),
    "cv-stratifier-categorical": ("stratifier-categorical", "cv", [], None),
    "cv-numeric-last-fold": (
        "last-fold", "cv", [], {"base": {"activation": "relu", "n_layers": 4}},
    ),
}
# runs added later, hashed after ``generate`` and ``report`` so that the
# earlier lines keep their order: one whose first meta-iteration's step
# size is exactly 1, which the interpolation writes as a copy, one with
# two target columns, whose training tasks are selected by their best
# relevance over both, one whose categorical feature and stratifier have
# blank cells, one whose k of 80 exceeds the 60 rows of every group, one
# with 10 groups, so 10 folds step in one stack, a classification search,
# which ranks its candidates by AUC, and two unscaled runs on an x0 a
# thousand times the other columns' scale, whose ridge and logistic
# baselines fit an ill-conditioned system, and two whose last fold fails in
# its setup, one with that fold in a group of its own
LATER_RUNS = {
    "cv-epsilon-one": ("plain", "cv", [], {"meta": {"epsilon0": 1.0}}),
    "cv-two-targets": (
        "two-targets", "cv", [], {"selection": {"method": "pearson", "keep_fraction": 0.5}},
    ),
    "cv-categorical-blanks": ("categorical-blanks", "cv", [], None),
    "cv-k-over-rows": ("plain", "cv", [], {"meta": {"k": 80}}),
    "cv-ten-groups": ("ten-groups", "cv", [], None),
    "grid-classification-seed1-jobs2": (
        "plain", "grid-search", ["--task-kind", "classification", "--seed", "1", "--jobs", "2"],
        None,
    ),
    **{
        f"cv-unscaled-x0{suffix}": (
            "unscaled-x0", "cv", extra, {"preprocess": {"scaling": "none"}},
        )
        for suffix, extra in (("", []), ("-classification", ["--task-kind", "classification"]))
    },
    **{
        f"cv-setup-last-fold{suffix}": (
            "x0-in-g2", "cv", extra, {"preprocess": {"missing_threshold": 1.0}},
        )
        for suffix, extra in (("", []), ("-jobs2", ["--jobs", "2"]))
    },
}
# the order in which the runs are hashed; a run added later goes last
ORDER = (
    *RUNS, "generate", "report", "cv-epsilon-one", "report-overflow", "cv-two-targets",
    "cv-categorical-blanks", "cv-k-over-rows", "cv-ten-groups",
    "grid-classification-seed1-jobs2", "cv-unscaled-x0", "cv-unscaled-x0-classification",
    "cv-setup-last-fold", "cv-setup-last-fold-jobs2",
)
# a report in which one model scores 1.5e308, test and train alike, in each
# of three groups: the mean's sum overflows, so the summary statistics run
# on scaled values
HUGE_REPORT = """group,task,model,metric,value,train_value,n_test,note
g0,y,meta,mse,1.5e+308,1.5e+308,20,
g1,y,meta,mse,1.5e+308,1.5e+308,20,
g2,y,meta,mse,1.5e+308,1.5e+308,20,
"""


STUDY = {**study_config(WORKLOADS["cv-paper"], 0, 0), "seed": STUDY_SEED}
MISSING_STUDY = {**STUDY, "missing_rate": MISSING_RATE}
# the plain study's settings at 10 groups, delta evenly spaced over [-2, 2]
TEN_GROUP_STUDY = {**STUDY, "n_groups": 10, "delta": np.linspace(-2.0, 2.0, 10).tolist()}


def write_studies(root: Path) -> dict[str, dict[str, Path]]:
    """The plain study, the same settings with missing cells, the plain
    study with every ``TARGET_GAP``-th row's ``y`` blank, so that every
    group, the held-out one included, has rows without a target, the plain
    study with a 0/1 stratifier column ``s`` set where ``x0 > 0``, the
    ingestion study (``write_ingest_study``), the plain study with a
    categorical stratifier ``s``, ``above`` where ``x0 > 0``, else
    ``below``, the plain study with group ``g2``'s ``x0`` times
    ``HUGE``, the plain study's data under a manifest that declares
    ``aux7`` a second target, and the plain study plus a categorical
    feature ``tier`` (``low``, ``mid`` or ``high`` by ``x1``, blank in every
    ``TIER_GAP``-th row) and the categorical stratifier ``s``, blank in
    every ``STRATUM_GAP``-th row; then ``TEN_GROUP_STUDY``, the plain study
    with every ``x0`` cell times ``UNSCALED``, and last the plain study with
    every ``x0`` cell outside ``g2`` blank."""
    from metatreat.data_model import ColumnMeta, Manifest
    from metatreat.synth_gen import GeneratorConfig, generate, write_dataset

    studies = {}
    for name, doc in (("plain", STUDY), ("missing", MISSING_STUDY)):
        config = GeneratorConfig.from_dict(doc)
        table, manifest, truth = generate(config)
        studies[name] = write_dataset(root / f"study-{name}", table, manifest, truth, config)
    config = GeneratorConfig.from_dict(STUDY)
    table, manifest, truth = generate(config)
    missing = table.missing_mask.copy()
    missing[::TARGET_GAP, table.column_index("y")] = True
    studies["missing-target"] = write_dataset(
        root / "study-missing-target", table.replace_matrix(table.columns, table.values, missing),
        manifest, truth, config,
    )
    s = (table.column_values("x0")[0] > 0.0).astype(np.float64)
    meta = ColumnMeta("s", "pre", "numeric", "stratifier")
    columns = table.columns + (meta,)
    table = table.replace_matrix(
        columns, np.column_stack([table.values, s]),
        np.column_stack([table.missing_mask, np.zeros(table.n_rows, dtype=bool)]),
    )
    # ``generate`` declares the group column last
    manifest = Manifest(columns + manifest.columns[-1:])
    studies["stratifier"] = write_dataset(root / "study-stratifier", table, manifest, truth, config)
    table, manifest, truth = generate(config)
    studies["ingest"] = write_ingest_study(root / "study-ingest", table, manifest)
    strata = ["above" if v > 0.0 else "below" for v in table.column_values("x0")[0]]
    stratifier = {"name": "s", "timing": "pre", "kind": "categorical", "role": "stratifier"}
    studies["stratifier-categorical"] = write_text_column(
        root / "study-stratifier-categorical", table, manifest, (stratifier, strata),
    )
    values = table.values.copy()
    values[table.group_ids == table.resolve_group("g2"), table.column_index("x0")] *= HUGE
    studies["last-fold"] = write_dataset(
        root / "study-last-fold", table.replace_matrix(table.columns, values, table.missing_mask),
        manifest, truth, config,
    )
    doc = json.loads(studies["plain"]["manifest"].read_text(encoding="utf-8"))
    for column in doc["columns"]:
        if column["name"] == "aux7":
            column["role"] = "target"
    path = root / "study-two-targets" / "manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    studies["two-targets"] = {"data": studies["plain"]["data"], "manifest": path}
    x0, x1 = (table.column_values(name)[0] for name in ("x0", "x1"))
    tiers = ["low" if v < -0.5 else "high" if v > 0.5 else "mid" for v in x1]
    tiers[::TIER_GAP] = [""] * len(tiers[::TIER_GAP])
    strata = ["above" if v > 0.0 else "below" for v in x0]
    strata[::STRATUM_GAP] = [""] * len(strata[::STRATUM_GAP])
    studies["categorical-blanks"] = write_text_column(
        root / "study-categorical-blanks", table, manifest,
        ({"name": "tier", "timing": "pre", "kind": "categorical"}, tiers), (stratifier, strata),
    )
    config = GeneratorConfig.from_dict(TEN_GROUP_STUDY)
    studies["ten-groups"] = write_dataset(root / "study-ten-groups", *generate(config), config)
    config = GeneratorConfig.from_dict(STUDY)
    table, manifest, truth = generate(config)
    values = table.values.copy()
    values[:, table.column_index("x0")] *= UNSCALED
    studies["unscaled-x0"] = write_dataset(
        root / "study-unscaled-x0", table.replace_matrix(table.columns, values, table.missing_mask),
        manifest, truth, config,
    )
    missing = table.missing_mask.copy()
    missing[table.group_ids != table.resolve_group("g2"), table.column_index("x0")] = True
    studies["x0-in-g2"] = write_dataset(
        root / "study-x0-in-g2", table.replace_matrix(table.columns, table.values, missing),
        manifest, truth, config,
    )
    return studies


def write_ingest_study(out: Path, table, manifest) -> dict[str, Path]:
    """The plain study plus numeric features ``score_pre`` (``x2``) and
    ``score_post`` (``x2 + aux0``), paired by ``"auto"``, and a categorical
    feature ``color``: ``red`` where ``x1 > 0``, else ``blue``."""
    from metatreat.data_model import ColumnMeta, Manifest

    x1, x2, aux0 = (table.column_values(name)[0] for name in ("x1", "x2", "aux0"))
    columns = table.columns + (ColumnMeta("score_pre", "pre"), ColumnMeta("score_post", "post"))
    table = table.replace_matrix(
        columns, np.column_stack([table.values, x2, x2 + aux0]),
        np.column_stack([table.missing_mask, np.zeros((table.n_rows, 2), dtype=bool)]),
    )
    return write_text_column(
        out, table, Manifest(columns + manifest.columns[-1:]),
        ({"name": "color", "timing": "pre", "kind": "categorical"},
         ["red" if v > 0.0 else "blue" for v in x1]),
        differential_pairs="auto",
    )


def write_text_column(out: Path, table, manifest, *columns, **keys) -> dict[str, Path]:
    """``table`` with more columns of text, each a ``(column, cells)`` pair
    whose ``column`` the manifest declares, with further manifest ``keys``."""
    from metatreat.synth_gen import manifest_to_json_text, table_to_csv_text

    lines = table_to_csv_text(table, manifest.group_column).splitlines()
    doc = json.loads(manifest_to_json_text(manifest))
    header = lines[0]
    for column, cells in columns:
        doc["columns"].append(column)
        header += f",{column['name']}"
        lines[1:] = [f"{line},{cell}" for line, cell in zip(lines[1:], cells)]
    doc.update(keys)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"data": out / "data.csv", "manifest": out / "manifest.json"}
    paths["data"].write_text("\n".join([header, *lines[1:]]) + "\n", encoding="utf-8")
    paths["manifest"].write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return paths


def run_all(root: Path) -> list[str]:
    from metatreat.cli import main

    studies = write_studies(root)
    space = write_space(root / "space.json")
    argvs = {}
    for run, (study, command, extra, config) in {**RUNS, **LATER_RUNS}.items():
        argv = [
            command, "--data", str(studies[study]["data"]),
            "--manifest", str(studies[study]["manifest"]), *extra,
        ]
        if command == "grid-search":
            argv += ["--budget", str(GRID_BUDGET), "--space", str(space)]
        if config is not None:
            path = root / f"{run}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        argvs[run] = argv
    generator = root / "generate.json"
    generator.write_text(json.dumps(MISSING_STUDY), encoding="utf-8")
    argvs["generate"] = ["generate", "--config", str(generator)]
    argvs["report"] = ["report", "--report", str(root / "cv-regression" / "report.csv")]
    huge = root / "huge-report.csv"
    huge.write_text(HUGE_REPORT, encoding="utf-8")
    argvs["report-overflow"] = ["report", "--report", str(huge)]
    lines, warned = [], []
    for run in ORDER:
        argv = argvs[run]
        out = root / run
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out)])
        if code != 0:
            last = (stderr.getvalue().splitlines() or [""])[-1]
            lines.append(f"exit {code}  {run}  {last}")
        elif stderr.getvalue():
            digest = hashlib.sha256(stderr.getvalue().encode()).hexdigest()
            warned.append(f"{digest}  {run}/stderr")
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {run}/{path.name}")
    return lines + warned


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT_DIR")
    root = Path(sys.argv[1])
    root.mkdir(parents=True, exist_ok=True)
    print("\n".join(run_all(root)))
