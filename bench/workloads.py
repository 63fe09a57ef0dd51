"""The benchmark's workloads: what each unit runs, on which generated study,
and how its outputs are checked.

A *unit* is one ``metatreat`` command on the cv workloads and one
grid-search candidate on ``grid-search``; the benchmark always times whole
commands. Every input is derived from the workload seed, so the same seed
gives the same studies, commands and report bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

REPORT_HEADER = "group,task,model,metric,value,train_value,n_test,note"
LEADERBOARD_HEADER = "rank,candidate,status,score"
GRID_BUDGET = 12

# The published search space (metatreat.eval_harness.SearchSpace) with the
# two loop-length grids capped, so that candidate cost stays within ~10x.
SEARCH_SPACE = {
    "n_layers": [2, 4, 6, 8],
    "hidden_dim": [8, 16, 32, 64, 128],
    "embedding_dim": [8, 16, 32, 64, 128],
    "activation": ["relu", "tanh"],
    "dropout_rate": [0.05, 0.1, 0.2],
    "reg_kind": ["l1", "l2", "both"],
    "reg_strength": [1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
    "optimizer": ["adam", "sgd"],
    "learning_rate": [0.1, 0.01, 0.001],
    "inner_iterations": [1, 2, 5],
    "meta_iterations": [20, 40],
    "epsilon0": [0.25, 0.5, 0.75],
    "k": [5, 10, 15],
    "tasks_per_iteration": [1, 2],
    "selection_method": ["all_post", "pearson", "mutual_info"],
    "keep_fraction_range": [0.70, 0.99],
    "scaling": ["none", "normalize", "standardize"],
    "missing_threshold": [0.3, 0.5, 0.7],
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "cv" or "grid-search"
    n_per_group: int
    jobs: int
    # Every run completes at least this many commands; quality and failure
    # counts come from this prefix only, so they repeat exactly per seed.
    min_commands: int
    # grid-search draws its candidates from these program seeds, cycled in
    # whole passes, so that every run times the same candidate mix.
    program_seeds: tuple[int, ...] = ()
    why: str = ""

    @property
    def pass_len(self) -> int:
        return len(self.program_seeds) or 1

    def units_per_command(self) -> int:
        return GRID_BUDGET if self.command == "grid-search" else 1


# A 3x2000-row cv workload, where the kNN baseline dominates time and memory,
# is left out: its commands take 12-15 s, so a run fits only two of them, and
# the fastest of two spread ~20% across seeds on a shared 2-core host, too
# close to the largest bound a timing may have. The kNN and data_model spans
# are still recorded on cv-paper.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cv-paper", "cv", 60, 1, 9,
            why="3x60 study: the meta-loop does ~99% of the work, baselines and I/O almost none",
        ),
        Workload(
            "grid-search", "grid-search", 60, 2, 2, program_seeds=(0, 1),
            why="budget-12 search, 2 jobs: the only process-pool path, with repeated preprocessing and real candidate failures",
        ),
    )
}

NOISE_SIGMA = 1.0


def derived_seed(*path: object) -> int:
    """A 31-bit seed for one labelled stream (study, cv) of one unit."""
    return zlib.crc32("/".join(str(p) for p in path).encode("utf-8")) & 0x7FFFFFFF


def study_config(workload: Workload, seed: int, index: int) -> dict:
    """The paper-scale generator settings at the workload's row count."""
    return {
        "n_groups": 3,
        "n_per_group": workload.n_per_group,
        "d_pre": 4,
        "d_aux": 8,
        "delta": [-2.0, 0.0, 2.0],
        "noise_sigma": NOISE_SIGMA,
        "seed": derived_seed(workload.name, seed, index, "study"),
    }


def write_study(doc: dict, out: Path) -> dict[str, Path]:
    from metatreat.synth_gen import GeneratorConfig, generate, write_dataset

    config = GeneratorConfig.from_dict(doc)
    table, manifest, truth = generate(config)
    return write_dataset(out, table, manifest, truth, config)


def write_space(path: Path) -> Path:
    path.write_text(json.dumps(SEARCH_SPACE, indent=2) + "\n", encoding="utf-8")
    return path


def command_argv(
    workload: Workload, seed: int, index: int, study: dict[str, Path], space: Path | None,
    out: Path, jobs: int,
) -> list[str]:
    argv = [
        workload.command, "--data", str(study["data"]), "--manifest", str(study["manifest"]),
        "--jobs", str(jobs), "--out", str(out),
    ]
    if workload.command == "cv":
        return argv + ["--seed", str(derived_seed(workload.name, seed, index, "cv"))]
    program_seed = workload.program_seeds[index % workload.pass_len]
    return argv + ["--seed", str(program_seed), "--budget", str(GRID_BUDGET), "--space", str(space)]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class CheckError(Exception):
    """An output file is missing, malformed or inconsistent."""


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def primary_output(workload: Workload, out: Path) -> Path:
    return out / ("report.csv" if workload.command == "cv" else "leaderboard.csv")


def output_bytes(workload: Workload, out: Path) -> bytes:
    """Every deterministic output of one command, for the re-run comparison."""
    names = ["report.csv", "summary.json", "plot_data.csv"]
    if workload.command == "grid-search":
        names = ["leaderboard.csv", "best_config.json"]
    return b"".join((out / n).read_bytes() for n in names)


def _data_lines(text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# config_hash="):
        raise CheckError("missing provenance stamp line")
    return lines[1:]


def check_report(path: Path) -> list[dict]:
    """report.csv: the expected header and finite MSE cells; returns its rows."""
    lines = _data_lines(path.read_text(encoding="utf-8"))
    if not lines or lines[0] != REPORT_HEADER:
        raise CheckError(f"{path.name}: unexpected header {lines[:1]}")
    rows = []
    for ln in lines[1:]:
        cells = ln.split(",")
        if len(cells) < 8:
            raise CheckError(f"{path.name}: short row {ln!r}")
        row = {"group": cells[0], "model": cells[2], "metric": cells[3],
               "value": float(cells[4]), "train_value": float(cells[5])}
        if row["metric"] != "mse" or not (
            math.isfinite(row["value"]) and math.isfinite(row["train_value"])
        ):
            raise CheckError(f"{path.name}: non-finite or non-MSE cell in {ln!r}")
        rows.append(row)
    folds = {r["group"] for r in rows}
    for model in ("meta", "ridge"):
        if {r["group"] for r in rows if r["model"] == model} != folds or not folds:
            raise CheckError(f"{path.name}: missing {model!r} rows")
    return rows


def check_grid(out: Path, budget: int) -> dict:
    """leaderboard.csv has ``budget`` rows and best_config.json loads through
    PipelineConfig.from_dict; returns the best_config document."""
    from metatreat.eval_harness import PipelineConfig

    lines = _data_lines((out / "leaderboard.csv").read_text(encoding="utf-8"))
    if not lines or lines[0] != LEADERBOARD_HEADER:
        raise CheckError(f"leaderboard.csv: unexpected header {lines[:1]}")
    if len(lines) - 1 != budget:
        raise CheckError(f"leaderboard.csv: {len(lines) - 1} rows, expected {budget}")
    doc = json.loads((out / "best_config.json").read_text(encoding="utf-8"))
    PipelineConfig.from_dict(doc["best"])
    entries = doc["leaderboard"]
    if len(entries) != budget or {e["status"] for e in entries} - {"ok", "failed"}:
        raise CheckError("best_config.json: leaderboard does not match the budget")
    if not all(math.isfinite(e["score"]) for e in entries if e["status"] == "ok"):
        raise CheckError("best_config.json: an ok candidate has no finite score")
    return doc
