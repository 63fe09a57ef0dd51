"""scipy is imported only where a run calls it: a regression run's commands
never load it, and a classification run, which does, still completes and
never loads ``scipy.stats``."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each command in this one process, then prints the scipy modules loaded.
REGRESSION_RUN = """
import json, sys
from pathlib import Path
from metatreat.cli import main

work = Path(sys.argv[1])
run = ["--config", str(work / "run.json"), "--data", str(work / "data" / "data.csv"),
       "--manifest", str(work / "data" / "manifest.json")]
assert main(["generate", "--config", str(work / "gen.json"), "--out", str(work / "data")]) == 0
assert main(["cv", *run, "--out", str(work / "cv")]) == 0
assert main(["grid-search", *run, "--budget", "2", "--jobs", "1",
             "--space", str(work / "space.json"), "--out", str(work / "gs")]) == 0
assert main(["report", "--report", str(work / "cv" / "report.csv"),
             "--out", str(work / "rep")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

# Runs one command with the arguments after ``-c``, then prints the scipy
# modules loaded.
CLASSIFICATION_RUN = """
import json, sys
from metatreat.cli import main

assert main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

GEN = {"n_groups": 3, "n_per_group": 10, "d_pre": 3, "d_aux": 3, "delta": [-1.0, 0.0, 1.0],
       "seed": 4}
BASE = {"n_layers": 1, "hidden_dim": 6, "embedding_dim": 4, "activation": "tanh",
        "dropout_rate": 0.05, "optimizer": "sgd", "learning_rate": 0.05, "inner_iterations": 2}
META = {"meta_iterations": 3, "k": 4, "tasks_per_iteration": 1}
SPACE = {**{name: [value] for name, value in {**BASE, **META}.items()},
         "learning_rate": [0.05, 0.01]}


def _python(*args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300, check=False)


def _write_inputs(work: Path) -> None:
    (work / "gen.json").write_text(json.dumps(GEN))
    (work / "run.json").write_text(json.dumps({"base": BASE, "meta": META}))
    (work / "space.json").write_text(json.dumps(SPACE))


def test_regression_commands_never_import_scipy(tmp_path):
    _write_inputs(tmp_path)
    proc = _python("-c", REGRESSION_RUN, str(tmp_path))
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_classification_cv_completes(tmp_path):
    # the sigmoid loads scipy.special; AUC's ranks need nothing of scipy.stats
    _write_inputs(tmp_path)
    data = tmp_path / "data"
    assert _python("-m", "metatreat.cli", "generate", "--config", str(tmp_path / "gen.json"),
                   "--out", str(data)).returncode == 0
    proc = _python("-c", CLASSIFICATION_RUN, "cv", "--data", str(data / "data.csv"),
                   "--manifest", str(data / "manifest.json"), "--config",
                   str(tmp_path / "run.json"), "--task-kind", "classification",
                   "--out", str(tmp_path / "cv"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = (tmp_path / "cv" / "report.csv").read_text(encoding="utf-8")
    assert ",meta,auc," in report and ",logistic," in report
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m == "scipy.stats" or m.startswith("scipy.stats.")]
