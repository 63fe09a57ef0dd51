"""metatreat runs on numpy alone: no module under ``src/`` imports scipy,
and no command loads it, the sigmoid and the Welch t-test included."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Generates a study, gives it a 0/1 stratifier column ``s`` (1 where x0 > 0),
# then runs ``cv`` and ``grid-search`` in both task kinds and ``report``, all
# in this one process, counting Welch t-tests. Prints the scipy modules
# loaded and that count.
RUN = """
import csv, json, sys
from pathlib import Path
from metatreat import data_model
from metatreat.cli import main

t_tests = []
welch = data_model.two_sample_t_test
data_model.two_sample_t_test = lambda a, b: t_tests.append(1) or welch(a, b)

work = Path(sys.argv[1])
data = work / "data"
assert main(["generate", "--config", str(work / "gen.json"), "--out", str(data)]) == 0
with open(data / "data.csv", newline="") as f:
    rows = list(csv.reader(f))
x0 = rows[0].index("x0")
rows[0].append("s")
for row in rows[1:]:
    row.append("1" if float(row[x0]) > 0.0 else "0")
with open(data / "data.csv", "w", newline="") as f:
    csv.writer(f).writerows(rows)
manifest = json.loads((data / "manifest.json").read_text())
manifest["columns"].insert(0, {"name": "s", "timing": "pre", "kind": "numeric",
                               "role": "stratifier"})
(data / "manifest.json").write_text(json.dumps(manifest))

run = ["--config", str(work / "run.json"), "--data", str(data / "data.csv"),
       "--manifest", str(data / "manifest.json")]
for kind in ("regression", "classification"):
    assert main(["cv", *run, "--task-kind", kind, "--out", str(work / f"cv-{kind}")]) == 0
    assert main(["grid-search", *run, "--task-kind", kind, "--budget", "2", "--jobs", "1",
                 "--space", str(work / "space.json"), "--out", str(work / f"gs-{kind}")]) == 0
assert main(["report", "--report", str(work / "cv-classification" / "report.csv"),
             "--out", str(work / "rep")]) == 0
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": scipy, "t_tests": len(t_tests)}))
"""

GEN = {"n_groups": 3, "n_per_group": 10, "d_pre": 3, "d_aux": 3, "delta": [-1.0, 0.0, 1.0],
       "seed": 4}
BASE = {"n_layers": 1, "hidden_dim": 6, "embedding_dim": 4, "activation": "tanh",
        "dropout_rate": 0.05, "optimizer": "sgd", "learning_rate": 0.05, "inner_iterations": 2}
META = {"meta_iterations": 3, "k": 4, "tasks_per_iteration": 1}
SPACE = {**{name: [value] for name, value in {**BASE, **META}.items()},
         "learning_rate": [0.05, 0.01]}


def test_commands_never_import_scipy(tmp_path):
    (tmp_path / "gen.json").write_text(json.dumps(GEN))
    (tmp_path / "run.json").write_text(json.dumps({"base": BASE, "meta": META}))
    (tmp_path / "space.json").write_text(json.dumps(SPACE))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr[-2000:]
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["t_tests"] > 0
    assert loaded["scipy"] == []
    report = (tmp_path / "cv-classification" / "report.csv").read_text(encoding="utf-8")
    assert ",meta,auc," in report and ",logistic," in report


def test_no_module_under_src_imports_scipy():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n == "scipy" or n.startswith("scipy.")], path
