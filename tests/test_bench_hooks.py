"""The benchmark attaches to the program by module attribute; these tests
fail when a rename or a refactor moves a function it wraps, or when the
benchmark script stops running."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# Targets of bench/tracer.py that name functions the program no longer has;
# their per-layer rows read 0 until the tracer drops them.
STALE_TARGETS = [
    "metatreat.meta_learner.task_dataset",
    "metatreat.base_learner.flatten_arrays",
    "metatreat.base_learner.unflatten",
    "metatreat.nn_core.FlatParams.__post_init__",
    "metatreat.eval_harness.predict_rows",
]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_live_target():
    tracer_module = _load_tracer()
    originals = {}
    for module_name, attr, _ in tracer_module.TARGETS:
        owner = importlib.import_module(module_name)
        if "." not in attr and hasattr(owner, attr):
            originals[(module_name, attr)] = getattr(owner, attr)
    tracer = tracer_module.Tracer()
    try:
        assert tracer.install() == STALE_TARGETS
    finally:
        tracer.restore()
    for (module_name, attr), fn in originals.items():
        assert getattr(importlib.import_module(module_name), attr) is fn


def test_bench_setup_only_emits_json(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--setup-only", "--workload", "cv-paper",
         "--work", str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert math.isfinite(doc["setup_s"]) and doc["setup_s"] > 0.0
