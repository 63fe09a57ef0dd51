"""Spans for the benchmark's traced run, recorded from outside the program.

``Tracer.install`` replaces each public function named in ``TARGETS`` at the
module attribute its caller looks it up through, and ``Tracer.restore`` puts
the originals back. Spans stay in memory as small lists and are written out
as JSONL once the run ends. A span's self time is its duration minus the time
its child spans cover.

Two targets do more than time: ``baseline_predict('knn')`` turns
``tracemalloc`` on for its own duration only and records the bytes its
distance tensor is computed to need, and ``fit_preprocess`` and
``select_training_tasks`` hash their inputs so that calls repeating an
earlier call of the same command can be counted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# (module, attribute the caller looks up, span name). A class attribute is
# written "Class.attr".
TARGETS = (
    ("metatreat.cli", "load_csv", "data_model.load_csv"),
    ("metatreat.eval_harness", "fit_preprocess", "data_model.fit_preprocess"),
    ("metatreat.eval_harness", "task_dataset", "data_model.task_dataset"),
    ("metatreat.meta_learner", "task_dataset", "data_model.task_dataset"),
    ("metatreat.eval_harness", "select_training_tasks", "task_selection.select_training_tasks"),
    ("metatreat.meta_learner", "inner_update", "base_learner.inner_update"),
    ("metatreat.base_learner", "loss_and_grads", "base_learner.loss_and_grads"),
    ("metatreat.meta_learner", "forward", "base_learner.forward"),
    ("metatreat.base_learner", "flatten_arrays", "nn_core.flat_convert"),
    ("metatreat.base_learner", "unflatten", "nn_core.flat_convert"),
    ("metatreat.nn_core", "FlatParams.__post_init__", "nn_core.FlatParams.check"),
    ("metatreat.base_learner", "optimizer_step", "nn_core.optimizer_step"),
    ("metatreat.meta_learner", "param_axpy", "nn_core.param_axpy"),
    ("metatreat.eval_harness", "meta_train", "meta_learner.meta_train"),
    ("metatreat.meta_learner", "meta_step", "meta_learner.meta_step"),
    ("metatreat.meta_learner", "sample_task_batch", "meta_learner.sample_task_batch"),
    ("metatreat.eval_harness", "fine_tune", "meta_learner.fine_tune"),
    ("metatreat.eval_harness", "predict_rows", "meta_learner.predict_rows"),
    ("metatreat.cli", "run_cv", "eval_harness.run_cv"),
    ("metatreat.eval_harness", "run_cv", "eval_harness.run_cv"),
    ("metatreat.eval_harness", "baseline_predict", "eval_harness.baseline_predict"),
    ("metatreat.cli", "grid_search", "eval_harness.grid_search"),
)
KEYED = {"data_model.fit_preprocess", "task_selection.select_training_tasks"}
BASELINES = ("mean", "median", "knn", "ridge")
MIB = 1024.0 * 1024.0

# Span record layout: a list, which is cheaper to build than an object.
NAME, UNIT, PARENT, START, END, CHILD_S, ERROR, EXTRA = range(8)


def _digest(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(repr((value.dtype.str, value.shape)).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(type(value).__name__.encode())
        for f in dataclasses.fields(value):
            h.update(f.name.encode())
            _digest(h, getattr(value, f.name))
    elif isinstance(value, (list, tuple)):
        h.update(b"[")
        for item in value:
            _digest(h, item)
        h.update(b"]")
    else:
        h.update(repr(value).encode())


def input_key(signature: inspect.Signature, args, kwargs) -> str:
    """Hash of every argument's content: table bytes, row mask, config."""
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    h = hashlib.sha256()
    for name, value in bound.arguments.items():
        h.update(name.encode())
        _digest(h, value)
    return h.hexdigest()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.unit = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, extra=None) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.unit, parent, 0.0, 0.0, 0.0, "", extra]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += rec[END] - rec[START]

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            self._close(rec)

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            extra = input_key(signature, args, kwargs) if name in KEYED else None
            rec = self._open(name, extra)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                self._close(rec)

        def traced_baseline(kind, train, test_x, *args, **kwargs):
            if kind != "knn":
                with self.span(f"{name}.{kind}"):
                    return fn(kind, train, test_x, *args, **kwargs)
            n_train, d = np.shape(train[0])
            computed = int(np.shape(test_x)[0]) * int(n_train) * int(d) * 8
            tracemalloc.start()
            try:
                with self.span(f"{name}.knn") as rec:
                    return fn(kind, train, test_x, *args, **kwargs)
            finally:
                rec[EXTRA] = (computed, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return traced_baseline if name == "eval_harness.baseline_predict" else traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets this program lacks."""
        missing = []
        for module_name, attr, name in TARGETS:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None) if owner is not None else None
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))
        return missing

    def restore(self) -> None:
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": rec[PARENT], "unit": rec[UNIT], "name": rec[NAME],
                    "start": rec[START], "end": rec[END],
                    "self_s": rec[END] - rec[START] - rec[CHILD_S], "error": rec[ERROR],
                }) + "\n")

    def unit_stats(self, unit: int) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, errors, and the
        extras (input keys, kNN sizes) of one unit's spans."""
        out: dict[str, dict] = {}
        for rec in self.spans:
            if rec[UNIT] != unit:
                continue
            st = out.setdefault(rec[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [],
                                            "extras": []})
            dur = rec[END] - rec[START]
            st["calls"] += 1
            st["s"] += dur
            st["self_s"] += dur - rec[CHILD_S]
            st["errors"].append(rec[ERROR])
            st["extras"].append(rec[EXTRA])
        return out


def repeat_frac(keys: list[str]) -> float:
    """Share of calls whose inputs equal those of an earlier call."""
    if not keys:
        return 0.0
    return 1.0 - len(set(keys)) / len(keys)


# Per-layer metrics, per command: (name, unit, span name, statistic).
def _layer_metrics() -> list[tuple[str, str, str, str]]:
    spec = []
    timed = (
        "data_model.load_csv", "data_model.fit_preprocess", "data_model.task_dataset",
        "task_selection.select_training_tasks", "base_learner.inner_update",
        "base_learner.loss_and_grads", "base_learner.forward", "nn_core.flat_convert",
        "nn_core.FlatParams.check", "nn_core.optimizer_step", "nn_core.param_axpy",
        "meta_learner.meta_train", "meta_learner.meta_step", "meta_learner.sample_task_batch",
        "meta_learner.fine_tune", "meta_learner.predict_rows", "eval_harness.run_cv",
    ) + tuple(f"eval_harness.baseline_predict.{k}" for k in BASELINES) + ("cli.cmd",)
    for span_name in timed:
        spec.append((f"{span_name}.calls", "count", span_name, "calls"))
        spec.append((f"{span_name}.s", "s", span_name, "s"))
    for span_name in ("base_learner.inner_update", "meta_learner.meta_step", "cli.cmd"):
        spec.append((f"{span_name}.self_s", "s", span_name, "self_s"))
    for span_name in sorted(KEYED):
        spec.append((f"{span_name}.repeat_frac", "fraction", span_name, "repeat_frac"))
    spec += [
        ("eval_harness.run_cv.failed", "count", "eval_harness.run_cv", "failed"),
        ("eval_harness.knn.computed_bytes", "bytes", "eval_harness.baseline_predict.knn",
         "computed_bytes"),
        ("eval_harness.knn.peak_traced_mib", "MiB", "eval_harness.baseline_predict.knn",
         "peak_traced_mib"),
        ("eval_harness.grid_search.ok_ratio", "fraction", "", "ok_ratio"),
        ("eval_harness.grid_search.wasted_s", "s", "", "wasted_s"),
        ("eval_harness.pool.cpu_util", "fraction", "", "cpu_util"),
        ("trace.overhead_frac", "fraction", "", "overhead_frac"),
    ]
    return spec


LAYER_METRICS = _layer_metrics()


def layer_values(per_command: list[dict[str, dict]], first_pass: int) -> dict[str, float]:
    """The span-based per-layer values, per command, from the statistics of
    every traced command. Counts are means over the first ``first_pass``
    commands, which the seed fixes, so they repeat exactly; seconds and
    traced memory are medians over every traced command. Metrics with no
    span name are filled in by the caller."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": [], "extras": []}
    reducers = {
        "calls": (lambda st: st["calls"], False),
        "s": (lambda st: st["s"], True),
        "self_s": (lambda st: st["self_s"], True),
        "repeat_frac": (lambda st: repeat_frac(st["extras"]), False),
        "failed": (lambda st: sum(1 for e in st["errors"] if e), False),
        "computed_bytes": (lambda st: sum(e[0] for e in st["extras"]), False),
        "peak_traced_mib": (lambda st: max((e[1] for e in st["extras"]), default=0) / MIB, True),
    }
    values: dict[str, float] = {}
    for metric, _unit, span_name, stat in LAYER_METRICS:
        if not span_name:
            continue
        reduce, timed = reducers[stat]
        if timed:
            values[metric] = statistics.median(
                reduce(u.get(span_name, empty)) for u in per_command)
        else:
            values[metric] = statistics.fmean(
                reduce(u.get(span_name, empty)) for u in per_command[:first_pass])
    return values


def candidate_spans(tracer: Tracer, unit: int) -> list[tuple[float, str]]:
    """(seconds, error class) of every run_cv call inside a grid search of
    one unit, in call order, which is candidate order."""
    out = []
    for rec in tracer.spans:
        if rec[UNIT] == unit and rec[NAME] == "eval_harness.run_cv" and rec[PARENT] >= 0 \
                and tracer.spans[rec[PARENT]][NAME] == "eval_harness.grid_search":
            out.append((rec[END] - rec[START], rec[ERROR]))
    return out
