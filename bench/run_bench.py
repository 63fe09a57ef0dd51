"""End-to-end and per-layer benchmark of the metatreat CLI.

One workload per process:

    python3 bench/run_bench.py --workload cv-paper --seed 1 --seconds 45 --trace 0

drives ``metatreat.cli.main`` in-process on studies generated from the seed,
checks every command's outputs, prints each metric with its unit, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` gives the end-to-end metrics, timed with nothing
wrapped. ``--trace 1`` gives the per-layer metrics of ``tracer.py``, per
command, from spans recorded around each layer's public functions; traced
commands run with one job, because spans live in this process, and are
compared with untraced runs of the same command for the overhead. Details
of every command (wall and CPU time, report SHA-256, candidate failures) go
to ``bench/results/<workload>-seed<n>-trace<t>.json``, spans to a ``.jsonl``
beside it.

    python3 bench/run_bench.py --workload all --seed 0 --seconds 45

runs every workload untraced and traced, each in its own process, and
writes the collected baseline with the machine's provenance to
``bench/baseline.json``.

A run keeps starting commands while one more pass over the workload's
candidate seeds and the closing re-run, at the median command time so far,
still end within ``--seconds``, but always completes the workload's
``min_commands`` and whole passes. Quality and failure figures come from
that fixed prefix, so they repeat exactly for a seed. The first command is
then run again, must give the same bytes, and is timed like the others.
BLAS and OpenMP thread pools are pinned to one thread before numpy loads, so
processes times threads stays within the cores.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    GRID_BUDGET,
    NOISE_SIGMA,
    WORKLOADS,
    CheckError,
    Workload,
    check_grid,
    check_report,
    command_argv,
    output_bytes,
    primary_output,
    sha256,
    study_config,
    write_space,
    write_study,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
BASELINE = BENCH / "baseline.json"
SETUP_REPEATS = 5

# The metrics of the result line, each with a bound in BENCHMARK.json. Other
# tenants of the host only ever slow a command down, by up to ~40% for
# seconds at a time, so the bounded timings are each run's fastest commands;
# the median, tail, throughput and mean CPU are printed beside them.
END_TO_END = (
    ("setup_s", "s"),
    ("cmd_s_best", "s"),
    ("cpu_s_per_unit_best", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "fraction"),
    ("mse_over_bayes", "ratio"),
    ("meta_over_ridge", "ratio"),
)


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_program():
    """Import the CLI from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "metatreat" / "__init__.py").is_file():
        raise SystemExit(f"bench: no metatreat package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import metatreat.cli

    return metatreat.cli


class Run:
    """One workload run's studies, output directories and CLI handle."""

    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.cli = None
        self.space: Path | None = None
        self.studies: dict[int, dict[str, Path]] = {}

    def set_up(self) -> float:
        """Import, the first study, the space file and a tiny warm-up command;
        returns seconds since the process started."""
        self.cli = import_program()
        self.work.mkdir(parents=True, exist_ok=True)
        if self.workload.command == "grid-search":
            self.space = write_space(self.work / "space.json")
        self.study(0)
        tiny = {"n_groups": 2, "n_per_group": 12, "d_pre": 2, "d_aux": 2, "delta": [0.0, 1.0],
                "seed": 0}
        warm = write_study(tiny, self.work / "warmup")
        config = self.work / "warmup" / "config.json"
        config.write_text(json.dumps({"meta": {"meta_iterations": 2, "k": 5}}), encoding="utf-8")
        rc, _, _, err = self.call(["cv", "--data", str(warm["data"]), "--manifest",
                                   str(warm["manifest"]), "--config", str(config), "--out",
                                   str(self.work / "warmup" / "out")])
        if rc != 0:
            raise SystemExit(f"bench: warm-up command failed ({rc}): {err}")
        return time.perf_counter() - T_START

    def study(self, index: int) -> dict[str, Path]:
        """The study of one command, generated before its first use."""
        if index not in self.studies:
            doc = study_config(self.workload, self.seed, index)
            self.studies[index] = write_study(doc, self.work / f"study-{index}")
        return self.studies[index]

    def call(self, argv: list[str], tracer=None) -> tuple[int, float, float, str]:
        """Run the CLI in-process: exit code, wall s, CPU s (self+children),
        captured stderr. Console output is kept off the benchmark's stdout."""
        err = io.StringIO()
        span = tracer.span("cli.cmd") if tracer else nullcontext()
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err), span:
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a failed command, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        return rc, wall, cpu_seconds() - cpu0, err.getvalue()

    def command(self, index: int, jobs: int, out: Path, tracer=None) -> dict:
        """Run and check one command; the record says whether it is usable."""
        w = self.workload
        argv = command_argv(w, self.seed, index, self.study(index), self.space, out, jobs)
        rc, wall, cpu, err = self.call(argv, tracer)
        rec = {"index": index, "jobs": jobs, "out": out, "wall_s": wall, "cpu_s": cpu, "rc": rc,
               "units": w.units_per_command(), "ok_units": 0, "ok": False}
        if rc != 0:
            rec["error"] = f"exit code {rc}: {err.strip()[-400:]}"
            return rec
        try:
            if w.command == "cv":
                rec.update(meta_and_ridge(check_report(out / "report.csv")))
                rec["ok_units"] = 1
            else:
                doc = check_grid(out, GRID_BUDGET)
                entries = doc["leaderboard"]
                rec["ok_units"] = sum(e["status"] == "ok" for e in entries)
                rec["best_score"] = entries[0]["score"]
                rec["best"] = doc["best"]
                rec["failures"] = [
                    {"candidate": e["candidate"], "error_class": e["error"].split(":")[0],
                     "error": e["error"]}
                    for e in entries if e["status"] == "failed"
                ]
            rec["sha256"] = sha256(primary_output(w, out))
            rec["ok"] = True
        except (CheckError, ValueError, KeyError, IndexError, OSError) as exc:
            rec["error"] = f"output check: {type(exc).__name__}: {exc}"
        return rec

    def best_config_cv(self, rec: dict) -> dict[str, list[float]]:
        """Held-out meta and ridge MSEs of a grid search's best configuration,
        re-run through ``cv`` on the same study with the search's seed."""
        config = rec["out"] / "best_run_config.json"
        config.write_text(json.dumps(rec["best"]), encoding="utf-8")
        out = rec["out"] / "best-cv"
        study = self.study(rec["index"])
        seed = self.workload.program_seeds[rec["index"] % self.workload.pass_len]
        rc, _, _, err = self.call(["cv", "--data", str(study["data"]), "--manifest",
                                   str(study["manifest"]), "--config", str(config),
                                   "--seed", str(seed), "--jobs", str(self.workload.jobs),
                                   "--out", str(out)])
        if rc != 0:
            raise CheckError(f"best configuration failed under cv ({rc}): {err.strip()[-200:]}")
        return meta_and_ridge(check_report(out / "report.csv"))


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


def meta_and_ridge(rows: list[dict]) -> dict[str, list[float]]:
    """Held-out MSEs of the meta-learner and the ridge baseline, per fold."""
    return {f"{m}_mse": [r["value"] for r in rows if r["model"] == m] for m in ("meta", "ridge")}


def setup_samples(run: Run, tag: str) -> list[float]:
    """This process's set-up time plus that of fresh processes doing the same."""
    samples = [run.set_up()]
    for k in range(1, SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", run.workload.name,
             "--seed", str(run.seed), "--work", str(WORK / tag / f"setup-{k}")],
            capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up repeat failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples beyond it, and that
    percentile; below 20 samples no percentile at or above the median has
    ten beyond it, so the maximum (percentile 100) is reported."""
    s = sorted(values)
    n = len(s)
    if n < 20:
        return s[-1], 100
    pct = math.floor(100 * (1 - 10 / n))
    return s[math.ceil(pct / 100 * n) - 1], pct


def ends_window(t0: float, seconds: float, cmds: list[dict], more: int) -> bool:
    """Whether ``more`` further commands, at the median wall time so far,
    would end past the measuring window, so the run stops here and ends
    close to ``seconds`` instead of overrunning it by up to a pass."""
    expected = statistics.median(c["wall_s"] for c in cmds) * more
    return time.perf_counter() - t0 + expected > seconds


def best_per_slot(cmds: list[dict], pass_len: int, value) -> float:
    """The mean over a pass's slots (candidate seeds) of the least value a
    command in that slot reached; on the cv workloads, the least value."""
    slots: dict[int, list[float]] = {}
    for c in cmds:
        slots.setdefault(c["index"] % pass_len, []).append(value(c))
    return statistics.fmean(min(v) for v in slots.values()) if slots else 0.0


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# The untraced run
# ---------------------------------------------------------------------------


def untraced(run: Run, seconds: float, tag: str) -> tuple[dict, dict]:
    w = run.workload
    setup = setup_samples(run, tag)
    cmds: list[dict] = []
    t0 = time.perf_counter()
    while True:
        cmds.append(run.command(len(cmds), w.jobs, run.work / f"cmd-{len(cmds)}"))
        if len(cmds) % w.pass_len == 0 and len(cmds) >= w.min_commands and ends_window(
                t0, seconds, cmds, w.pass_len + 1):
            break
    rerun = run.command(0, w.jobs, run.work / "cmd-0-rerun")
    peak = peak_rss_mib()
    rerun_same = bool(cmds[0]["ok"] and rerun["ok"]
                      and output_bytes(w, cmds[0]["out"]) == output_bytes(w, rerun["out"]))

    # The re-run is a command like the others, so it is timed too.
    timed = [c for c in cmds + [rerun] if c["ok"]]
    prefix = cmds[: w.min_commands]
    good = [c for c in prefix if c["ok"]]
    walls = [c["wall_s"] for c in timed]
    tail_s, tail_pct = tail(walls) if walls else (0.0, 100)
    notes = []
    if w.command == "cv":
        quality = [v for c in good for v in c["meta_mse"]]
        folds = good
    else:
        quality = [c["best_score"] for c in good]
        folds = []
        for c in good:
            try:
                folds.append(run.best_config_cv(c))
            except (CheckError, ValueError, OSError) as exc:
                notes.append(str(exc))
    meta = sum(v for c in folds for v in c["meta_mse"])
    ridge = sum(v for c in folds for v in c["ridge_mse"])
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_s_best": best_per_slot(timed, w.pass_len, lambda c: c["wall_s"]),
        "cpu_s_per_unit_best": best_per_slot(timed, w.pass_len, lambda c: c["cpu_s"] / c["units"]),
        "peak_rss_mib": peak,
        "ok_frac": sum(c["ok_units"] for c in prefix) / sum(c["units"] for c in prefix),
        "mse_over_bayes": statistics.fmean(quality) / NOISE_SIGMA**2 if quality else 0.0,
        "meta_over_ridge": meta / ridge if ridge else 0.0,
    }
    reported = {
        "throughput_per_min": (60.0 * sum(c["ok_units"] for c in timed) / sum(walls), "1/min"),
        "cmd_s_p50": (statistics.median(walls), "s"),
        "cmd_s_tail": (tail_s, "s"),
        "cpu_s_per_unit": (sum(c["cpu_s"] for c in timed) / sum(c["units"] for c in timed), "s"),
        "failed_frac": (1.0 - metrics["ok_frac"], "fraction"),
    } if timed else {}
    slots = {c["index"] % w.pass_len for c in timed}
    correct = bool(rerun_same and len(good) == len(prefix) and quality and ridge and not notes
                   and len(slots) == w.pass_len)
    detail = {
        "setup_samples_s": setup,
        "reported": reported,
        "cmd_s_tail_percentile": tail_pct,
        "cmd_s_samples": len(walls),
        "rerun_identical": rerun_same,
        "candidate_failures": [dict(f, command=c["index"]) for c in cmds
                               for f in c.get("failures", [])],
        "commands": cmds + [dict(rerun, rerun=True)],
        "notes": notes,
    }
    return {"correct": correct, "attempted": len(cmds) + 1, "failed": len(cmds) + 1 - len(timed),
            "metrics": metrics}, detail


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


def traced(run: Run, seconds: float, tag: str) -> tuple[dict, dict]:
    from tracer import LAYER_METRICS, Tracer, candidate_spans, layer_values

    w = run.workload
    setup = setup_samples(run, tag)
    # Untraced references: the workload's own job count (pool CPU use) and,
    # when that differs, one job, which is how the traced commands run.
    refs = {w.jobs: run.command(0, w.jobs, run.work / f"ref-jobs{w.jobs}")}
    if w.jobs != 1:
        refs[1] = run.command(0, 1, run.work / "ref-jobs1")
    tracer = Tracer()
    missing = tracer.install()
    cmds: list[dict] = []
    try:
        t0 = time.perf_counter()
        while True:
            tracer.unit = len(cmds)
            cmds.append(run.command(tracer.unit, 1, run.work / f"traced-{tracer.unit}", tracer))
            if len(cmds) % w.pass_len == 0 and ends_window(t0, seconds, cmds, w.pass_len):
                break
    finally:
        tracer.restore()
    tracer.write_jsonl(RESULTS / f"{tag}.spans.jsonl")

    all_cmds = list(refs.values()) + cmds
    same = all(c["ok"] for c in all_cmds) and len(
        {output_bytes(w, c["out"]) for c in list(refs.values()) + cmds[:1]}) == 1
    ok_cmds = [c for c in cmds if c["ok"]]
    per_command = [tracer.unit_stats(c["index"]) for c in ok_cmds] or [{}]
    values = layer_values(per_command, w.pass_len)
    first_pass = cmds[: w.pass_len]
    candidates = [candidate_spans(tracer, c["index"]) for c in ok_cmds]
    values["eval_harness.grid_search.ok_ratio"] = (
        sum(c["ok_units"] for c in first_pass) / sum(c["units"] for c in first_pass))
    values["eval_harness.grid_search.wasted_s"] = median_or_zero(
        [sum(s for s, err in cands if err) for cands in candidates])
    ref = refs[w.jobs]
    values["eval_harness.pool.cpu_util"] = ref["cpu_s"] / (ref["wall_s"] * w.jobs)
    values["trace.overhead_frac"] = cmds[0]["wall_s"] / refs[1]["wall_s"] - 1.0
    metrics = {name: values[name] for name, *_ in LAYER_METRICS}
    failures = [
        {"command": c["index"], "candidate": i, "error_class": err, "seconds": s}
        for c, cands in zip(ok_cmds, candidates) for i, (s, err) in enumerate(cands) if err
    ]
    detail = {
        "setup_samples_s": setup,
        "traced_jobs": 1,
        "untraced_reference_wall_s": {str(j): r["wall_s"] for j, r in refs.items()},
        "traced_wall_s": [c["wall_s"] for c in cmds],
        "outputs_identical_with_tracing": same,
        "missing_targets": missing,
        "candidate_failures": failures,
        "spans": len(tracer.spans),
        "commands": all_cmds,
    }
    return {"correct": bool(same), "attempted": len(all_cmds),
            "failed": sum(not c["ok"] for c in all_cmds), "metrics": metrics}, detail


# ---------------------------------------------------------------------------
# Provenance, output, entry points
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "git_commit": git_commit(),
        "workload_seed": seed,
        "pinned_threads": {var: os.environ[var] for var in PINNED},
    }


def print_result(workload: Workload, result: dict, detail: dict) -> None:
    print(f"workload {workload.name}: {workload.why}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in detail.get("reported", {}).items():
        extra = ""
        if name == "cmd_s_tail":
            extra = f"  (p{detail['cmd_s_tail_percentile']} of {detail['cmd_s_samples']} commands)"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    for f in detail["candidate_failures"]:
        after = f" after {f['seconds']:.3f} s" if "seconds" in f else ""
        print(f"  failed candidate {f['command']}/{f['candidate']}: {f['error_class']}{after}")
    for c in detail["commands"]:
        if not c["ok"]:
            print(f"  command {c['index']} failed: {c.get('error')}")


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run = Run(workload, args.seed, WORK / tag)
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            from tracer import LAYER_METRICS

            result, detail = traced(run, args.seconds, tag)
            units = {name: unit for name, unit, *_ in LAYER_METRICS}
        else:
            result, detail = untraced(run, args.seconds, tag)
            units = dict(END_TO_END)
        result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
        for c in detail["commands"]:
            c["out"] = str(Path(c["out"]).relative_to(BENCH))
        doc = {"workload": workload.name, "why": workload.why, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace, "provenance": provenance(args.seed),
               "result": result, **detail}
        (RESULTS / f"{tag}.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print_result(workload, result, detail)
    finally:
        shutil.rmtree(WORK / tag, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process, and the
    collected baseline."""
    baseline = {"provenance": None, "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"bench: {name} trace={trace} exited with {proc.returncode}")
            doc = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{trace}.json").read_text())
            baseline["provenance"] = doc["provenance"]
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in doc["result"]["metrics"].items()}
            entry[f"correct_trace{trace}"] = doc["result"]["correct"]
            entry[f"candidate_failures_trace{trace}"] = doc["candidate_failures"]
            if trace:
                entry["trace_overhead_frac"] = entry["per_layer"]["trace.overhead_frac"]
            else:
                entry["why"] = doc["why"]
                entry["cmd_s_tail_percentile"] = doc["cmd_s_tail_percentile"]
                entry["cmd_s_samples"] = doc["cmd_s_samples"]
                entry["reported"] = {k: v[0] for k, v in doc["reported"].items()}
                entry["report_sha256"] = [c.get("sha256") for c in doc["commands"]]
        baseline["workloads"][name] = entry
    BASELINE.write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {BASELINE}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        run = Run(WORKLOADS[args.workload], args.seed, Path(args.work))
        print(json.dumps({"setup_s": run.set_up()}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
