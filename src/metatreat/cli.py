"""Batch command-line entry point.

Subcommands: ``generate`` (synthetic study), ``cv`` (group-holdout
cross-validation), ``grid-search`` (randomized hyperparameter search), and
``report`` (re-derive summary/gap files from a report CSV). Config files
are JSON; flags override file values which override defaults. Every output
embeds (config hash, seed, tool version) and reruns with the same triple
are byte-identical.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .data_model import load_csv, load_manifest, strict_dataclass
from .errors import ConfigError, DataError, NumericError
from .eval_harness import (
    REPORT_COLUMNS,
    CvConfig,
    MetricReport,
    MetricRow,
    PipelineConfig,
    SearchSpace,
    grid_search,
    off_grid_fields,
    overfit_gap,
    plot_data_csv,
    run_cv,
)
from .synth_gen import GeneratorConfig, generate, write_dataset

OUT_DIR_ENV = "METATREAT_OUT_DIR"


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def _run_hash(pipeline: PipelineConfig, cv: CvConfig, **extra) -> str:
    """Hash of what a run's outputs depend on: the pipeline, the groups
    never held out, the seed, and ``extra`` inputs of the command."""
    return config_hash(
        {"pipeline": pipeline.to_dict(), "cv": cv.excluded_holdout_groups, "seed": cv.seed, **extra}
    )


def _stamp(hash_: str, seed: int) -> str:
    return f"# config_hash={hash_} seed={seed} version={__version__}\n"


class _Constant(str):
    """One of the literals NaN, Infinity and -Infinity, which Python's json
    accepts but JSON does not."""


def _reject_constants(pairs: list[tuple[str, object]]) -> dict:
    for key, value in pairs:
        items = [value]
        for item in items:  # each nested list's items join the end
            if isinstance(item, _Constant):
                raise ValueError(f"{key}: {item} is not a JSON number")
            items += item if isinstance(item, list) else []
    return dict(pairs)


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            doc = json.load(fh, parse_constant=_Constant, object_pairs_hook=_reject_constants)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
    # also an integer literal past Python's digit limit, or NaN/Infinity
    except ValueError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return doc


def _out_dir(args) -> Path:
    out = os.environ.get(OUT_DIR_ENV) or args.out
    if out is None:
        raise ConfigError("an output directory is required (--out or METATREAT_OUT_DIR)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_config(args) -> tuple[PipelineConfig, CvConfig]:
    doc = _load_json(args.config) if args.config else {}
    cv = strict_dataclass(CvConfig, doc.pop("cv", {}))
    pipeline = PipelineConfig.from_dict(doc)
    if getattr(args, "task_kind", None):
        pipeline = replace(pipeline, task_kind=args.task_kind)
    if getattr(args, "seed", None) is not None:
        cv = replace(cv, seed=args.seed)
    if getattr(args, "jobs", None) is not None:
        cv = replace(cv, jobs=args.jobs)
    if getattr(args, "holdout_exclude", None):
        merged = tuple(dict.fromkeys(list(cv.excluded_holdout_groups) + args.holdout_exclude))
        cv = replace(cv, excluded_holdout_groups=merged)
    return pipeline, cv


def cmd_generate(args) -> int:
    doc = _load_json(args.config)
    config = GeneratorConfig.from_dict(doc)
    table, manifest, truth = generate(config)
    out = _out_dir(args)
    paths = write_dataset(out, table, manifest, truth, config)
    print(f"wrote {paths['data']}, {paths['manifest']}, {paths['ground_truth']}")
    return 0


def _write_report_files(
    out: Path, report: MetricReport, hash_: str, seed: int, extra: dict | None = None
) -> None:
    stamp = _stamp(hash_, seed)
    (out / "report.csv").write_text(stamp + report.to_csv_text(), encoding="utf-8")
    (out / "plot_data.csv").write_text(stamp + plot_data_csv(report), encoding="utf-8")
    summary = {
        "config_hash": hash_,
        "seed": seed,
        "version": __version__,
        "n_rows": len(report.rows),
        "summary": report.summary(),
        "overfit_gap": overfit_gap(report),
    }
    if extra:
        summary.update(extra)
    (out / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def cmd_cv(args) -> int:
    pipeline, cv = _run_config(args)
    manifest = load_manifest(args.manifest)
    table = load_csv(manifest, args.data)
    off_grid = off_grid_fields(pipeline.base)
    if off_grid:
        print(f"note: base-learner fields outside the published grids: {off_grid}", file=sys.stderr)
    hash_ = _run_hash(pipeline, cv)
    report = run_cv(table, manifest, pipeline, cv)
    out = _out_dir(args)
    _write_report_files(out, report, hash_, cv.seed, {"pipeline": pipeline.to_dict()})
    print(f"wrote {out / 'report.csv'}, {out / 'summary.json'}, {out / 'plot_data.csv'}")
    return 0


def cmd_grid_search(args) -> int:
    pipeline, cv = _run_config(args)
    if args.budget < 1:
        raise ConfigError("--budget must be at least 1")
    manifest = load_manifest(args.manifest)
    table = load_csv(manifest, args.data)
    space = (
        strict_dataclass(SearchSpace, _load_json(args.space)) if args.space else SearchSpace()
    )
    hash_ = _run_hash(pipeline, cv, budget=args.budget, space=asdict(space))
    best, leaderboard = grid_search(
        space, table, manifest, args.budget, cv.seed, pipeline, cv
    )
    out = _out_dir(args)
    stamp = _stamp(hash_, cv.seed)
    lines = ["rank,candidate,status,score"]
    for e in leaderboard:
        score = "" if e["score"] is None else repr(e["score"])
        lines.append(f"{e['rank']},{e['candidate']},{e['status']},{score}")
    (out / "leaderboard.csv").write_text(stamp + "\n".join(lines) + "\n", encoding="utf-8")
    best_doc = {
        "config_hash": hash_,
        "seed": cv.seed,
        "version": __version__,
        "best": best.to_dict(),
        "leaderboard": leaderboard,
    }
    (out / "best_config.json").write_text(
        json.dumps(best_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'leaderboard.csv'}, {out / 'best_config.json'}")
    return 0


def report_from_csv_text(text: str) -> MetricReport:
    """Parse ``MetricReport.to_csv_text`` output, after any leading stamp
    lines; a report whose rows mix metrics is refused."""
    while text.startswith("#"):
        text = text.partition("\n")[2]
    try:
        records = [cells for cells in csv.reader(io.StringIO(text, newline="")) if cells]
    except csv.Error as exc:
        raise DataError(f"malformed report CSV: {exc}") from None
    if not records or tuple(records[0]) != REPORT_COLUMNS:
        raise DataError(f"unexpected report header: {records[0] if records else 'none'}")
    rows = []
    for n, cells in enumerate(records[1:], start=1):
        if len(cells) != len(REPORT_COLUMNS):
            raise DataError(
                f"report row {n} has {len(cells)} cells, expected {len(REPORT_COLUMNS)}"
            )
        group, task, model, metric, value, train_value, n_test, note = cells
        try:
            rows.append(
                MetricRow(
                    group, task, model, metric, float(value), float(train_value), int(n_test), note
                )
            )
        except ValueError as exc:
            raise DataError(f"report row {n}: {exc}") from None
    metrics = sorted({r.metric for r in rows})
    if len(metrics) > 1:
        raise DataError(f"report mixes the metrics {metrics}; a report holds one metric")
    return MetricReport(tuple(rows))


def cmd_report(args) -> int:
    try:
        with open(args.report, encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.report}: not UTF-8 text ({exc.reason})") from None
    report = report_from_csv_text(text)
    stamp_line = text.partition("\n")[0].removesuffix("\r")
    out = _out_dir(args)
    stamp = stamp_line + "\n" if stamp_line.startswith("#") else ""
    (out / "plot_data.csv").write_text(stamp + plot_data_csv(report), encoding="utf-8")
    gap_doc = {"version": __version__, "overfit_gap": overfit_gap(report)}
    (out / "gap_stats.json").write_text(
        json.dumps(gap_doc, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {out / 'plot_data.csv'}, {out / 'gap_stats.json'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metatreat",
        description="Zero-shot treatment-outcome prediction for held-out groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic study (CSV + manifest + truth)")
    p_gen.add_argument("--config", required=True, help="generator config JSON")
    p_gen.add_argument("--out", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    def add_common(p):
        p.add_argument("--data", required=True, help="dataset CSV")
        p.add_argument("--manifest", required=True, help="manifest JSON")
        p.add_argument("--config", help="run config JSON")
        p.add_argument("--task-kind", dest="task_kind", choices=["regression", "classification"])
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, help="fold/candidate parallelism")
        p.add_argument(
            "--holdout-exclude", action="append", default=[],
            metavar="GROUP", help="never hold this group out (repeatable)",
        )
        p.add_argument("--out", help="output directory")

    p_cv = sub.add_parser("cv", help="run group-holdout cross-validation")
    add_common(p_cv)
    p_cv.set_defaults(func=cmd_cv)

    p_gs = sub.add_parser("grid-search", help="randomized hyperparameter search")
    add_common(p_gs)
    p_gs.add_argument("--budget", type=int, required=True, help="number of candidates")
    p_gs.add_argument("--space", help="search space JSON (defaults to the published grids)")
    p_gs.set_defaults(func=cmd_grid_search)

    p_rep = sub.add_parser("report", help="summary + gap files from a report CSV")
    p_rep.add_argument("--report", required=True, help="report.csv from a cv run")
    p_rep.add_argument("--out", help="output directory")
    p_rep.set_defaults(func=cmd_report)
    return parser


def _format_warning(message, *_) -> str:
    """One line per warning, naming no source file."""
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    formatwarning = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
