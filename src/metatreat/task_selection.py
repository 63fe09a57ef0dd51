"""Construction of the meta-training task set.

Training tasks are post-treatment feature columns, optionally filtered by
relevance to the target tasks via Pearson correlation or a histogram
mutual-information estimate. All relevance statistics are computed on
training rows only, so the selected set is independent of test data.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data_model import DatasetTable
from .errors import ConfigError, DataError

SELECTION_METHODS = ("all_post", "pearson", "mutual_info")

# Largest mutual-information histogram, ``mi_bins`` squared: 8 MB of counts.
MAX_HISTOGRAM_CELLS = 1_000_000


@dataclass(frozen=True)
class SelectionConfig:
    method: str = "all_post"
    keep_fraction: float = 1.0
    mi_bins: int = 10

    def __post_init__(self) -> None:
        if self.method not in SELECTION_METHODS:
            raise ConfigError(f"unknown selection method {self.method!r}")
        if not (0.0 < self.keep_fraction <= 1.0):
            raise ConfigError("keep_fraction must lie in (0, 1]")
        if self.mi_bins < 2:
            raise ConfigError("mi_bins must be at least 2")
        if self.mi_bins**2 > MAX_HISTOGRAM_CELLS:
            raise ConfigError(
                f"mi_bins {self.mi_bins} gives a {self.mi_bins} x {self.mi_bins} histogram, "
                f"over the cap of {MAX_HISTOGRAM_CELLS} cells"
            )


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation; NaN when either argument is constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise DataError("pearson needs two equal-length vectors with >=2 entries")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(float((dx * dx).sum()) * float((dy * dy).sum()))
    if denom == 0.0:
        return float("nan")
    return float((dx * dy).sum() / denom)


def mutual_information(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Plug-in MI estimate (nats) on a bins x bins equal-width histogram."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.size < 2:
        raise DataError("mutual_information needs two equal-length vectors with >=2 entries")
    joint, _, _ = np.histogram2d(x, y, bins=bins)
    p = joint / joint.sum()
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    nz = p > 0.0
    mi = float((p[nz] * np.log(p[nz] / (px @ py)[nz])).sum())
    # tiny negatives can appear from rounding; MI is nonnegative by definition
    return max(mi, 0.0)


def _observed_pair(table: DatasetTable, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
    va, oa = table.column_values(a)
    vb, ob = table.column_values(b)
    sel = oa & ob
    return va[sel], vb[sel]


def select_training_tasks(
    train_table: DatasetTable,
    targets: Sequence[str],
    config: SelectionConfig,
) -> tuple[str, ...]:
    """Pick post-treatment feature columns as meta-training tasks and
    return their names.

    ``all_post`` keeps every usable candidate; the relevance methods score
    each candidate by its best relevance over the target columns and keep
    the top ``ceil(keep_fraction * n_candidates)``, ties broken by column
    order. Candidates that are entirely missing or constant are excluded.
    Target columns are never candidates: only feature columns are.
    """
    if not targets:
        raise ConfigError("at least one target task is required")
    candidates = []
    posts = [c.name for c in train_table.columns if c.role == "feature" and c.timing == "post"]
    for name in posts:
        vals, obs = train_table.column_values(name)
        if not obs.any():
            continue
        if np.unique(vals[obs]).size < 2:
            continue  # constant column carries no trainable signal
        candidates.append(name)
    if not candidates:
        raise DataError("no training tasks available: no usable post-treatment features")

    if config.method == "all_post":
        return tuple(candidates)
    scores = []
    for name in candidates:
        best = 0.0
        for tgt in targets:
            xv, yv = _observed_pair(train_table, name, tgt)
            if xv.size < 2:
                continue
            if config.method == "pearson":
                r = pearson(xv, yv)
                rel = 0.0 if math.isnan(r) else abs(r)
            else:
                rel = mutual_information(xv, yv, config.mi_bins)
            best = max(best, rel)
        scores.append(best)
    n_keep = math.ceil(config.keep_fraction * len(candidates))
    order = sorted(range(len(candidates)), key=lambda i: (-scores[i], i))
    return tuple(candidates[i] for i in sorted(order[:n_keep]))
