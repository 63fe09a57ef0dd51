"""Synthetic grouped studies with known latent treatment effects.

Rows are individuals with pre-treatment features drawn from a standard
normal, a post-treatment target shifted per group by delta_g, and auxiliary
post-treatment features that share signal components with the target and
carry aligned group shifts — the structure that makes the group effect
inferable for a group whose target labels are withheld. Because the noise
is additive Gaussian, the Bayes-optimal test MSE is exactly the target
noise variance.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .data_model import ColumnMeta, DatasetTable, Manifest, csv_cell, strict_dataclass
from .errors import ConfigError

COUPLINGS = ("linear", "mild_nonlinear")

# Largest study `generate` builds, in table cells: rows x (d_pre + d_aux + 1
# target). Each float64 copy of such a table is 80 MB, and the cap still
# admits a 50,000-row study with 199 feature columns.
MAX_CELLS = 10_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    n_groups: int = 3
    n_per_group: int = 60
    d_pre: int = 4
    d_aux: int = 8
    delta: tuple[float, ...] = (-2.0, 0.0, 2.0)
    aux_delta_scale: float = 1.0
    aux_delta: tuple[tuple[float, ...], ...] | None = None  # explicit (G x d_aux) override
    noise_sigma: float = 1.0
    aux_noise_sigma: float | None = None
    coupling: str = "linear"
    target_coupling_scale: float = 1.0
    aux_coupling_scale: float = 1.0
    aux_mix: float = 0.5  # weight of each auxiliary column's private component
    missing_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_groups < 2:
            raise ConfigError("need at least two groups")
        if self.n_per_group < 1:
            raise ConfigError("n_per_group must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.d_pre < 1 or self.d_aux < 0:
            raise ConfigError("d_pre must be >=1 and d_aux >=0")
        cells = self.n_groups * self.n_per_group * (self.d_pre + self.d_aux + 1)
        if cells > MAX_CELLS:
            raise ConfigError(
                f"study of {cells} cells (groups x rows per group x columns) exceeds the "
                f"generator's cap of {MAX_CELLS}"
            )
        if len(self.delta) != self.n_groups:
            raise ConfigError(f"delta must list one shift per group ({self.n_groups})")
        if self.noise_sigma <= 0.0 or (self.aux_noise_sigma is not None and self.aux_noise_sigma <= 0.0):
            raise ConfigError("noise standard deviations must be positive")
        if self.noise_sigma > math.sqrt(sys.float_info.max):  # the Bayes-optimal MSE squares it
            raise ConfigError(f"noise_sigma {self.noise_sigma!r} squared is beyond the float range")
        if self.coupling not in COUPLINGS:
            raise ConfigError(f"unknown coupling {self.coupling!r}")
        if not (0.0 <= self.missing_rate < 1.0):
            raise ConfigError("missing_rate must lie in [0, 1)")
        if self.aux_delta is not None:
            if len(self.aux_delta) != self.n_groups or any(
                len(row) != self.d_aux for row in self.aux_delta
            ):
                raise ConfigError("aux_delta must be an n_groups x d_aux matrix")

    def aux_sigma(self) -> float:
        return self.noise_sigma if self.aux_noise_sigma is None else self.aux_noise_sigma

    def aux_shift_matrix(self) -> np.ndarray:
        if self.aux_delta is not None:
            return np.asarray(self.aux_delta, dtype=np.float64)
        return self.aux_delta_scale * np.asarray(self.delta, dtype=np.float64)[:, None] * np.ones(
            (1, self.d_aux)
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "GeneratorConfig":
        """Checked like every JSON config; shifts written as JSON integers
        are kept as floats, which is how ``ground_truth.json`` spells them."""
        config = strict_dataclass(cls, doc)
        aux = config.aux_delta
        return replace(
            config,
            delta=tuple(float(v) for v in config.delta),
            aux_delta=None if aux is None else tuple(tuple(float(v) for v in r) for r in aux),
        )


@dataclass(frozen=True)
class GroundTruth:
    """What the generator knows: noiseless targets and the effect sizes."""

    noiseless_target: np.ndarray
    delta: tuple[float, ...]
    bayes_mse: float

    def to_dict(self) -> dict:
        return {
            "noiseless_target": self.noiseless_target.tolist(),
            "delta": list(self.delta),
            "bayes_mse": self.bayes_mse,
        }


def bayes_optimal_mse(config: GeneratorConfig) -> float:
    """Irreducible test MSE under the additive Gaussian noise model."""
    return config.noise_sigma**2


def _coupling_fn(
    rng: np.random.Generator, d: int, kind: str
) -> tuple[np.ndarray, np.ndarray | None]:
    w = rng.normal(size=d)
    w /= np.linalg.norm(w)
    u = None
    if kind == "mild_nonlinear":
        u = rng.normal(size=d)
        u /= np.linalg.norm(u)
    return w, u


def _apply_coupling(x: np.ndarray, w: np.ndarray, u: np.ndarray | None) -> np.ndarray:
    out = x @ w
    if u is not None:
        out = out + np.tanh(x @ u)
    return out


def generate(config: GeneratorConfig) -> tuple[DatasetTable, Manifest, GroundTruth]:
    """Deterministic synthetic study for one seed.

    Target: y = s * f(x) + delta_g + eps. Each auxiliary post-treatment
    column j: a_j = f(x) + aux_mix * h_j(x) + delta'_{g,j} + eps_j, sharing f
    so that corr(a_j, y) > 0 and carrying the aligned group shift delta'.
    Missingness is injected completely at random into feature columns only.
    """
    rng = np.random.default_rng(config.seed)
    g_count = config.n_groups
    n = g_count * config.n_per_group
    group_ids = np.repeat(np.arange(g_count), config.n_per_group)
    x = rng.normal(size=(n, config.d_pre))

    w, u = _coupling_fn(rng, config.d_pre, config.coupling)
    f = _apply_coupling(x, w, u)
    delta = np.asarray(config.delta, dtype=np.float64)
    noiseless = config.target_coupling_scale * f + delta[group_ids]
    y = noiseless + rng.normal(scale=config.noise_sigma, size=n)

    aux_shift = config.aux_shift_matrix()
    aux_cols = []
    for j in range(config.d_aux):
        h = rng.normal(size=config.d_pre)
        h /= np.linalg.norm(h)
        a = config.aux_coupling_scale * (f + config.aux_mix * (x @ h)) + aux_shift[group_ids, j]
        a = a + rng.normal(scale=config.aux_sigma(), size=n)
        aux_cols.append(a)

    columns = [ColumnMeta(f"x{i}", "pre", "numeric", "feature") for i in range(config.d_pre)]
    columns += [ColumnMeta(f"aux{j}", "post", "numeric", "feature") for j in range(config.d_aux)]
    columns.append(ColumnMeta("y", "post", "numeric", "target"))
    values = np.column_stack([x] + aux_cols + [y])
    mask = np.zeros_like(values, dtype=bool)
    if config.missing_rate > 0.0:
        n_feature_cols = config.d_pre + config.d_aux
        holes = rng.random((n, n_feature_cols)) < config.missing_rate
        mask[:, :n_feature_cols] = holes
        values = np.where(mask, np.nan, values)

    group_names = tuple(f"g{i}" for i in range(g_count))
    table = DatasetTable(tuple(columns), values, mask, group_ids, group_names)
    manifest = Manifest((*columns, ColumnMeta("group", "pre", "categorical", "group")))
    truth = GroundTruth(
        noiseless_target=noiseless, delta=config.delta, bayes_mse=bayes_optimal_mse(config)
    )
    return table, manifest, truth


# ---------------------------------------------------------------------------
# File emission (same CSV/manifest the loader consumes)
# ---------------------------------------------------------------------------


def table_to_csv_text(table: DatasetTable, group_column: str) -> str:
    """RFC-4180 text, the group column named ``group_column`` first, with
    missing cells left empty; floats use repr so a write/read round trip is
    value-exact."""
    header = [group_column] + [c.name for c in table.columns]
    lines = [",".join(csv_cell(name) for name in header)]
    for i in range(table.n_rows):
        cells = [csv_cell(table.group_names[table.group_ids[i]])]
        for j in range(len(table.columns)):
            cells.append("" if table.missing_mask[i, j] else repr(float(table.values[i, j])))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def manifest_to_json_text(manifest: Manifest) -> str:
    return json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"


def write_dataset(
    out_dir: str | Path,
    table: DatasetTable,
    manifest: Manifest,
    truth: GroundTruth,
    config: GeneratorConfig,
) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "data": out / "data.csv",
        "manifest": out / "manifest.json",
        "ground_truth": out / "ground_truth.json",
    }
    paths["data"].write_text(table_to_csv_text(table, manifest.group_column), encoding="utf-8")
    paths["manifest"].write_text(manifest_to_json_text(manifest), encoding="utf-8")
    truth_doc = truth.to_dict()
    truth_doc["generator_config"] = config.to_dict()
    paths["ground_truth"].write_text(
        json.dumps(truth_doc, sort_keys=True) + "\n", encoding="utf-8"
    )
    return paths
