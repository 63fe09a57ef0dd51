"""Dataset representation, CSV/manifest ingestion, typed reading of JSON
config objects, and the preprocessing pipeline: differential features,
sparse-feature removal, sex-style residual features, train-only mean
imputation, feature/target scaling, and group-holdout splitting.

Tables are immutable after construction; every operation returns a new
table, so read-only sharing across threads is safe. All fit statistics are
computed on training rows only and recorded in a serializable plan.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
import types
import typing
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError

TIMINGS = ("pre", "during", "post")
KINDS = ("numeric", "categorical")
ROLES = ("feature", "group", "target", "stratifier")
SCALING_MODES = ("none", "normalize", "standardize", "standardize_vs_reference_group")

DEFAULT_MISSING_SENTINELS = ("", "NA")


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnMeta:
    name: str
    timing: str = "pre"
    kind: str = "numeric"
    role: str = "feature"

    def __post_init__(self) -> None:
        if self.timing not in TIMINGS:
            raise ConfigError(f"column {self.name!r}: unknown timing {self.timing!r}")
        if self.kind not in KINDS:
            raise ConfigError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise ConfigError(f"column {self.name!r}: unknown role {self.role!r}")


@dataclass(frozen=True)
class DatasetTable:
    """Rows of (features, group, targets) with an explicit missing mask.

    ``columns`` describes the numeric matrix ``values``; the group column is
    carried separately as dense integer ids into ``group_names``. Missing
    cells hold NaN and are flagged in ``missing_mask``. ``group_names`` always
    lists every group of the originating study, even for row subsets, so
    group ids stay stable across splits.
    """

    columns: tuple[ColumnMeta, ...]
    values: np.ndarray
    missing_mask: np.ndarray
    group_ids: np.ndarray
    group_names: tuple[str, ...]
    group_column: str = "group"

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        mask = np.array(self.missing_mask, dtype=bool)
        gids = np.array(self.group_ids, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise ShapeError(
                f"values shape {values.shape} does not match {len(self.columns)} columns"
            )
        if mask.shape != values.shape:
            raise ShapeError("missing mask shape must equal values shape")
        if gids.shape != (values.shape[0],):
            raise ShapeError("group ids must have one entry per row")
        if gids.size and (gids.min() < 0 or gids.max() >= len(self.group_names)):
            raise DataError("group ids out of range of group names")
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise DataError("column names must be unique")
        for arr in (values, mask, gids):
            arr.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "missing_mask", mask)
        object.__setattr__(self, "group_ids", gids)
        object.__setattr__(self, "_index", {c.name: i for i, c in enumerate(self.columns)})

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_groups(self) -> int:
        return len(self.group_names)

    def column_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise DataError(f"no column named {name!r}") from None

    def column_values(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(values, observed) for one column; observed is ~missing."""
        j = self.column_index(name)
        return self.values[:, j], ~self.missing_mask[:, j]

    def columns_with(self, role: str | None = None, timing: str | None = None) -> list[ColumnMeta]:
        out = []
        for c in self.columns:
            if role is not None and c.role != role:
                continue
            if timing is not None and c.timing != timing:
                continue
            out.append(c)
        return out

    def take_rows(self, idx: np.ndarray) -> "DatasetTable":
        return DatasetTable(
            self.columns,
            self.values[idx],
            self.missing_mask[idx],
            self.group_ids[idx],
            self.group_names,
            self.group_column,
        )

    def replace_matrix(
        self,
        columns: tuple[ColumnMeta, ...],
        values: np.ndarray,
        missing_mask: np.ndarray,
    ) -> "DatasetTable":
        return DatasetTable(
            columns, values, missing_mask, self.group_ids, self.group_names, self.group_column
        )

    def resolve_group(self, group: str) -> int:
        try:
            return self.group_names.index(group)
        except ValueError:
            raise DataError(f"unknown group {group!r}") from None


@dataclass(frozen=True)
class Manifest:
    """Column declarations plus study-level preprocessing hints."""

    columns: tuple[ColumnMeta, ...]
    group_column: str
    differential_pairs: tuple[tuple[str, str], ...] = ()
    reference_group: str | None = None
    missing_values: tuple[str, ...] = DEFAULT_MISSING_SENTINELS

    def to_dict(self) -> dict:
        return {
            "columns": [
                {"name": c.name, "timing": c.timing, "kind": c.kind, "role": c.role}
                for c in self.columns
            ],
            "differential_pairs": [list(p) for p in self.differential_pairs],
            "reference_group": self.reference_group,
            "missing_values": list(self.missing_values),
        }


def auto_differential_pairs(columns: tuple[ColumnMeta, ...]) -> tuple[tuple[str, str], ...]:
    """Pair numeric features named ``<stem>_post`` / ``<stem>_pre``."""
    names = [c.name for c in columns if c.role == "feature" and c.kind == "numeric"]
    pairs = [(name, name[: -len("_post")] + "_pre") for name in names if name.endswith("_post")]
    return tuple(pair for pair in pairs if pair[1] in names)


def strict_dataclass(klass, doc: dict, where: str | None = None):
    """Build a dataclass from a JSON object, rejecting unknown and missing
    keys and values whose type differs from their field's. JSON lists become
    tuples, and a field typed as a dataclass, or a tuple of them, is built
    the same way from its nested object. A message names the ``Class.field``
    at fault; one about a nested object as a whole starts with ``where``,
    the field that holds it."""
    at = "" if where is None else f"{where}: "
    if not isinstance(doc, dict):
        raise ConfigError(f"{at}{klass.__name__}: expected a JSON object, got {type(doc).__name__}")
    fields = dataclasses.fields(klass)
    unknown = set(doc) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"{at}unknown {klass.__name__} keys: {sorted(unknown)}")
    missing = [
        f.name for f in fields
        if f.name not in doc and f.default is f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ConfigError(f"{at}missing {klass.__name__} keys: {missing}")
    hints = typing.get_type_hints(klass)
    return klass(
        **{name: _typed(f"{klass.__name__}.{name}", hints[name], v) for name, v in doc.items()}
    )


def _json_types(hint) -> tuple[type, ...]:
    """The Python types of the JSON values that the field type ``hint`` takes."""
    if typing.get_origin(hint) is tuple:
        return (list, tuple)
    if dataclasses.is_dataclass(hint):
        return (dict,)
    return (int, float) if hint is float else (hint,)


def _typed(where: str, hint, value):
    """``value`` checked against the field type ``hint``: an int field takes
    no float or bool, a float field takes an int within float range,
    ``tuple[...]`` takes a list, a dataclass takes its JSON object, and a
    union is the member that takes the value's type."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        options = [a for a in args if isinstance(value, _json_types(a))]
        options = options or [a for a in args if a is not type(None)]
        if len(options) > 1:
            names = " or ".join(_json_types(a)[0].__name__ for a in options)
            raise ConfigError(f"{where}: expected {names}, got {type(value).__name__}")
        return _typed(where, options[0], value)
    if dataclasses.is_dataclass(hint):
        return strict_dataclass(hint, value, where)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, _json_types(hint)):
            raise ConfigError(f"{where}: expected a list, got {type(value).__name__}")
        if args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(f"{where}: expected {len(args)} entries, got {len(value)}")
        return tuple(_typed(f"{where}[{i}]", a, v) for i, (a, v) in enumerate(zip(args, value)))
    if not isinstance(value, _json_types(hint)) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    if hint is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{where}: integer out of float range")
    return value


@dataclass(frozen=True)
class ManifestDoc:
    """A manifest file as written: the group column is one of ``columns``,
    and ``differential_pairs`` is ``"auto"`` or a list of [post, pre]
    pairs."""

    columns: tuple[ColumnMeta, ...]
    differential_pairs: str | tuple[tuple[str, str], ...] = ()
    reference_group: str | None = None
    missing_values: tuple[str, ...] = DEFAULT_MISSING_SENTINELS


def _unpairable(meta: ColumnMeta | None) -> str | None:
    """What keeps a manifest column out of a differential pair, if anything:
    a pair subtracts two numeric table columns that are not targets, and a
    categorical feature is one-hot encoded into columns of other names."""
    if meta is None:
        return "undeclared column"
    if meta.role in ("group", "target"):
        return f"the {meta.role} column"
    if meta.role == "feature" and meta.kind == "categorical":
        return "the categorical feature"
    return None


def parse_manifest(doc: dict) -> Manifest:
    spec = strict_dataclass(ManifestDoc, doc)
    metas = spec.columns
    names = [c.name for c in metas]
    if len(set(names)) != len(names):
        raise ConfigError("manifest declares duplicate column names")
    groups = [c for c in metas if c.role == "group"]
    if len(groups) != 1:
        raise ConfigError(f"manifest must declare exactly one group column, found {len(groups)}")
    if not any(c.role == "target" for c in metas):
        raise ConfigError("manifest must declare at least one target column")
    for c in metas:
        if c.role == "target" and c.kind != "numeric":
            raise ConfigError(f"target column {c.name!r} must be numeric")
    table_metas = tuple(c for c in metas if c.role != "group")

    pairs = spec.differential_pairs
    if isinstance(pairs, str):
        if pairs != "auto":
            raise ConfigError(
                f'ManifestDoc.differential_pairs: expected "auto" or a list of pairs, got {pairs!r}'
            )
        pairs = auto_differential_pairs(table_metas)
    by_name = {c.name: c for c in metas}
    for i, pair in enumerate(pairs):
        if pair in pairs[:i]:
            raise ConfigError(f"manifest differential pair {list(pair)} is listed twice")
        for name in pair:
            what = _unpairable(by_name.get(name))
            if what is not None:
                raise ConfigError(f"manifest differential pair {list(pair)} names {what} {name!r}")
    return Manifest(
        columns=table_metas,
        group_column=groups[0].name,
        differential_pairs=pairs,
        reference_group=spec.reference_group,
        missing_values=spec.missing_values,
    )


def load_manifest(path: str | Path) -> Manifest:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DataError(f"manifest {path}: not UTF-8 text ({exc.reason})") from None
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also an integer literal past Python's digit limit
        raise ConfigError(f"manifest {path}: invalid JSON ({exc})") from None
    return parse_manifest(doc)


# ---------------------------------------------------------------------------
# CSV loading
# ---------------------------------------------------------------------------


def load_csv(manifest: Manifest, data_path: str | Path) -> DatasetTable:
    """Read an RFC-4180 CSV against its parsed manifest.

    Empty cells and configured sentinels become missing-mask entries,
    categorical feature columns are one-hot encoded, a binary categorical
    stratifier becomes a 0/1 column, and the group column is mapped to dense
    integer ids in order of first appearance.
    """
    try:
        with open(data_path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = [row for row in reader]
    except UnicodeDecodeError as exc:
        raise DataError(f"{data_path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise DataError(f"{data_path}: malformed CSV ({exc})") from None
    if header is None:
        raise DataError(f"{data_path}: empty file")
    return table_from_rows(manifest, header, rows, source=str(data_path))


def csv_cell(text: str) -> str:
    """Minimal RFC-4180 quoting for every CSV the package writes: only a cell
    holding a comma, a quote or a line break is quoted, or one that starts
    with a byte-order mark, which the readers drop at the start of a file.
    Python's ``csv`` writer (before 3.12) leaves a bare carriage return
    unquoted under a "\\n" line terminator, which its own reader then splits
    on, so the rule is spelled out here."""
    if text.startswith("\ufeff") or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def table_from_rows(
    manifest: Manifest, header: list[str], rows: list[list[str]], source: str = "<data>"
) -> DatasetTable:
    declared = {c.name for c in manifest.columns} | {manifest.group_column}
    col_pos: dict[str, int] = {}
    for i, name in enumerate(header):
        if name not in declared:
            raise DataError(f"{source}: column {name!r} not declared in manifest")
        if name in col_pos:
            raise DataError(f"{source}: column {name!r} appears twice in the data header")
        col_pos[name] = i
    for name in declared:
        if name not in col_pos:
            raise DataError(f"{source}: manifest column {name!r} missing from data header")
    sentinels = set(manifest.missing_values)
    n = len(rows)

    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{source}: row {r + 2} has {len(row)} cells, expected {len(header)}")

    # group column first: dense ids in order of first appearance
    group_names: list[str] = []
    group_ids = np.zeros(n, dtype=np.int64)
    gpos = col_pos[manifest.group_column]
    for r, row in enumerate(rows):
        label = row[gpos].strip()
        if label in sentinels:
            raise DataError(f"{source}: row {r + 2}: missing group value")
        if label not in group_names:
            group_names.append(label)
        group_ids[r] = group_names.index(label)

    out_columns: list[ColumnMeta] = []
    out_values: list[np.ndarray] = []
    out_mask: list[np.ndarray] = []

    for meta in manifest.columns:
        pos = col_pos[meta.name]
        raw = [row[pos].strip() for row in rows]
        missing = np.array([cell in sentinels for cell in raw], dtype=bool)
        if meta.kind == "numeric":
            vals = np.full(n, np.nan)
            for r, cell in enumerate(raw):
                if missing[r]:
                    continue
                try:
                    vals[r] = float(cell)
                except ValueError:
                    raise DataError(
                        f"{source}: row {r + 2}, column {meta.name!r}: "
                        f"cannot parse {cell!r} as numeric"
                    ) from None
            bad = np.flatnonzero(~(missing | np.isfinite(vals)))
            if bad.size:
                raise DataError(
                    f"{source}: row {bad[0] + 2}, column {meta.name!r}: non-finite value "
                    f"{raw[bad[0]]!r} (list it in missing_values if it marks a missing cell)"
                )
            out_columns.append(meta)
            out_values.append(vals)
            out_mask.append(missing)
        else:  # categorical
            cats = sorted({cell for r, cell in enumerate(raw) if not missing[r]})
            if meta.role == "stratifier":
                if len(cats) != 2:
                    raise DataError(
                        f"{source}: stratifier {meta.name!r} must be binary, "
                        f"found {len(cats)} categories"
                    )
                vals = np.full(n, np.nan)
                for r, cell in enumerate(raw):
                    if not missing[r]:
                        vals[r] = float(cats.index(cell))
                out_columns.append(ColumnMeta(meta.name, meta.timing, "numeric", "stratifier"))
                out_values.append(vals)
                out_mask.append(missing)
            else:
                # one-hot encode a categorical feature
                for cat in cats:
                    vals = np.full(n, np.nan)
                    for r, cell in enumerate(raw):
                        if not missing[r]:
                            vals[r] = 1.0 if cell == cat else 0.0
                    out_columns.append(
                        ColumnMeta(f"{meta.name}={cat}", meta.timing, "numeric", meta.role)
                    )
                    out_values.append(vals)
                    out_mask.append(missing.copy())

    values = np.column_stack(out_values) if out_values else np.zeros((n, 0))
    mask = np.column_stack(out_mask) if out_mask else np.zeros((n, 0), dtype=bool)
    return DatasetTable(
        tuple(out_columns), values, mask, group_ids, tuple(group_names), manifest.group_column
    )


# ---------------------------------------------------------------------------
# Preprocessing operations
# ---------------------------------------------------------------------------


def drop_sparse_features(
    table: DatasetTable, threshold: float, train_mask: np.ndarray
) -> tuple[DatasetTable, tuple[str, ...]]:
    """Remove feature columns whose missing fraction on training rows
    exceeds ``threshold``; group, target, and stratifier columns are never
    removed.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ConfigError(f"missing threshold must lie in [0, 1], got {threshold}")
    rows = np.asarray(train_mask, dtype=bool)
    dropped = []
    for j, col in enumerate(table.columns):
        if col.role != "feature":
            continue
        frac = float(table.missing_mask[rows, j].mean()) if table.n_rows else 0.0
        if frac > threshold:
            dropped.append(col.name)
    if not dropped:
        return table, ()
    keep = [j for j, c in enumerate(table.columns) if c.name not in dropped]
    cols = tuple(table.columns[j] for j in keep)
    kept = table.replace_matrix(cols, table.values[:, keep], table.missing_mask[:, keep])
    return kept, tuple(dropped)


def impute_means(
    table: DatasetTable, train_row_mask: np.ndarray
) -> tuple[DatasetTable, dict[str, float]]:
    """Fill missing feature cells with the training-row means.

    Test-row gaps receive the training mean as well; target columns are left
    untouched. Errors out if a feature column has no observed training value
    (it should have been dropped as sparse).
    """
    train_row_mask = np.asarray(train_row_mask, dtype=bool)
    values = np.array(table.values)
    mask = np.array(table.missing_mask)
    means: dict[str, float] = {}
    for j, col in enumerate(table.columns):
        if col.role != "feature":
            continue
        gaps = mask[:, j]
        observed = ~gaps & train_row_mask
        if not observed.any():
            raise DataError(
                f"feature {col.name!r} has no observed training values; "
                "drop it before imputing"
            )
        means[col.name] = float(values[observed, j].mean())
        values[gaps, j] = means[col.name]
        mask[:, j] = False
    return table.replace_matrix(table.columns, values, mask), means


def two_sample_t_test(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sided p-value of Welch's unequal-variance t-test.

    Degenerate samples (zero variance in both) yield p = 1 with a warning,
    which keeps downstream feature screening conservative.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise DataError("t-test needs at least two observations per sample")
    va = a.var(ddof=1)
    vb = b.var(ddof=1)
    se2 = va / a.size + vb / b.size
    if se2 == 0.0:
        warnings.warn("t-test on zero-variance samples; returning p=1", stacklevel=2)
        return 1.0
    t = (a.mean() - b.mean()) / np.sqrt(se2)
    df = se2**2 / ((va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1))
    # Imported on use: scipy takes ~1 s to load and regression runs never call it.
    from scipy.special import stdtr

    return float(2.0 * stdtr(df, -abs(t)))


@dataclass(frozen=True)
class ResidualStats:
    """Per-column stratum means fitted on training rows."""

    stratifier: str
    columns: dict[str, tuple[tuple[float, float], tuple[float, float]]] = field(default_factory=dict)


def residualize(
    table: DatasetTable, stratifier_column: str, alpha: float, train_mask: np.ndarray
) -> tuple[DatasetTable, ResidualStats]:
    """Replace stratifier-sensitive features by within-stratum residuals.

    A feature qualifies when a Welch t-test between the two strata (training
    rows only) comes out below ``alpha``; its values then become
    ``value - mean(feature | same stratum, training rows)``.
    """
    train = np.asarray(train_mask, dtype=bool)
    s_vals, s_obs = table.column_values(stratifier_column)
    strata = np.unique(s_vals[s_obs & train])
    if strata.size != 2:
        raise DataError(
            f"stratifier {stratifier_column!r} must take exactly two values on "
            f"training rows, found {strata.size}"
        )
    values = np.array(table.values)
    stats: dict[str, tuple[tuple[float, float], tuple[float, float]]] = {}
    for j, col in enumerate(table.columns):
        if col.role != "feature" or col.name == stratifier_column:
            continue
        vals, obs = table.column_values(col.name)
        # rows with an unknown stratum keep their raw value
        sel0 = obs & s_obs & (s_vals == strata[0])
        sel1 = obs & s_obs & (s_vals == strata[1])
        in0, in1 = train & sel0, train & sel1
        if in0.sum() < 2 or in1.sum() < 2:
            continue
        if vals[in0].var(ddof=1) == 0.0 and vals[in1].var(ddof=1) == 0.0:
            continue  # degenerate t-test; never significant
        p = two_sample_t_test(vals[in0], vals[in1])
        if p < alpha:
            m0, m1 = float(vals[in0].mean()), float(vals[in1].mean())
            stats[col.name] = ((float(strata[0]), m0), (float(strata[1]), m1))
            values[sel0, j] = vals[sel0] - m0
            values[sel1, j] = vals[sel1] - m1
    rstats = ResidualStats(stratifier=stratifier_column, columns=stats)
    return table.replace_matrix(table.columns, values, table.missing_mask), rstats


def differential_features(
    table: DatasetTable, pairs: tuple[tuple[str, str], ...]
) -> DatasetTable:
    """Append post-minus-pre columns for repeated measurements.

    Each pair adds a post-timing feature ``<post>_minus_<pre>``; the result
    is missing wherever either member is. Target columns may not be paired.
    """
    if not pairs:
        return table
    new_cols = list(table.columns)
    add_vals = []
    add_mask = []
    for post_name, pre_name in pairs:
        for name in (post_name, pre_name):
            meta = table.columns[table.column_index(name)]
            if meta.role == "target":
                raise ConfigError(
                    f"differential pair ({post_name!r}, {pre_name!r}) touches target "
                    f"column {name!r}"
                )
        post_vals, post_obs = table.column_values(post_name)
        pre_vals, pre_obs = table.column_values(pre_name)
        diff = post_vals - pre_vals
        missing = ~(post_obs & pre_obs)
        diff = np.where(missing, np.nan, diff)
        new_cols.append(ColumnMeta(f"{post_name}_minus_{pre_name}", "post", "numeric", "feature"))
        add_vals.append(diff)
        add_mask.append(missing)
    values = np.column_stack([table.values] + add_vals)
    mask = np.column_stack([table.missing_mask] + add_mask)
    return table.replace_matrix(tuple(new_cols), values, mask)


@dataclass(frozen=True)
class ScaleStats:
    """Affine per-column transforms: scaled = (x - shift) / scale."""

    mode: str
    feature_affine: dict[str, tuple[float, float]] = field(default_factory=dict)
    target_affine: dict[str, tuple[float, float]] = field(default_factory=dict)
    reference_group: str | None = None
    skipped: tuple[str, ...] = ()


def fit_scaling(
    table: DatasetTable, train_mask: np.ndarray, mode: str, reference_group: str | None
) -> tuple[DatasetTable, ScaleStats]:
    """Fit affine scaling on training rows and apply it to every row;
    missing cells stay missing.

    ``normalize`` min-maxes features to [0, 1]; ``standardize`` centers and
    scales them; ``standardize_vs_reference_group`` additionally standardizes
    target columns with the reference group's training-row statistics.
    Zero-variance columns are left unscaled with a warning.
    """
    if mode not in SCALING_MODES:
        raise ConfigError(f"unknown scaling mode {mode!r}")
    if mode == "none":
        return table, ScaleStats(mode=mode)
    train = np.asarray(train_mask, dtype=bool)
    values = np.array(table.values)
    feature_affine: dict[str, tuple[float, float]] = {}
    target_affine: dict[str, tuple[float, float]] = {}
    skipped: list[str] = []
    for j, col in enumerate(table.columns):
        if col.role not in ("feature", "stratifier"):
            continue
        vals, obs = table.column_values(col.name)
        sel = obs & train
        if not sel.any():
            skipped.append(col.name)
            continue
        x = vals[sel]
        if mode == "normalize":
            shift, spread, what = float(x.min()), float(x.max()) - float(x.min()), "range"
        else:
            shift, spread, what = float(x.mean()), float(x.std()), "variance"
        if spread == 0.0:
            warnings.warn(f"column {col.name!r} has zero {what}; left unscaled", stacklevel=2)
            skipped.append(col.name)
            continue
        feature_affine[col.name] = (shift, spread)
        values[obs, j] = (vals[obs] - shift) / spread

    if mode == "standardize_vs_reference_group":
        if reference_group is None:
            raise ConfigError("standardize_vs_reference_group requires a reference group")
        ref_id = table.resolve_group(reference_group)
        ref_rows = (table.group_ids == ref_id) & train
        if not ref_rows.any():
            raise DataError(
                f"reference group {reference_group!r} has no training rows to fit on"
            )
        for j, col in enumerate(table.columns):
            if col.role != "target":
                continue
            vals, obs = table.column_values(col.name)
            sel = obs & ref_rows
            if sel.sum() < 2:
                raise DataError(
                    f"target {col.name!r}: reference group needs >=2 observed training values"
                )
            mu, sd = float(vals[sel].mean()), float(vals[sel].std())
            if sd == 0.0:
                warnings.warn(f"target {col.name!r} constant in reference group; left unscaled", stacklevel=2)
                skipped.append(col.name)
                continue
            target_affine[col.name] = (mu, sd)
            values[obs, j] = (vals[obs] - mu) / sd

    stats = ScaleStats(
        mode=mode,
        feature_affine=feature_affine,
        target_affine=target_affine,
        reference_group=reference_group,
        skipped=tuple(skipped),
    )
    return table.replace_matrix(table.columns, values, table.missing_mask), stats


def group_holdout_split(
    table: DatasetTable, held_out_group: str
) -> tuple[DatasetTable, DatasetTable]:
    """Partition rows into (train = other groups, test = held-out group)."""
    gid = table.resolve_group(held_out_group)
    test_rows = table.group_ids == gid
    if not test_rows.any():
        raise DataError(f"held-out group {table.group_names[gid]!r} has no rows")
    return table.take_rows(~test_rows), table.take_rows(test_rows)


# ---------------------------------------------------------------------------
# The fitted plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreprocessConfig:
    missing_threshold: float = 0.5
    scaling: str = "standardize"
    reference_group: str | None = None
    residual_alpha: float = 0.05

    def __post_init__(self) -> None:
        if not (0.0 <= self.missing_threshold <= 1.0):
            raise ConfigError("missing_threshold must lie in [0, 1]")
        if self.scaling not in SCALING_MODES:
            raise ConfigError(f"unknown scaling mode {self.scaling!r}")


@dataclass(frozen=True)
class PreprocessPlan:
    """What preprocessing fitted, as a serializable record.

    Fit statistics derive only from training rows.
    """

    config: PreprocessConfig
    differential_pairs: tuple[tuple[str, str], ...]
    dropped_columns: tuple[str, ...]
    residual_stats: ResidualStats | None
    imputation_means: dict[str, float]
    scale_stats: ScaleStats

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def fit_preprocess(
    table: DatasetTable,
    train_row_mask: np.ndarray,
    config: PreprocessConfig,
    differential_pairs: tuple[tuple[str, str], ...],
) -> tuple[PreprocessPlan, DatasetTable]:
    """Fit the full pipeline on training rows and apply it to every row.

    Order: differential features -> sparse-feature removal -> residual
    features -> mean imputation -> scaling. Returns the serializable plan
    and the processed table.
    """
    train = np.asarray(train_row_mask, dtype=bool)
    t = differential_features(table, differential_pairs)
    t, dropped = drop_sparse_features(t, config.missing_threshold, train)
    rstats = None
    stratifiers = t.columns_with(role="stratifier")
    if stratifiers:
        t, rstats = residualize(t, stratifiers[0].name, config.residual_alpha, train)
    t, means = impute_means(t, train)
    t, sstats = fit_scaling(t, train, config.scaling, config.reference_group)
    plan = PreprocessPlan(
        config=config,
        differential_pairs=differential_pairs,
        dropped_columns=dropped,
        residual_stats=rstats,
        imputation_means=means,
        scale_stats=sstats,
    )
    return plan, t


# ---------------------------------------------------------------------------
# Model-facing views
# ---------------------------------------------------------------------------


def model_input_columns(table: DatasetTable) -> list[str]:
    """Feature columns observed before or during treatment, in table order."""
    return [c.name for c in table.columns if c.role == "feature" and c.timing in ("pre", "during")]


def model_inputs(table: DatasetTable) -> np.ndarray:
    """The (rows x input features) matrix fed to models."""
    names = model_input_columns(table)
    if not names:
        raise DataError("table has no pre/during feature columns to use as inputs")
    idx = [table.column_index(n) for n in names]
    x = np.array(table.values[:, idx])
    if table.missing_mask[:, idx].any():
        raise DataError("model inputs contain missing values; impute before modeling")
    return x


@dataclass(frozen=True)
class TaskData:
    """One task's training slice: inputs, group ids, labels, source rows."""

    x: np.ndarray
    group_ids: np.ndarray
    y: np.ndarray
    row_indices: np.ndarray

    def __post_init__(self) -> None:
        if not (len(self.x) == len(self.group_ids) == len(self.y) == len(self.row_indices)):
            raise ShapeError("task data arrays must share their first dimension")


def binarize_labels(y: np.ndarray) -> np.ndarray:
    """Positive class is a strict increase: y > 0 maps to 1, ties at 0 to 0.

    Labels are binarized after preprocessing, so under
    ``standardize_vs_reference_group`` scaling, which standardizes targets
    against the reference group's training rows, the positive class is a
    raw target above the reference group's training mean (a target constant
    in the reference group is left unscaled and keeps the raw y > 0).
    """
    return (np.asarray(y, dtype=np.float64) > 0.0).astype(np.float64)


def task_dataset(table: DatasetTable, column: str, kind: str) -> TaskData:
    """Rows with an observed label for one task, as model-ready arrays."""
    if kind not in ("regression", "classification"):
        raise ConfigError(f"unknown task kind {kind!r}")
    vals, obs = table.column_values(column)
    rows = np.flatnonzero(obs)
    if rows.size == 0:
        raise DataError(f"task column {column!r} has no observed values")
    x = model_inputs(table)[rows]
    y = vals[rows]
    if kind == "classification":
        y = binarize_labels(y)
    return TaskData(x, table.group_ids[rows], y, rows)


def withhold_targets(table: DatasetTable) -> DatasetTable:
    """Mask every target cell; the zero-shot firewall for held-out rows."""
    values = np.array(table.values)
    mask = np.array(table.missing_mask)
    for j, col in enumerate(table.columns):
        if col.role == "target":
            values[:, j] = np.nan
            mask[:, j] = True
    return table.replace_matrix(table.columns, values, mask)


def targets_withheld(table: DatasetTable) -> bool:
    for j, col in enumerate(table.columns):
        if col.role == "target" and not table.missing_mask[:, j].all():
            return False
    return True
