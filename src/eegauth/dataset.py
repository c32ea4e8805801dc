"""Feature tables, balanced per-user dataset assembly, and stratified CV splits.

A feature CSV is read into a `FeatureTable`: one array per column, every row
checked.  A user's dataset pairs their own segments (genuine) with an equal
number of segments sampled without replacement from every other subject
(impostor).  Sampling is order-independent: the pool is sorted canonically
before the seeded draw, so ingestion order never changes the result.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .features import FEATURE_NAMES, N_FEATURES

FEATURES_HEADER = ("subject", "segment_index") + FEATURE_NAMES


@dataclass(frozen=True)
class Instance:
    """One feature vector traced back to its source segment."""

    features: np.ndarray
    source_subject: str
    segment_index: int

    def __post_init__(self):
        values = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", values)
        if values.shape != (N_FEATURES,):
            raise ValidationError(f"feature vector must have {N_FEATURES} values")
        _check_band_powers(values, "feature vector")


def check_feature_rows(values, what: str) -> np.ndarray:
    """`values` as an (n, 15) float64 array of finite, non-negative band
    powers, or ValidationError naming the input `what` (and, for a negative
    value, its feature).  Every entry point that takes feature rows checks
    them here."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2 or values.shape[1] != N_FEATURES:
        raise ValidationError(f"{what} must be rows of {N_FEATURES} features")
    _check_band_powers(values, what)
    return values


def _check_band_powers(values: np.ndarray, what: str) -> None:
    """Every value finite and non-negative; a negative one is reported by the
    feature (column) of the smallest value."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what}: non-finite feature value")
    if (values < 0).any():
        bad = FEATURE_NAMES[np.unravel_index(np.argmin(values), values.shape)[-1]]
        raise ValidationError(f"{what}: negative band power in feature {bad}")


@dataclass(frozen=True)
class FeatureTable:
    """Feature vectors as column arrays: each row's source `subjects` and
    `segment_index`, and its features `X` (n x 15), checked as `Instance`
    checks one row."""

    subjects: np.ndarray
    segment_index: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        for name, dtype in (("subjects", str), ("segment_index", np.int64), ("X", float)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = len(self.subjects)
        if self.subjects.shape != (n,) or self.segment_index.shape != (n,) \
                or self.X.shape != (n, N_FEATURES):
            raise ValidationError(f"feature table arrays must hold {n} rows of "
                                  f"{N_FEATURES} features")
        _check_band_powers(self.X, "feature table")

    @classmethod
    def for_subject(cls, subject: str, X) -> FeatureTable:
        """Rows X of one subject, numbered 0..n-1."""
        n = len(X)
        return cls(np.full(n, subject), np.arange(n), X)

    @classmethod
    def from_instances(cls, instances) -> FeatureTable:
        """The Instance rows as one table, in order."""
        instances = list(instances)
        return cls([i.source_subject for i in instances],
                   [i.segment_index for i in instances],
                   np.reshape([i.features for i in instances], (len(instances), N_FEATURES)))

    def __len__(self) -> int:
        return len(self.subjects)

    def rows(self, which) -> FeatureTable:
        """The rows a boolean mask or an index array selects."""
        return FeatureTable(self.subjects[which], self.segment_index[which], self.X[which])

    @staticmethod
    def concatenate(tables) -> FeatureTable:
        """The rows of every table, in order."""
        tables = list(tables)
        if not tables:
            return FeatureTable((), (), np.empty((0, N_FEATURES)))
        return FeatureTable(*(np.concatenate([getattr(t, name) for t in tables])
                              for name in ("subjects", "segment_index", "X")))


@dataclass(frozen=True)
class UserDataset:
    """One user's balanced dataset as row arrays: features `X` (n x 15), `y`
    1.0 for genuine and 0.0 for impostor rows, and each row's source
    `subjects` and `segment_index`."""

    owner: str
    X: np.ndarray
    y: np.ndarray
    subjects: np.ndarray
    segment_index: np.ndarray

    def __post_init__(self):
        for name, dtype in (("X", float), ("y", float), ("subjects", str),
                            ("segment_index", int)):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        y, subjects, segment_index = self.y, self.subjects, self.segment_index
        n = len(y)
        if self.X.shape != (n, N_FEATURES) or subjects.shape != (n,) \
                or segment_index.shape != (n,):
            raise ValidationError(f"dataset arrays must hold {n} rows of "
                                  f"{N_FEATURES} features")
        genuine, impostor = y == 1.0, y == 0.0
        if not (genuine | impostor).all():
            raise ValidationError("dataset instances must be genuine or impostor")
        n_genuine, n_impostor = int(genuine.sum()), int(impostor.sum())
        if n_genuine != n_impostor:
            raise ValidationError(
                f"class counts differ: {n_genuine} genuine, {n_impostor} impostor"
            )
        if (subjects[genuine] != self.owner).any():
            raise ValidationError("genuine instance not owned by dataset owner")
        if (subjects[impostor] == self.owner).any():
            raise ValidationError("impostor instance owned by dataset owner")
        keys = set(zip(subjects[impostor].tolist(), segment_index[impostor].tolist()))
        if len(keys) != n_impostor:
            raise ValidationError("duplicate impostor instance")


def assemble_user_dataset(owner: str, own_X, pool: FeatureTable, seed: int) -> UserDataset:
    """Balanced dataset: the owner's rows `own_X` (segment_index 0..n-1 in the
    order given) plus an equal-size impostor draw from `pool`.

    The impostor sample is uniform without replacement from the pool after a
    stable canonical (subject, segment_index) ordering, so the same seed
    yields the same dataset regardless of pool ordering.
    """
    own_X = check_feature_rows(own_X, "own_X")
    n = len(own_X)
    if not n:
        raise ValidationError("owner has no instances")
    if (pool.subjects == owner).any():
        raise ValidationError(f"pool contains instances of {owner}")
    if len(pool) < n:
        raise ValidationError(f"pool has {len(pool)} instances, need {n}")
    canonical = np.lexsort((pool.segment_index, pool.subjects))
    rng = np.random.default_rng(seed)
    chosen = canonical[np.sort(rng.choice(len(pool), size=n, replace=False))]
    return UserDataset(owner,
                       np.concatenate([own_X, pool.X[chosen]]),
                       np.repeat([1.0, 0.0], n),
                       np.concatenate([np.full(n, owner), pool.subjects[chosen]]),
                       np.concatenate([np.arange(n), pool.segment_index[chosen]]))


def dataset_manifest(ds: UserDataset, seed: int) -> dict:
    """Audit record of an assembled dataset: owner, seed, impostor provenance."""
    sources = sorted(set(ds.subjects[ds.y == 0.0].tolist()))
    return {"owner": ds.owner, "seed": int(seed), "impostor_sources": sources}


def stratified_kfold(ds: UserDataset, k: int, seed: int) -> tuple[np.ndarray, ...]:
    """Seeded stratified folds, k sorted index arrays that partition the
    dataset, with per-fold class counts within +-1."""
    counts = [int((ds.y == value).sum()) for value in (1.0, 0.0)]
    if k < 2 or k > min(counts):
        raise ValidationError(f"k={k} invalid for class counts {counts}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for value in (1.0, 0.0):
        idx = np.flatnonzero(ds.y == value)
        rng.shuffle(idx)
        for fi, chunk in enumerate(np.array_split(idx, k)):
            folds[fi].extend(chunk.tolist())
    return tuple(np.sort(np.asarray(f)) for f in folds)


# --- feature CSV I/O ----------------------------------------------------------

def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it as one field of a longer row (a row of
    one empty field would read `""`)."""
    out = io.StringIO()
    csv.writer(out).writerow((text, ""))
    return out.getvalue()[:-len(",\r\n")]


def feature_csv_rows(table: FeatureTable) -> str:
    """The rows of `table` as a lossless feature CSV holds them (17
    significant digits per value), header aside.

    The bytes are csv.writer's, formatted in one pass: each distinct subject
    is quoted once, and every row goes through one `%`."""
    n = len(table)
    cells = np.empty((n, 2 + N_FEATURES), dtype=object)
    subjects = table.subjects.tolist()
    quoted = {text: _csv_field(text) for text in set(subjects)}
    cells[:, 0] = [quoted[text] for text in subjects]
    cells[:, 1] = table.segment_index.tolist()
    cells[:, 2:] = table.X
    row = "%s,%d" + ",%.17g" * N_FEATURES + "\r\n"
    return (row * n) % tuple(cells.ravel().tolist())


def write_feature_rows(rows, path) -> None:
    """A feature CSV of the header and then each text of `rows`, in order,
    as `feature_csv_rows` formats them."""
    with open(Path(path), "w", newline="") as fh:
        fh.write(",".join(FEATURES_HEADER) + "\r\n")
        fh.writelines(rows)


def write_feature_table(table: FeatureTable, path) -> None:
    """Lossless feature CSV of `table`."""
    write_feature_rows([feature_csv_rows(table)], path)


def save_features_csv(instances, path) -> None:
    """`write_feature_table` of Instance rows."""
    write_feature_table(FeatureTable.from_instances(instances), path)


def read_feature_table(path) -> FeatureTable:
    """Parse a feature CSV, checking every row: 17 fields, an integer
    segment index, finite, non-negative features, and a (subject,
    segment_index) key no earlier row has.  The first bad row raises
    ValidationError naming path:line."""
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValidationError(f"{path}: empty file")
        if tuple(header) != FEATURES_HEADER:
            missing = [c for c in FEATURES_HEADER if c not in header]
            if missing:
                raise ValidationError(f"{path}: header missing column {missing[0]}")
            raise ValidationError(f"{path}: unexpected header {','.join(header)}")
        rows = list(reader)
    try:
        if any(len(row) != len(FEATURES_HEADER) for row in rows):
            raise ValueError("rows of unequal length")
        table = FeatureTable([row[0] for row in rows], [int(row[1]) for row in rows],
                             np.array([row[2:] for row in rows], dtype=float)
                             .reshape(len(rows), N_FEATURES))
    except (ValueError, OverflowError, ValidationError) as exc:
        raise _first_bad_row(path, rows, exc) from exc
    first = {}
    for lineno, key in enumerate(zip(table.subjects.tolist(), table.segment_index.tolist()), 2):
        if first.setdefault(key, lineno) != lineno:
            raise ValidationError(f"{path}:{lineno}: subject {key[0]} segment_index "
                                  f"{key[1]} repeats line {first[key]}")
    return table


def _first_bad_row(path: Path, rows, table_error: Exception) -> ValidationError:
    """The error of the first row that fails a check, found row by row."""
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(FEATURES_HEADER):
            return ValidationError(
                f"{path}:{lineno}: expected {len(FEATURES_HEADER)} fields, got {len(row)}")
        try:
            values = np.array([float(v) for v in row[2:]])
            np.int64(int(row[1]))
            _check_band_powers(values, "feature vector")
        except (ValueError, OverflowError, ValidationError) as exc:
            return ValidationError(f"{path}:{lineno}: {exc}")
    return ValidationError(f"{path}: {table_error}")


def load_features_csv(path) -> list[Instance]:
    """`read_feature_table` as one Instance per row."""
    table = read_feature_table(path)
    return [Instance(values, subject, index)
            for subject, index, values in zip(
                table.subjects.tolist(), table.segment_index.tolist(), table.X)]
