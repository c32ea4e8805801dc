"""Instance store, balanced per-user dataset assembly, and stratified CV splits.

A user's dataset pairs their own segments (genuine) with an equal number of
segments sampled without replacement from every other subject (impostor).
Sampling is order-independent: the pool is sorted canonically before the
seeded draw, so ingestion order never changes the result.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ContaminationError,
    InsufficientPoolError,
    ParseError,
    SplitError,
    ValidationError,
)
from .features import FEATURE_NAMES, N_FEATURES

LABEL_GENUINE = "genuine"
LABEL_IMPOSTOR = "impostor"
LABEL_UNLABELED = "unlabeled"
_LABELS = (LABEL_GENUINE, LABEL_IMPOSTOR, LABEL_UNLABELED)

FEATURES_HEADER = ("subject", "segment_index", "label") + FEATURE_NAMES


@dataclass(frozen=True)
class Instance:
    """One labeled feature vector traced back to its source segment."""

    features: np.ndarray
    label: str
    source_subject: str
    segment_index: int

    def __post_init__(self):
        values = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", values)
        if values.shape != (N_FEATURES,):
            raise ValidationError(f"feature vector must have {N_FEATURES} values")
        if not np.isfinite(values).all():
            raise ValidationError("feature vector contains non-finite values")
        if (values < 0).any():
            bad = FEATURE_NAMES[int(np.argmin(values))]
            raise ValidationError(f"negative band power in feature {bad}")
        if self.label not in _LABELS:
            raise ValidationError(f"unknown label {self.label!r}")


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
            raise ContaminationError("impostor instance owned by dataset owner")
        keys = set(zip(subjects[impostor].tolist(), segment_index[impostor].tolist()))
        if len(keys) != n_impostor:
            raise ValidationError("duplicate impostor instance")


@dataclass(frozen=True)
class CvSplit:
    """k folds of instance indices; folds partition the dataset."""

    folds: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "folds",
                           tuple(np.asarray(f, dtype=int) for f in self.folds))

    @property
    def k(self) -> int:
        return len(self.folds)


def assemble_user_dataset(owner: str, own_instances, pool, seed: int) -> UserDataset:
    """Balanced dataset: the owner's instances plus an equal-size impostor draw.

    The impostor sample is uniform without replacement from the pool after
    canonical (subject, segment_index) ordering, so the same seed yields the
    same dataset regardless of pool ordering.
    """
    own = list(own_instances)
    if not own:
        raise ValidationError("owner has no instances")
    for inst in own:
        if inst.source_subject != owner:
            raise ValidationError(
                f"own instance sourced from {inst.source_subject}, not {owner}"
            )
    pool = list(pool)
    for inst in pool:
        if inst.source_subject == owner:
            raise ContaminationError(f"pool contains instances of {owner}")
    n = len(own)
    if len(pool) < n:
        raise InsufficientPoolError(f"pool has {len(pool)} instances, need {n}")
    pool.sort(key=lambda i: (i.source_subject, i.segment_index))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n, replace=False)
    rows = own + [pool[int(j)] for j in sorted(chosen)]
    return UserDataset(owner,
                       np.stack([i.features for i in rows]),
                       np.repeat([1.0, 0.0], n),
                       [i.source_subject for i in rows],
                       [i.segment_index for i in rows])


def dataset_manifest(ds: UserDataset, seed: int) -> dict:
    """Audit record of an assembled dataset: owner, seed, impostor provenance."""
    sources = sorted(set(ds.subjects[ds.y == 0.0].tolist()))
    return {"owner": ds.owner, "seed": int(seed), "impostor_sources": sources}


def stratified_kfold(ds: UserDataset, k: int, seed: int) -> CvSplit:
    """Seeded stratified folds with per-fold class counts within +-1."""
    counts = [int((ds.y == value).sum()) for value in (1.0, 0.0)]
    if k < 2 or k > min(counts):
        raise SplitError(f"k={k} invalid for class counts {counts}")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for value in (1.0, 0.0):
        idx = np.flatnonzero(ds.y == value)
        rng.shuffle(idx)
        for fi, chunk in enumerate(np.array_split(idx, k)):
            folds[fi].extend(chunk.tolist())
    return CvSplit(tuple(np.sort(np.asarray(f)) for f in folds))


# --- feature CSV I/O ----------------------------------------------------------

def save_features_csv(instances, path) -> None:
    """Lossless feature CSV (17 significant digits per value)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for inst in instances:
            writer.writerow(
                [inst.source_subject, inst.segment_index, inst.label]
                + [f"{v:.17g}" for v in inst.features]
            )


def load_features_csv(path) -> list[Instance]:
    path = Path(path)
    instances = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        if tuple(header) != FEATURES_HEADER:
            missing = [c for c in FEATURES_HEADER if c not in header]
            if missing:
                raise ParseError(f"{path}: header missing column {missing[0]}")
            raise ParseError(f"{path}: unexpected header {','.join(header)}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(FEATURES_HEADER):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(FEATURES_HEADER)} fields, got {len(row)}"
                )
            try:
                values = np.array([float(v) for v in row[3:]], dtype=float)
                instance = Instance(values, row[2], row[0], int(row[1]))
            except (ValueError, ValidationError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            instances.append(instance)
    return instances
