"""Time-budgeted combined algorithm + hyperparameter selection.

The search scores seeded configuration draws by stratified k-fold CV accuracy:
first one default configuration per algorithm, then random draws.  No new
evaluation starts after the wall-clock deadline, and a running evaluation
aborts between folds once the deadline passes, so total time never exceeds
the budget plus a fraction of one evaluation.  The best configuration is
retrained on the full dataset and returned with its CV score attached; its
held-out predictions stay on the search trace.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import classifiers
from .dataset import CvSplit, UserDataset, stratified_kfold
from .errors import DeadlineExceededError, NoModelError, TrainingError, ValidationError

DEFAULT_BUDGET_S = 60.0
DEFAULT_FOLDS = 10


@dataclass(frozen=True)
class SearchBudget:
    wall_clock_s: float = DEFAULT_BUDGET_S
    max_evaluations: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.wall_clock_s <= 0:
            raise ValidationError("wall_clock_s must be positive")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValidationError("max_evaluations must be >= 1 when set")


@dataclass(frozen=True)
class TraceEntry:
    index: int
    algorithm: str
    params: dict
    cv_accuracy: float
    elapsed_s: float


@dataclass(frozen=True)
class SearchTrace:
    """Every evaluation of a search, plus the chosen entry's held-out
    predictions (one per dataset row, 1.0 = genuine; not written to CSV)."""

    entries: tuple[TraceEntry, ...] = field(default=())
    chosen_index: int = -1
    predictions: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def best(self) -> TraceEntry:
        return self.entries[self.chosen_index]

    def write_csv(self, path) -> None:
        path = Path(path)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("eval_index", "algorithm", "params_json",
                             "cv_accuracy", "elapsed_s"))
            for e in self.entries:
                writer.writerow((e.index, e.algorithm,
                                 json.dumps(e.params, sort_keys=True),
                                 f"{e.cv_accuracy:.17g}", f"{e.elapsed_s:.6f}"))


def cross_val_predict(ds: UserDataset, algorithm: str, params: dict, split: CvSplit,
                      seed: int, deadline: Optional[float] = None) -> np.ndarray:
    """Pooled held-out predictions, one per row in dataset order (1.0 = genuine).

    Deterministic given the seed.  Raises DeadlineExceededError if the
    wall-clock deadline passes before all folds complete; training failures
    propagate to the caller.
    """
    predicted = np.zeros(len(ds.y))
    for test_idx in split.folds:
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceededError("budget exhausted mid-evaluation")
        train_mask = np.ones(len(ds.y), dtype=bool)
        train_mask[test_idx] = False
        model = classifiers.train(algorithm, params, ds.X[train_mask],
                                  ds.y[train_mask], seed)
        predicted[test_idx] = classifiers.predict_labels(model, ds.X[test_idx])
    return predicted


def evaluate_config(ds: UserDataset, algorithm: str, params: dict, split: CvSplit,
                    seed: int, deadline: Optional[float] = None) -> tuple[float, np.ndarray]:
    """Held-out accuracy of one configuration and the predictions it counts."""
    predicted = cross_val_predict(ds, algorithm, params, split, seed, deadline)
    return int(np.count_nonzero(predicted == ds.y)) / len(ds.y), predicted


def _config_stream(rng: np.random.Generator):
    for algorithm in classifiers.ALGORITHMS:
        yield algorithm, classifiers.default_params(algorithm)
    while True:
        algorithm = classifiers.ALGORITHMS[int(rng.integers(len(classifiers.ALGORITHMS)))]
        yield algorithm, classifiers.sample_params(algorithm, rng)


def select_model(ds: UserDataset, budget: SearchBudget,
                 k_folds: int = DEFAULT_FOLDS) -> tuple[classifiers.TrainedModel, SearchTrace]:
    """Search under the budget and return the best model plus the audit trace."""
    start = time.perf_counter()
    deadline = start + budget.wall_clock_s
    split = stratified_kfold(ds, k_folds, budget.seed)
    rng = np.random.default_rng(budget.seed)
    entries: list[TraceEntry] = []
    chosen, predictions = None, None
    for algorithm, params in _config_stream(rng):
        if budget.max_evaluations is not None and len(entries) >= budget.max_evaluations:
            break
        if time.perf_counter() >= deadline:
            break
        try:
            accuracy, predicted = evaluate_config(ds, algorithm, params, split,
                                                  budget.seed, deadline=deadline)
        except DeadlineExceededError:
            break
        except TrainingError:
            accuracy = -math.inf  # keep searching past failing configurations
        entries.append(TraceEntry(len(entries), algorithm, params,
                                  accuracy, time.perf_counter() - start))
        # strictly better only, so ties keep the earliest entry
        if math.isfinite(accuracy) and (chosen is None
                                        or accuracy > entries[chosen].cv_accuracy):
            chosen, predictions = len(entries) - 1, predicted
    if chosen is None:
        raise NoModelError(
            "budget expired before any configuration was evaluated; retry with "
            "a larger budget"
        )
    trace = SearchTrace(tuple(entries), chosen, predictions)
    best = trace.best()
    model = classifiers.train(best.algorithm, best.params, ds.X, ds.y, budget.seed)
    return classifiers.with_cv_accuracy(model, best.cv_accuracy), trace
