"""Time-budgeted combined algorithm + hyperparameter selection.

The search scores seeded configuration draws by stratified k-fold CV accuracy:
first one default configuration per algorithm, then random draws.  Ties keep
the earliest entry, so an evaluation whose held-out errors reach the
incumbent's total can no longer be chosen: its folds stop there, between two
folds, and its trace row records the folds run, the errors counted and the
upper bound 1 - errors/n as its accuracy.  The winner, its held-out
predictions and the refit model are those of a search that runs every fold.
Once the incumbent has no error at all, no later configuration runs a fold;
a search without an evaluation cap ends there.  No new evaluation starts
after the wall-clock deadline, and a running evaluation aborts between folds
once the deadline passes, so total time never exceeds the budget plus a
fraction of one evaluation.  `search` returns the trace, which holds the
best configuration's held-out predictions; `select_model` also retrains that
configuration on the full dataset and returns it with its CV score attached.
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
from .dataset import UserDataset, stratified_kfold
from .defaults import DEFAULT_BUDGET_S, DEFAULT_FOLDS
from .errors import DeadlineExceededError, NoModelError, TrainingError, ValidationError

CANNOT_BEAT_BEST = "cannot_beat_best"
TRAINING_ERROR = "training_error"


@dataclass(frozen=True)
class SearchBudget:
    wall_clock_s: float = DEFAULT_BUDGET_S
    max_evaluations: Optional[int] = None

    def __post_init__(self):
        # a search under a NaN or infinite deadline would never stop
        if not math.isfinite(self.wall_clock_s):
            raise ValidationError(f"wall_clock_s must be finite, got {self.wall_clock_s}")
        if self.wall_clock_s <= 0:
            raise ValidationError("wall_clock_s must be positive")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValidationError("max_evaluations must be >= 1 when set")


@dataclass(frozen=True)
class TraceEntry:
    """One evaluation.  `folds_run` and `errors` count the folds its
    `cv_accuracy` is computed from; a training_error row keeps none of them
    (both 0, accuracy -inf).  `fit_s` and `score_s` are the seconds spent
    fitting and scoring, summed over the folds run (for a training_error
    row, the folds before the failing fit)."""

    index: int
    algorithm: str
    params: dict
    cv_accuracy: float
    elapsed_s: float
    folds_run: int
    errors: int
    stop_reason: str  # "", CANNOT_BEAT_BEST or TRAINING_ERROR
    fit_s: float
    score_s: float


@dataclass
class FoldTally:
    """Folds run, held-out errors and fit and scoring seconds, fold by fold."""

    folds_run: int = 0
    errors: int = 0
    fit_s: float = 0.0
    score_s: float = 0.0


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
                             "cv_accuracy", "elapsed_s",
                             "folds_run", "errors", "stop_reason",
                             "fit_s", "score_s"))
            for e in self.entries:
                writer.writerow((e.index, e.algorithm,
                                 json.dumps(e.params, sort_keys=True),
                                 f"{e.cv_accuracy:.17g}", f"{e.elapsed_s:.6f}",
                                 e.folds_run, e.errors, e.stop_reason,
                                 f"{e.fit_s:.6f}", f"{e.score_s:.6f}"))


def _held_out_errors(predicted: np.ndarray, y: np.ndarray) -> int:
    """Rows predicted wrongly."""
    return int(np.count_nonzero(predicted != y))


def cross_val_predict(ds: UserDataset, algorithm: str, params: dict,
                      folds: tuple[np.ndarray, ...], seed: int,
                      deadline: Optional[float] = None,
                      best_errors: Optional[int] = None,
                      tally: Optional[FoldTally] = None) -> np.ndarray:
    """Pooled held-out predictions, one per row in dataset order (1.0 = genuine).

    Deterministic given the seed.  Given the incumbent's total held-out
    errors, the folds stop as soon as this run's errors reach them, before
    the next fold: the run can then at best tie, and a tie keeps the
    incumbent.  The rows of the folds not run are NaN.  Raises
    DeadlineExceededError if the wall-clock deadline passes before the folds
    complete; training failures propagate to the caller.  Each fold run adds
    to `tally`, which a caller passes empty and may read after a failure too.
    """
    tally = FoldTally() if tally is None else tally
    predicted = np.full(len(ds.y), np.nan)
    for test_idx in folds:
        if best_errors is not None and tally.errors >= best_errors:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            raise DeadlineExceededError("budget exhausted mid-evaluation")
        train_mask = np.ones(len(ds.y), dtype=bool)
        train_mask[test_idx] = False
        started = time.perf_counter()
        model = classifiers.train(algorithm, params, ds.X[train_mask],
                                  ds.y[train_mask], seed)
        fitted = time.perf_counter()
        predicted[test_idx] = classifiers.predict_labels(model, ds.X[test_idx])
        tally.fit_s += fitted - started
        tally.score_s += time.perf_counter() - fitted
        tally.folds_run += 1
        tally.errors += _held_out_errors(predicted[test_idx], ds.y[test_idx])
    return predicted


def evaluate_config(ds: UserDataset, algorithm: str, params: dict,
                    folds: tuple[np.ndarray, ...], seed: int,
                    deadline: Optional[float] = None,
                    best_errors: Optional[int] = None,
                    tally: Optional[FoldTally] = None) -> tuple[float, np.ndarray]:
    """Held-out accuracy of one configuration and the predictions it counts.

    A run stopped by `best_errors` scores its upper bound: every row it did
    not predict counts as right.
    """
    tally = FoldTally() if tally is None else tally
    predicted = cross_val_predict(ds, algorithm, params, folds, seed, deadline,
                                  best_errors, tally)
    n = len(ds.y)
    return (n - tally.errors) / n, predicted


def _config_stream(rng: np.random.Generator):
    for algorithm in classifiers.ALGORITHMS:
        yield algorithm, classifiers.default_params(algorithm)
    while True:
        algorithm = classifiers.ALGORITHMS[int(rng.integers(len(classifiers.ALGORITHMS)))]
        yield algorithm, classifiers.sample_params(algorithm, rng)


def search(ds: UserDataset, budget: SearchBudget, k_folds: int = DEFAULT_FOLDS,
           *, seed: int) -> SearchTrace:
    """Search under the budget and return the audit trace, whose chosen entry
    is the best configuration; NoModelError when none was evaluated.  `seed`
    draws the folds and the configuration stream and seeds every fit."""
    start = time.perf_counter()
    deadline = start + budget.wall_clock_s
    folds = stratified_kfold(ds, k_folds, seed)
    rng = np.random.default_rng(seed)
    entries: list[TraceEntry] = []
    chosen, predictions = None, None
    for algorithm, params in _config_stream(rng):
        if budget.max_evaluations is not None and len(entries) >= budget.max_evaluations:
            break
        if time.perf_counter() >= deadline:
            break
        best_errors = None if chosen is None else entries[chosen].errors
        if best_errors == 0 and budget.max_evaluations is None:
            break  # nothing can beat a perfect incumbent; the stream is endless
        tally = FoldTally()
        try:
            accuracy, predicted = evaluate_config(ds, algorithm, params, folds, seed,
                                                  deadline=deadline,
                                                  best_errors=best_errors, tally=tally)
        except DeadlineExceededError:
            break
        except TrainingError:
            # keep searching past failing configurations
            entries.append(TraceEntry(len(entries), algorithm, params, -math.inf,
                                      time.perf_counter() - start, 0, 0,
                                      TRAINING_ERROR, tally.fit_s, tally.score_s))
            continue
        entries.append(TraceEntry(
            len(entries), algorithm, params, accuracy, time.perf_counter() - start,
            tally.folds_run, tally.errors,
            "" if tally.folds_run == len(folds) else CANNOT_BEAT_BEST,
            tally.fit_s, tally.score_s))
        # strictly better only, so ties keep the earliest entry
        if chosen is None or accuracy > entries[chosen].cv_accuracy:
            chosen, predictions = len(entries) - 1, predicted
    if chosen is None:
        raise NoModelError(
            "budget expired before any configuration was evaluated; retry with "
            "a larger budget"
        )
    return SearchTrace(tuple(entries), chosen, predictions)


def select_model(ds: UserDataset, budget: SearchBudget, k_folds: int = DEFAULT_FOLDS,
                 *, seed: int) -> tuple[classifiers.TrainedModel, SearchTrace]:
    """search, then the best configuration refit on every row of `ds` with
    `seed`: the model, its CV score attached, and the trace."""
    trace = search(ds, budget, k_folds, seed=seed)
    best = trace.best()
    model = classifiers.train(best.algorithm, best.params, ds.X, ds.y, seed)
    return classifiers.with_cv_accuracy(model, best.cv_accuracy), trace
