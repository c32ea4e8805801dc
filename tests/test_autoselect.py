import csv
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegauth import classifiers
from eegauth.autoselect import (
    CANNOT_BEAT_BEST,
    FoldTimes,
    SearchBudget,
    _config_stream,
    cross_val_predict,
    evaluate_config,
    select_model,
)
from eegauth.dataset import FeatureTable, assemble_user_dataset, stratified_kfold
from eegauth.errors import (
    DeadlineExceededError,
    NoModelError,
    TrainingError,
    ValidationError,
)
from eegauth.evaluation import ConfusionCounts, metrics

from conftest import user_dataset


def tiny_dataset(n_per_class=60, spread=1.0, seed=0):
    rng = np.random.default_rng(seed)
    own = np.stack([rng.normal(8.0, spread, 15) ** 2 for _ in range(n_per_class)])
    pool = np.stack([rng.normal(4.0, spread, 15) ** 2 for _ in range(n_per_class)])
    return assemble_user_dataset("a", own, FeatureTable.for_subject("b", pool), seed)


class TestEvaluateConfig:
    def test_duplicates_across_folds_memorized_by_knn(self):
        # each held-out instance has an exact same-label duplicate in the
        # training fold, so 1-NN scores a perfect accuracy on them
        rng = np.random.default_rng(1)
        own_block = rng.normal(8, 1, (15, 15)) ** 2
        pool_block = rng.normal(4, 1, (15, 15)) ** 2
        own = own_block[np.arange(30) % 15]
        pool = FeatureTable.for_subject("b", pool_block[np.arange(30) % 15])
        ds = assemble_user_dataset("a", own, pool, seed=0)
        split = (np.flatnonzero(ds.segment_index < 15),
                 np.flatnonzero(ds.segment_index >= 15))
        accuracy, predicted = evaluate_config(ds, "knn", {"k": 1, "metric": "euclidean"},
                                              split, seed=0)
        assert accuracy == 1.0
        assert np.array_equal(predicted, ds.y)

    def test_always_impostor_scores_half_on_balanced(self):
        # constant features make every model fail closed to impostor, which
        # is exactly the majority baseline on a balanced dataset
        own = np.full((40, 15), 3.0)
        pool = FeatureTable.for_subject("b", np.full((40, 15), 3.0))
        ds = assemble_user_dataset("a", own, pool, seed=1)
        split = stratified_kfold(ds, 5, seed=1)
        accuracy, predicted = evaluate_config(ds, "lda", {"shrinkage": 0.0}, split, seed=1)
        assert accuracy == 0.5
        assert not predicted.any()

    def test_deterministic(self, separable_dataset):
        split = stratified_kfold(separable_dataset, 5, seed=2)
        params = classifiers.default_params("random_forest")
        a = evaluate_config(separable_dataset, "random_forest", params, split, 3)
        b = evaluate_config(separable_dataset, "random_forest", params, split, 3)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_score_in_unit_interval(self, separable_dataset):
        split = stratified_kfold(separable_dataset, 5, seed=2)
        for algorithm in classifiers.ALGORITHMS:
            acc, predicted = evaluate_config(separable_dataset, algorithm,
                                             classifiers.default_params(algorithm),
                                             split, 0)
            assert 0.0 <= acc <= 1.0
            assert acc == np.mean(predicted == separable_dataset.y)


class TestSelectModel:
    def test_separable_dataset_high_accuracy(self, separable_dataset):
        model, trace = select_model(separable_dataset,
                                    SearchBudget(30.0, 10, seed=4), k_folds=5)
        assert model.cv_accuracy >= 0.95
        assert len(trace.entries) == 10

    def test_budget_too_small_raises(self, separable_dataset):
        with pytest.raises(NoModelError):
            select_model(separable_dataset, SearchBudget(0.001, None, seed=0),
                         k_folds=10)

    def test_trace_argmax_is_returned_model(self, separable_dataset):
        model, trace = select_model(separable_dataset,
                                    SearchBudget(30.0, 8, seed=5), k_folds=5)
        best = trace.best()
        scores = [e.cv_accuracy for e in trace.entries]
        assert best.cv_accuracy == max(scores)
        assert scores.index(max(scores)) == trace.chosen_index  # earliest tie wins
        assert (best.algorithm, best.params) == (model.algorithm, model.params)
        assert model.cv_accuracy == best.cv_accuracy

    def test_warm_start_covers_every_algorithm(self, separable_dataset):
        _, trace = select_model(separable_dataset, SearchBudget(60.0, 6, seed=6),
                                k_folds=5)
        assert [e.algorithm for e in trace.entries] == list(classifiers.ALGORITHMS)
        for entry in trace.entries:
            assert entry.params == classifiers.default_params(entry.algorithm)

    def test_more_evaluations_never_hurt(self, separable_dataset):
        # same seed means the shorter search evaluates a prefix of the longer
        short, _ = select_model(separable_dataset, SearchBudget(60.0, 3, seed=7),
                                k_folds=5)
        long, _ = select_model(separable_dataset, SearchBudget(60.0, 15, seed=7),
                               k_folds=5)
        assert long.cv_accuracy >= short.cv_accuracy

    def test_budget_compliance_small(self):
        ds = tiny_dataset()
        started = time.perf_counter()
        _, trace = select_model(ds, SearchBudget(1.5, None, seed=8), k_folds=5)
        elapsed = time.perf_counter() - started
        durations = np.diff([0.0] + [e.elapsed_s for e in trace.entries])
        assert elapsed <= 1.5 + max(durations.max(), 0.3) + 0.3

    def test_budget_compliance_overlapping(self):
        # no configuration is perfect here, so the search runs to its deadline
        ds = tiny_dataset(spread=4.0)
        started = time.perf_counter()
        _, trace = select_model(ds, SearchBudget(1.5, None, seed=8), k_folds=5)
        elapsed = time.perf_counter() - started
        durations = np.diff([0.0] + [e.elapsed_s for e in trace.entries])
        assert trace.best().errors > 0
        assert elapsed >= 1.5
        assert elapsed <= 1.5 + max(durations.max(), 0.3) + 0.3

    def test_seed_changes_search_path(self, separable_dataset):
        _, trace_a = select_model(separable_dataset, SearchBudget(60.0, 12, seed=1),
                                  k_folds=5)
        _, trace_b = select_model(separable_dataset, SearchBudget(60.0, 12, seed=2),
                                  k_folds=5)
        configs_a = [(e.algorithm, tuple(sorted(e.params.items())))
                     for e in trace_a.entries[6:]]
        configs_b = [(e.algorithm, tuple(sorted(e.params.items())))
                     for e in trace_b.entries[6:]]
        assert configs_a != configs_b

    def test_chance_dataset_stays_near_half(self, small_chance_table):
        ds = user_dataset(small_chance_table, "S01", seed=3)
        model, _ = select_model(ds, SearchBudget(20.0, 8, seed=9), k_folds=5)
        assert 0.45 <= model.cv_accuracy <= 0.55

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValidationError):
            SearchBudget(0.0)
        with pytest.raises(ValidationError):
            SearchBudget(10.0, 0)


class TestCrossValPredict:
    def test_every_instance_predicted_once(self, separable_dataset, monkeypatch):
        split = stratified_kfold(separable_dataset, 5, seed=4)
        scored = []
        predict_labels = classifiers.predict_labels

        def counting_predict_labels(model, X):
            scored.append(len(X))
            return predict_labels(model, X)

        monkeypatch.setattr(classifiers, "predict_labels", counting_predict_labels)
        predicted = cross_val_predict(separable_dataset, "lda",
                                      classifiers.default_params("lda"), split, 4)
        assert predicted.shape == separable_dataset.y.shape
        assert set(np.unique(predicted)) <= {0.0, 1.0}
        assert scored == [len(fold) for fold in split]  # one call per fold

    def test_separable_pooled_accuracy(self, separable_dataset):
        split = stratified_kfold(separable_dataset, 5, seed=4)
        predicted = cross_val_predict(separable_dataset, "knn",
                                      classifiers.default_params("knn"), split, 4)
        assert np.mean(predicted == separable_dataset.y) >= 0.95

    def test_deadline_aborts_between_folds(self, separable_dataset):
        split = stratified_kfold(separable_dataset, 5, seed=4)
        with pytest.raises(DeadlineExceededError):
            cross_val_predict(separable_dataset, "lda", classifiers.default_params("lda"),
                              split, 4, deadline=time.perf_counter())

    def test_fold_times_count_fits_and_scoring(self, separable_dataset, monkeypatch):
        split = stratified_kfold(separable_dataset, 5, seed=4)
        train, predict_labels = classifiers.train, classifiers.predict_labels

        def slow_train(*args):
            time.sleep(0.02)
            return train(*args)

        def slow_predict_labels(model, X):
            time.sleep(0.01)
            return predict_labels(model, X)

        monkeypatch.setattr(classifiers, "train", slow_train)
        monkeypatch.setattr(classifiers, "predict_labels", slow_predict_labels)
        params = classifiers.default_params("lda")
        times = FoldTimes()
        started = time.perf_counter()
        cross_val_predict(separable_dataset, "lda", params, split, 4, times=times)
        assert times.fit_s >= 5 * 0.02 and times.score_s >= 5 * 0.01
        assert times.fit_s + times.score_s <= time.perf_counter() - started
        # a run that stops before its first fold spends nothing
        stopped = FoldTimes()
        cross_val_predict(separable_dataset, "lda", params, split, 4, best_errors=0,
                          times=stopped)
        assert (stopped.fit_s, stopped.score_s) == (0.0, 0.0)

    @pytest.mark.parametrize("best_errors", [0, 1, 3, 10])
    def test_stops_once_errors_reach_best(self, best_errors):
        ds = tiny_dataset(spread=3.0, seed=1)
        split = stratified_kfold(ds, 5, seed=0)
        params = classifiers.default_params("lda")
        full = cross_val_predict(ds, "lda", params, split, 0)
        stopped = cross_val_predict(ds, "lda", params, split, 0, best_errors=best_errors)
        # the folds run are a prefix, each predicted as in the full run; the
        # last one started with fewer errors than the limit, and only then
        # does the run stop
        run = [not np.isnan(stopped[fold]).any() for fold in split]
        n_run = sum(run)
        assert run == [True] * n_run + [False] * (len(run) - n_run)
        assert all(np.isnan(stopped[fold]).all() for fold in split[n_run:])
        ran = ~np.isnan(stopped)
        assert np.array_equal(stopped[ran], full[ran])
        errors = [int(np.count_nonzero(full[fold] != ds.y[fold])) for fold in split]
        assert sum(errors[:n_run - 1]) < best_errors or n_run == 0
        assert n_run == len(run) or sum(errors[:n_run]) >= best_errors
        accuracy, _ = evaluate_config(ds, "lda", params, split, 0, best_errors=best_errors)
        assert accuracy == (len(ds.y) - sum(errors[:n_run])) / len(ds.y)


def check_kept_predictions(ds, max_evals, seed, k_folds=5):
    """The trace's predictions are a fresh CV run of the chosen config."""
    model, trace = select_model(ds, SearchBudget(60.0, max_evals, seed=seed),
                                k_folds=k_folds)
    split = stratified_kfold(ds, k_folds, seed)
    fresh = cross_val_predict(ds, model.algorithm, model.params, split, seed)
    assert np.array_equal(trace.predictions, fresh)
    assert np.mean(trace.predictions == ds.y) == model.cv_accuracy
    counts = ConfusionCounts.from_predictions(ds.y, trace.predictions)
    assert metrics(counts).accuracy == model.cv_accuracy
    return model, trace


class TestKeptPredictions:
    def test_separable_dataset(self, separable_dataset):
        model, _ = check_kept_predictions(separable_dataset, 6, seed=4)
        assert model.algorithm == "knn"  # saturated: the first config ties the rest

    @pytest.mark.parametrize("spread,data_seed,search_seed,max_evals,winner,index", [
        (3.0, 1, 0, 7, "random_forest", 6),  # a drawn forest beats the defaults
        (3.0, 1, 1, 6, "random_forest", 5),
        (3.0, 1, 3, 6, "lda", 2),
        (4.0, 0, 2, 11, "logistic_regression", 10),
    ])
    def test_overlapping_classes(self, spread, data_seed, search_seed, max_evals,
                                 winner, index):
        ds = tiny_dataset(spread=spread, seed=data_seed)
        model, trace = check_kept_predictions(ds, max_evals, search_seed)
        assert (model.algorithm, trace.chosen_index) == (winner, index)


def reference_select_model(ds, budget, k_folds):
    """`select_model` as it was before evaluations stopped early, copied
    verbatim but for the trace: entries are (algorithm, params, accuracy)
    and every evaluation runs all its folds."""
    start = time.perf_counter()
    deadline = start + budget.wall_clock_s
    split = stratified_kfold(ds, k_folds, budget.seed)
    rng = np.random.default_rng(budget.seed)
    entries = []
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
        entries.append((algorithm, params, accuracy))
        # strictly better only, so ties keep the earliest entry
        if math.isfinite(accuracy) and (chosen is None
                                        or accuracy > entries[chosen][2]):
            chosen, predictions = len(entries) - 1, predicted
    if chosen is None:
        raise NoModelError("budget expired before any configuration was evaluated")
    algorithm, params, accuracy = entries[chosen]
    model = classifiers.train(algorithm, params, ds.X, ds.y, budget.seed)
    return classifiers.with_cv_accuracy(model, accuracy), entries, chosen, predictions


class TestEarlyStop:
    @settings(max_examples=40, deadline=None)
    @given(spread=st.sampled_from([0.5, 1.0, 2.0, 3.0, 4.0]),
           data_seed=st.integers(0, 3),
           search_seed=st.integers(0, 2 ** 16),
           max_evals=st.integers(1, 12),
           k_folds=st.integers(2, 10))
    def test_same_search_result_as_running_every_fold(self, spread, data_seed,
                                                      search_seed, max_evals, k_folds):
        ds = tiny_dataset(spread=spread, seed=data_seed)
        budget = SearchBudget(600.0, max_evals, seed=search_seed)
        model, trace = select_model(ds, budget, k_folds)
        ref_model, ref_entries, ref_chosen, ref_predictions = reference_select_model(
            ds, budget, k_folds)
        assert trace.chosen_index == ref_chosen
        assert model.cv_accuracy == ref_model.cv_accuracy
        assert np.array_equal(trace.predictions, ref_predictions)
        assert classifiers.serialize(model) == classifiers.serialize(ref_model)
        assert len(trace.entries) == len(ref_entries)
        assert ([(e.algorithm, e.params) for e in trace.entries]
                == [(a, p) for a, p, _ in ref_entries])
        best = trace.best()
        for entry, (_, _, ref_accuracy) in zip(trace.entries, ref_entries):
            if entry.stop_reason == CANNOT_BEAT_BEST:
                # an upper bound that never beats the incumbent it stopped at
                assert entry.folds_run < k_folds
                assert ref_accuracy <= entry.cv_accuracy <= best.cv_accuracy
                assert any(e.stop_reason == "" and e.errors <= entry.errors
                           for e in trace.entries[:entry.index])
            else:
                assert entry.folds_run == k_folds
                assert entry.cv_accuracy == ref_accuracy
            assert entry.cv_accuracy == (len(ds.y) - entry.errors) / len(ds.y)

    def test_saturated_search_trains_one_config_and_the_refit(self, separable_dataset,
                                                              monkeypatch):
        trained = []
        train = classifiers.train

        def counting_train(algorithm, *args):
            trained.append(algorithm)
            return train(algorithm, *args)

        monkeypatch.setattr(classifiers, "train", counting_train)
        k_folds = 5
        _, trace = select_model(separable_dataset, SearchBudget(60.0, 6, seed=4),
                                k_folds=k_folds)
        assert trace.entries[0].errors == 0
        assert len(trace.entries) == 6  # a stopped evaluation still counts
        assert trained == ["knn"] * (k_folds + 1)
        assert all((e.folds_run, e.errors, e.stop_reason) == (0, 0, CANNOT_BEAT_BEST)
                   for e in trace.entries[1:])

    def test_uncapped_search_ends_at_a_perfect_incumbent(self, separable_dataset):
        started = time.perf_counter()
        model, trace = select_model(separable_dataset, SearchBudget(60.0, None, seed=4),
                                    k_folds=5)
        assert time.perf_counter() - started < 30.0
        assert [e.errors for e in trace.entries] == [0]
        assert model.cv_accuracy == 1.0


class TestTraceExport:
    def test_csv_layout(self, tmp_path, separable_dataset):
        _, trace = select_model(separable_dataset, SearchBudget(30.0, 4, seed=1),
                                k_folds=5)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("eval_index,algorithm,params_json,cv_accuracy,elapsed_s,"
                            "folds_run,errors,stop_reason,fit_s,score_s")
        assert len(lines) == 5
        rows = list(csv.DictReader(lines))
        assert (rows[0]["folds_run"], rows[0]["errors"], rows[0]["stop_reason"]) \
            == ("5", "0", "")
        assert float(rows[0]["fit_s"]) > 0 and float(rows[0]["score_s"]) > 0
        assert float(rows[0]["fit_s"]) + float(rows[0]["score_s"]) \
            <= float(rows[0]["elapsed_s"])
        # the first configuration is perfect, so the next one runs no fold
        # and reports its upper bound
        assert (rows[1]["folds_run"], rows[1]["errors"], rows[1]["stop_reason"],
                rows[1]["cv_accuracy"], rows[1]["fit_s"], rows[1]["score_s"]) \
            == ("0", "0", "cannot_beat_best", "1", "0.000000", "0.000000")
