import time

import numpy as np
import pytest

from eegauth import classifiers
from eegauth.autoselect import (
    SearchBudget,
    cross_val_predict,
    evaluate_config,
    select_model,
)
from eegauth.dataset import CvSplit, FeatureTable, assemble_user_dataset, stratified_kfold
from eegauth.errors import DeadlineExceededError, NoModelError, ValidationError
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
        split = CvSplit((np.flatnonzero(ds.segment_index < 15),
                         np.flatnonzero(ds.segment_index >= 15)))
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
        assert scored == [len(fold) for fold in split.folds]  # one call per fold

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


class TestTraceExport:
    def test_csv_layout(self, tmp_path, separable_dataset):
        _, trace = select_model(separable_dataset, SearchBudget(30.0, 4, seed=1),
                                k_folds=5)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "eval_index,algorithm,params_json,cv_accuracy,elapsed_s"
        assert len(lines) == 5
