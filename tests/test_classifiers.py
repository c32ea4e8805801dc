import numpy as np
import pytest

from eegauth import classifiers
from eegauth.classifiers import (
    ALGORITHMS,
    default_params,
    deserialize,
    predict,
    predict_labels,
    predict_score,
    predict_scores,
    sample_params,
    serialize,
    train,
)
from eegauth.dataset import LABEL_GENUINE, LABEL_IMPOSTOR
from eegauth.errors import (
    DataError,
    DegenerateTrainingError,
    FormatError,
    ParamError,
    SchemaError,
    UnsupportedVersionError,
)


def blob(center, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(center, 1.0, (count, 15)) ** 2


def labels_of(y):
    return [LABEL_GENUINE if v == 1.0 else LABEL_IMPOSTOR for v in y]


@pytest.fixture(scope="module")
def blobs():
    """(X, y): 200 genuine rows, then 200 impostor rows."""
    return np.vstack([blob(9.0, 200, 1), blob(4.0, 200, 2)]), np.repeat([1.0, 0.0], 200)


class TestTrainBasics:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_algorithm_separates_blobs(self, algorithm, blobs):
        X, y = blobs
        model = train(algorithm, default_params(algorithm), X, y, seed=0)
        predicted = predict_labels(model, X)
        accuracy = np.mean([p == t for p, t in zip(predicted, labels_of(y))])
        assert accuracy >= 0.95

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_determinism(self, algorithm, blobs):
        a = train(algorithm, default_params(algorithm), *blobs, seed=3)
        b = train(algorithm, default_params(algorithm), *blobs, seed=3)
        assert serialize(a) == serialize(b)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateTrainingError):
            train("knn", default_params("knn"), blob(5, 10, 0), np.ones(10), 0)

    def test_non_finite_features_rejected(self):
        X = np.vstack([blob(5, 5, 0), blob(3, 5, 1), np.full((1, 15), np.inf)])
        y = np.array([1.0] * 5 + [0.0] * 5 + [1.0])
        with pytest.raises(DataError):
            train("lda", default_params("lda"), X, y, 0)

    def test_misshapen_data_rejected(self):
        X = np.vstack([blob(5, 5, 0), blob(3, 5, 1)])
        y = np.repeat([1.0, 0.0], 5)
        with pytest.raises(DataError):
            train("lda", default_params("lda"), X[:, :14], y, 0)
        with pytest.raises(DataError):
            train("lda", default_params("lda"), X, y[:9], 0)

    def test_bad_params_rejected(self):
        X, y = np.empty((0, 15)), np.empty(0)
        with pytest.raises(ParamError):
            train("knn", {"k": 2, "metric": "euclidean"}, X, y, 0)
        with pytest.raises(ParamError):
            train("knn", {"k": 3}, X, y, 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sampled_params_stay_in_domain(self, algorithm):
        rng = np.random.default_rng(7)
        for _ in range(40):
            classifiers.validate_params(algorithm, sample_params(algorithm, rng))


class TestKnn:
    def test_one_nearest_neighbor_memorizes(self, blobs):
        X, y = blobs
        model = train("knn", {"k": 1, "metric": "euclidean"}, X, y, 0)
        assert predict_labels(model, X) == labels_of(y)

    def test_per_column_scaling_absorbed(self, blobs):
        X, y = blobs
        model = train("knn", default_params("knn"), X, y, 0)
        scale = np.ones(15)
        scale[4] = 37.5
        scaled_model = train("knn", default_params("knn"), X * scale, y, 0)
        rng = np.random.default_rng(11)
        queries = rng.normal(6.5, 2.0, (200, 15)) ** 2
        base = predict_labels(model, queries)
        scaled = predict_labels(scaled_model, queries * scale)
        assert base == scaled

    def test_manhattan_metric_runs(self, blobs):
        X, y = blobs
        model = train("knn", {"k": 3, "metric": "manhattan"}, X, y, 0)
        assert predict(model, X[0]) == LABEL_GENUINE


class TestLda:
    def test_matches_closed_form_solution(self, blobs):
        # direct-formula oracle: pooled covariance solve in raw feature space
        X, y = blobs
        model = train("lda", {"shrinkage": 0.0}, X, y, 0)
        X1, X0 = X[y == 1], X[y == 0]
        mu1, mu0 = X1.mean(axis=0), X0.mean(axis=0)
        pooled = ((X1 - mu1).T @ (X1 - mu1) + (X0 - mu0).T @ (X0 - mu0)) / (len(X) - 2)
        w_ref = np.linalg.solve(pooled, mu1 - mu0)
        b_ref = -w_ref @ (mu1 + mu0) / 2.0

        # undo the model's internal standardization to compare in raw space
        state = model.fitted_state
        sd = np.array(state["standardize_sd"])
        mu = np.array(state["standardize_mu"])
        w_raw = np.array(state["w"]) / sd
        b_raw = state["b"] - float(np.array(state["w"]) @ (mu / sd))

        cosine = (w_raw @ w_ref) / (np.linalg.norm(w_raw) * np.linalg.norm(w_ref))
        assert cosine == pytest.approx(1.0, abs=1e-10)
        scale = np.linalg.norm(w_raw) / np.linalg.norm(w_ref)
        assert b_raw == pytest.approx(b_ref * scale, rel=1e-8)

    def test_shrinkage_full_still_separates(self, blobs):
        X, y = blobs
        model = train("lda", {"shrinkage": 1.0}, X, y, 0)
        predicted = predict_labels(model, X)
        accuracy = np.mean([p == t for p, t in zip(predicted, labels_of(y))])
        assert accuracy >= 0.95


class TestDegenerateData:
    @pytest.mark.parametrize("algorithm",
                             ["logistic_regression", "lda", "gaussian_nb",
                              "decision_tree", "random_forest"])
    def test_constant_features_predict_majority(self, algorithm):
        X, y = np.full((30, 15), 3.0), np.repeat([1.0, 0.0], [10, 20])
        model = train(algorithm, default_params(algorithm), X, y, 0)
        assert predict(model, np.full(15, 3.0)) == LABEL_IMPOSTOR

    @pytest.mark.parametrize("algorithm",
                             ["logistic_regression", "lda", "gaussian_nb",
                              "decision_tree", "random_forest", "knn"])
    def test_constant_features_balanced_ties_deny(self, algorithm):
        X, y = np.full((20, 15), 3.0), np.repeat([1.0, 0.0], 10)
        model = train(algorithm, default_params(algorithm), X, y, 0)
        assert predict(model, np.full(15, 3.0)) == LABEL_IMPOSTOR


class TestPredictContract:
    def test_score_above_half_is_genuine(self, blobs):
        model = train("lda", default_params("lda"), *blobs, 0)
        for row in blobs[0][:20]:
            score = predict_score(model, row)
            label = predict(model, row)
            assert label == (LABEL_GENUINE if score > 0.5 else LABEL_IMPOSTOR)

    def test_exact_half_score_denies(self):
        # duplicated points with opposite labels force a 0.5 nearest-neighbor vote
        X = np.repeat([[2.0], [2.0], [8.0], [8.0]], 15, axis=1)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        model = train("knn", {"k": 1, "metric": "euclidean"}, X, y, 0)
        assert predict_score(model, np.full(15, 2.0)) == 0.5
        assert predict(model, np.full(15, 2.0)) == LABEL_IMPOSTOR

    def test_schema_mismatch_rejected(self, blobs):
        model = train("lda", default_params("lda"), *blobs, 0)
        with pytest.raises(SchemaError):
            predict_score(model, np.ones(14))
        wrong_names = ["x"] * 15
        with pytest.raises(SchemaError):
            predict_scores(model, np.ones((1, 15)), names=wrong_names)

    def test_scores_within_unit_interval(self, blobs):
        rng = np.random.default_rng(2)
        queries = rng.normal(6, 3, (100, 15)) ** 2
        for algorithm in ALGORITHMS:
            model = train(algorithm, default_params(algorithm), *blobs, 0)
            scores = predict_scores(model, queries)
            assert np.all((scores >= 0.0) & (scores <= 1.0))


class TestRandomForestSemantics:
    def test_single_tree_forest_equals_tree_on_bootstrap(self, blobs):
        params = {"trees": 1, "max_depth": 6, "features_per_split": "all"}
        X, y = blobs
        forest = train("random_forest", params, X, y, seed=21)
        rng = np.random.default_rng(21)
        idx = rng.integers(0, len(X), size=len(X))
        tree = train("decision_tree", {"max_depth": 6, "min_leaf": 1},
                     X[idx], y[idx], seed=21)
        rng2 = np.random.default_rng(5)
        queries = rng2.normal(6.5, 2.5, (300, 15)) ** 2
        assert predict_labels(forest, queries) == predict_labels(tree, queries)


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_preserves_predictions(self, algorithm, blobs):
        model = train(algorithm, default_params(algorithm), *blobs, 0)
        clone = deserialize(serialize(model))
        rng = np.random.default_rng(4)
        queries = rng.normal(6.5, 3.0, (1000, 15)) ** 2
        assert np.array_equal(predict_scores(model, queries),
                              predict_scores(clone, queries))
        assert predict_labels(model, queries) == predict_labels(clone, queries)

    def test_round_trip_bytes_stable(self, blobs):
        model = train("logistic_regression", default_params("logistic_regression"),
                      *blobs, 0)
        payload = serialize(model)
        assert serialize(deserialize(payload)) == payload

    def test_truncated_payload_rejected(self, blobs):
        payload = serialize(train("lda", default_params("lda"), *blobs, 0))
        with pytest.raises(FormatError):
            deserialize(payload[:-20])

    def test_version_bump_rejected_explicitly(self, blobs):
        import json
        envelope = json.loads(serialize(train("lda", default_params("lda"), *blobs, 0)))
        envelope["format_version"] = 2
        with pytest.raises(UnsupportedVersionError):
            deserialize(json.dumps(envelope).encode())

    def test_garbage_rejected(self):
        with pytest.raises(FormatError):
            deserialize(b"\x00\x01\x02not json")
