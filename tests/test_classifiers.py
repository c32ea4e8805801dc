import hashlib
import itertools
import json
import platform
import sys
import threading
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import host_levels, run_under_level
from eegauth import classifiers
from eegauth.classifiers import (
    ALGORITHMS,
    TrainedModel,
    default_params,
    deserialize,
    predict_labels,
    predict_scores,
    sample_params,
    serialize,
    train,
)
from eegauth.errors import TrainingError, ValidationError
from eegauth.features import FEATURE_NAMES


def blob(center, count, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(center, 1.0, (count, 15)) ** 2


def labels_of(y):
    return y == 1.0


@pytest.fixture(scope="module")
def blobs():
    """(X, y): 200 genuine rows, then 200 impostor rows."""
    return np.vstack([blob(9.0, 200, 1), blob(4.0, 200, 2)]), np.repeat([1.0, 0.0], 200)


class TestTrainBasics:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_each_algorithm_separates_blobs(self, algorithm, blobs):
        X, y = blobs
        model = train(algorithm, default_params(algorithm), X, y, seed=0)
        accuracy = np.mean(predict_labels(model, X) == labels_of(y))
        assert accuracy >= 0.95

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_determinism(self, algorithm, blobs):
        a = train(algorithm, default_params(algorithm), *blobs, seed=3)
        b = train(algorithm, default_params(algorithm), *blobs, seed=3)
        assert serialize(a) == serialize(b)

    def test_single_class_rejected(self):
        with pytest.raises(TrainingError, match="covers a single label"):
            train("knn", default_params("knn"), blob(5, 10, 0), np.ones(10), 0)

    def test_non_finite_features_rejected(self):
        X = np.vstack([blob(5, 5, 0), blob(3, 5, 1), np.full((1, 15), np.inf)])
        y = np.array([1.0] * 5 + [0.0] * 5 + [1.0])
        with pytest.raises(TrainingError, match="non-finite values"):
            train("lda", default_params("lda"), X, y, 0)

    def test_misshapen_data_rejected(self):
        X = np.vstack([blob(5, 5, 0), blob(3, 5, 1)])
        y = np.repeat([1.0, 0.0], 5)
        with pytest.raises(TrainingError, match="must be rows of 15 features"):
            train("lda", default_params("lda"), X[:, :14], y, 0)
        with pytest.raises(TrainingError, match="must be rows of 15 features"):
            train("lda", default_params("lda"), X, y[:9], 0)

    def test_bad_params_rejected(self):
        X, y = np.empty((0, 15)), np.empty(0)
        with pytest.raises(ValidationError, match="knn.k=2 outside its domain"):
            train("knn", {"k": 2, "metric": "euclidean"}, X, y, 0)
        with pytest.raises(ValidationError, match="knn expects parameters"):
            train("knn", {"k": 3}, X, y, 0)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_sampled_params_stay_in_domain(self, algorithm):
        rng = np.random.default_rng(7)
        for _ in range(40):
            classifiers.validate_params(algorithm, sample_params(algorithm, rng))

    @pytest.mark.parametrize("algorithm, name, value", [
        ("logistic_regression", "l2", None),
        ("logistic_regression", "l2", float("nan")),
        ("logistic_regression", "l2", 10 ** 400),
        ("lda", "shrinkage", [0.5]),
        ("lda", "shrinkage", True),
        ("gaussian_nb", "var_smoothing", {}),
        ("gaussian_nb", "var_smoothing", "1e-9"),
        ("knn", "k", True),
        ("knn", "k", 5.0),
        ("knn", "metric", ["euclidean"]),
        ("random_forest", "trees", True),
        ("random_forest", "trees", 9),
        ("decision_tree", "max_depth", 10.0),
    ])
    def test_malformed_param_values_rejected(self, algorithm, name, value):
        with pytest.raises(ValidationError, match="outside its domain"):
            classifiers.validate_params(algorithm, {**default_params(algorithm), name: value})


class TestKnn:
    def test_one_nearest_neighbor_memorizes(self, blobs):
        X, y = blobs
        model = train("knn", {"k": 1, "metric": "euclidean"}, X, y, 0)
        assert np.array_equal(predict_labels(model, X), labels_of(y))

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
        assert np.array_equal(base, scaled)

    def test_manhattan_metric_runs(self, blobs):
        X, y = blobs
        model = train("knn", {"k": 3, "metric": "manhattan"}, X, y, 0)
        assert predict_labels(model, X[:1]).tolist() == [True]


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
        accuracy = np.mean(predict_labels(model, X) == labels_of(y))
        assert accuracy >= 0.95


class TestDegenerateData:
    @pytest.mark.parametrize("algorithm",
                             ["logistic_regression", "lda", "gaussian_nb",
                              "decision_tree", "random_forest"])
    def test_constant_features_predict_majority(self, algorithm):
        X, y = np.full((30, 15), 3.0), np.repeat([1.0, 0.0], [10, 20])
        model = train(algorithm, default_params(algorithm), X, y, 0)
        assert predict_labels(model, np.full((1, 15), 3.0)).tolist() == [False]

    @pytest.mark.parametrize("algorithm",
                             ["logistic_regression", "lda", "gaussian_nb",
                              "decision_tree", "random_forest", "knn"])
    def test_constant_features_balanced_ties_deny(self, algorithm):
        X, y = np.full((20, 15), 3.0), np.repeat([1.0, 0.0], 10)
        model = train(algorithm, default_params(algorithm), X, y, 0)
        assert predict_labels(model, np.full((1, 15), 3.0)).tolist() == [False]


class TestPredictContract:
    def test_score_above_half_is_genuine(self, blobs):
        model = train("lda", default_params("lda"), *blobs, 0)
        rows = blobs[0][190:210]  # genuine, then impostor rows
        labels = predict_labels(model, rows)
        assert labels.dtype == bool
        assert np.array_equal(labels, predict_scores(model, rows) > 0.5)
        assert labels.any() and not labels.all()

    def test_exact_half_score_denies(self):
        # duplicated points with opposite labels force a 0.5 nearest-neighbor vote
        X = np.repeat([[2.0], [2.0], [8.0], [8.0]], 15, axis=1)
        y = np.array([1.0, 0.0, 1.0, 0.0])
        model = train("knn", {"k": 1, "metric": "euclidean"}, X, y, 0)
        assert predict_scores(model, np.full((1, 15), 2.0)).tolist() == [0.5]
        assert predict_labels(model, np.full((1, 15), 2.0)).tolist() == [False]

    def test_schema_mismatch_rejected(self, blobs):
        model = train("lda", default_params("lda"), *blobs, 0)
        with pytest.raises(ValidationError, match="expected 15 features, got 14"):
            predict_scores(model, np.ones((1, 14)))
        with pytest.raises(ValidationError, match="expected 15 features, got 16"):
            predict_labels(model, np.ones(16))
        for wrong_names in (["x"] * 15, list(reversed(FEATURE_NAMES)),
                            list(FEATURE_NAMES[:14]), None):
            envelope = json.loads(serialize(model))
            envelope["feature_order"] = wrong_names
            with pytest.raises(ValidationError, match="feature_order must name the 15 features"):
                classifiers.model_from_dict(envelope)

    def test_scores_within_unit_interval(self, blobs):
        rng = np.random.default_rng(2)
        queries = rng.normal(6, 3, (100, 15)) ** 2
        for algorithm in ALGORITHMS:
            model = train(algorithm, default_params(algorithm), *blobs, 0)
            scores = predict_scores(model, queries)
            assert np.all((scores >= 0.0) & (scores <= 1.0))


# prints the digest of each model's labels for every row of a
# zero-separability table, the models fitted with default params on one
# user's dataset: near-zero logits are where a label could flip
LABEL_DIGESTS = """
import hashlib, json
from conftest import cohort_feature_table, user_dataset
from eegauth.classifiers import default_params, predict_labels, train
from eegauth.synth import CohortSpec
table = cohort_feature_table(
    CohortSpec(n_subjects=5, seed=9, separability=0.0, intra_jitter=0.0), 100)
ds = user_dataset(table, "S01", seed=5)
print(json.dumps({
    algorithm: hashlib.sha256(predict_labels(
        train(algorithm, default_params(algorithm), ds.X, ds.y, 4), table.X)).hexdigest()
    for algorithm in ("gaussian_nb", "logistic_regression")}))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64")
                    or int(np.__version__.split(".")[0]) < 2,
                    reason="names numpy 2's x86-64 dispatch levels")
def test_labels_equal_under_every_simd_level():
    # np.tanh in _sigmoid rounds by numpy's SIMD level, so scores may differ
    # in their last bits; labels must not.  Logistic regression's bits also
    # depend on the BLAS kernel, so the digests are compared, not pinned.
    labels = {level: run_under_level(level, LABEL_DIGESTS) for level in host_levels()}
    assert all(d == labels["baseline"] for d in labels.values()), labels


class TestRandomForestSemantics:
    def test_single_tree_forest_equals_tree_on_bootstrap(self, blobs):
        # a forest's first tree, grown as _fit_random_forest grows it
        X, y = blobs
        mu, sd = classifiers._standardize_fit(X)
        forest = classifiers._grow_trees((X - mu) / sd, y,
                                         classifiers._bootstraps(len(X), 1,
                                                                 np.random.default_rng(21)),
                                         max_depth=6, min_leaf=1, max_features=15)
        rng = np.random.default_rng(21)
        idx = rng.integers(0, len(X), size=len(X))
        tree = train("decision_tree", {"max_depth": 6, "min_leaf": 1},
                     X[idx], y[idx], seed=21)
        rng2 = np.random.default_rng(5)
        queries = rng2.normal(6.5, 2.5, (300, 15)) ** 2
        assert np.array_equal(forest.score((queries - mu) / sd) > 0.5,
                              predict_labels(tree, queries))


# --- reference: the recursive depth-first CART fitter, splitting at the lower
# value where the midpoint of two adjacent doubles rounds up ---------------------

def _fit_tree_node(X, y, idx, depth, max_depth, min_leaf, rng, max_features):
    ys = y[idx]
    n_node = idx.size
    pos = float(ys.sum())
    if depth >= max_depth or n_node < 2 * min_leaf or pos == 0.0 or pos == n_node:
        return {"leaf": pos / n_node}
    p = X.shape[1]
    feats = np.arange(p)
    if max_features < p:
        feats = np.sort(rng.choice(p, size=max_features, replace=False))
    Xn = X[np.ix_(idx, feats)]
    order = np.argsort(Xn, axis=0, kind="stable")
    Xsorted = np.take_along_axis(Xn, order, axis=0)
    ysorted = ys[order]
    cum_pos = np.cumsum(ysorted, axis=0)
    left_n = np.arange(1, n_node)[:, None].astype(float)
    left_pos = cum_pos[:-1]
    right_n = n_node - left_n
    right_pos = pos - left_pos
    pl = left_pos / left_n
    pr = right_pos / right_n
    gini = (left_n * (2.0 * pl * (1.0 - pl)) + right_n * (2.0 * pr * (1.0 - pr))) / n_node
    valid = (Xsorted[1:] > Xsorted[:-1]) & (left_n >= min_leaf) & (right_n >= min_leaf)
    gini = np.where(valid, gini, np.inf)
    pos_best = np.unravel_index(int(np.argmin(gini)), gini.shape)
    if not np.isfinite(gini[pos_best]):
        return {"leaf": pos / n_node}
    row, col = pos_best
    feature = int(feats[col])
    threshold = 0.5 * (Xsorted[row, col] + Xsorted[row + 1, col])
    if not threshold < Xsorted[row + 1, col]:
        threshold = Xsorted[row, col]
    go_left = X[idx, feature] <= threshold
    return {
        "f": feature,
        "t": float(threshold),
        "l": _fit_tree_node(X, y, idx[go_left], depth + 1, max_depth, min_leaf,
                            rng, max_features),
        "r": _fit_tree_node(X, y, idx[~go_left], depth + 1, max_depth, min_leaf,
                            rng, max_features),
    }


def reference_state(algorithm, Xs, y, params, rng):
    if algorithm == "decision_tree":
        return {"tree": _fit_tree_node(Xs, y, np.arange(len(Xs)), 0,
                                       int(params["max_depth"]), int(params["min_leaf"]),
                                       rng, Xs.shape[1])}
    n = len(Xs)
    max_features = classifiers._n_split_features(params["features_per_split"], Xs.shape[1])
    trees = []
    for _ in range(int(params["trees"])):
        idx = rng.integers(0, n, size=n)
        tree_rng = np.random.default_rng(int(rng.integers(2 ** 63)))
        trees.append(_fit_tree_node(Xs[idx], y[idx], np.arange(n), 0,
                                    int(params["max_depth"]), 1, tree_rng, max_features))
    return {"trees": trees}


def serialized_state(algorithm, params, state):
    return serialize(TrainedModel(algorithm, params, state, 0))


def assert_trained_like_reference(algorithm, params, X, y, seed):
    model = train(algorithm, params, X, y, seed)
    mu, sd = classifiers._standardize_fit(X)
    reference = reference_state(algorithm, (X - mu) / sd, y, params,
                                np.random.default_rng(seed))
    expected = replace(model, fitted_state={**model.fitted_state, **reference})
    assert serialize(model) == serialize(expected)


class TestLockstepTrees:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 40),
           distinct=st.integers(1, 40), levels=st.integers(0, 4),
           constant=st.integers(0, 15), positives=st.floats(0.0, 1.0),
           trees=st.integers(1, 30), max_depth=st.integers(1, 20),
           min_leaf=st.integers(1, 20), spec=st.sampled_from(["sqrt", "log2", "all"]))
    def test_grower_equals_recursive_reference(self, seed, n, distinct, levels, constant,
                                               positives, trees, max_depth, min_leaf, spec):
        rng = np.random.default_rng(seed)
        # rows drawn from `distinct` originals (duplicates), values on `levels`
        # grid steps (ties; 0 = continuous), leading columns held constant and
        # few genuine rows (single-class bootstraps)
        base = rng.normal(size=(distinct, 15))
        if levels:
            base = np.round(base * levels) / levels
        base[:, :constant] = 0.25
        X = base[rng.integers(0, distinct, size=n)]
        y = np.zeros(n)
        y[rng.permutation(n)[:max(1, int(positives * n))]] = 1.0
        for algorithm, params in (
                ("random_forest", {"trees": trees, "max_depth": max_depth,
                                   "features_per_split": spec}),
                ("decision_tree", {"max_depth": max_depth, "min_leaf": min_leaf})):
            grown = classifiers._FITTERS[algorithm](X, y, params, np.random.default_rng(seed))
            reference = reference_state(algorithm, X, y, params, np.random.default_rng(seed))
            assert (serialized_state(algorithm, params, grown)
                    == serialized_state(algorithm, params, reference))

    def test_deep_forest_matches_reference(self):
        # twins-like: two heavily overlapping classes grow deep trees
        X = np.vstack([blob(6.0, 400, 3), blob(6.2, 400, 4)])
        y = np.repeat([1.0, 0.0], 400)
        assert_trained_like_reference("random_forest", default_params("random_forest"),
                                      X, y, seed=7)
        assert_trained_like_reference("random_forest", {"trees": 12, "max_depth": 20,
                                                        "features_per_split": "all"},
                                      X, y, seed=8)

    def test_shallow_forest_and_trees_match_reference(self, blobs):
        X, y = blobs
        assert_trained_like_reference("random_forest", default_params("random_forest"),
                                      X, y, seed=7)
        for min_leaf in (1, 7, 20):
            assert_trained_like_reference("decision_tree",
                                          {"max_depth": 10, "min_leaf": min_leaf},
                                          X, y, seed=7)

    def test_adjacent_doubles_split_below_the_upper_value(self):
        a = np.nextafter(1.0, 2.0)
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b  # the midpoint rounds up to the largest value
        X, y = np.array([[a], [b]]), np.array([0.0, 1.0])
        tree, = classifiers._grow_trees(X, y, [(np.arange(2), np.random.default_rng(0))],
                                        max_depth=5, min_leaf=1, max_features=1).to_dicts()
        assert tree == {"f": 0, "t": a, "l": {"leaf": 0.0}, "r": {"leaf": 1.0}}
        assert _fit_tree_node(X, y, np.arange(2), 0, 5, 1, None, 1) == tree


# --- reference: numpy's Generator.choice(p, size=k, replace=False) for p <=
# 10000, one uint32 at a time ------------------------------------------------------

def reference_choice(next_uint32, p, k):
    """Floyd's algorithm, then a Fisher-Yates shuffle of the picks, each draw
    in [0, j] a Lemire draw that rejects u while (u * s) mod 2**32 < 2**32 mod
    s, s = j + 1."""
    def draw(j):
        s = j + 1
        while True:
            m = next_uint32() * s
            if m & 0xFFFFFFFF >= (1 << 32) % s:
                return m >> 32

    picks = []
    for j in range(p - k, p):
        v = draw(j)
        picks.append(j if v in picks else v)
    for i in range(k - 1, 0, -1):
        j = draw(i)
        picks[i], picks[j] = picks[j], picks[i]
    return picks


class FedStream:
    """Stands in for a Generator's bulk uint32 draws with given values."""

    def __init__(self, values):
        self.values = iter(values)

    def integers(self, low, high, size, dtype):
        assert (low, high, dtype) == (0, 1 << 32, np.uint32)
        return np.fromiter(itertools.islice(self.values, size), np.uint32, size)


def uint32_reader(rng):
    return lambda: int(rng.integers(0, 1 << 32, dtype=np.uint32))


class TestFeatureDraws:
    @pytest.mark.parametrize("k", [1, 3, 7, 14])
    def test_reference_is_numpy_choice(self, k):
        for seed in range(100):
            expected = np.random.default_rng(seed)
            read = uint32_reader(np.random.default_rng(seed))
            for _ in range(5):
                assert (reference_choice(read, 15, k)
                        == expected.choice(15, size=k, replace=False).tolist())

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 64 - 1), k=st.integers(1, 14),
           chunk=st.sampled_from([*range(1, 10), classifiers.DRAW_CHUNK]))
    def test_equal_to_sorted_numpy_choice(self, seed, k, chunk):
        expected = np.random.default_rng(seed)
        with mock.patch.object(classifiers, "DRAW_CHUNK", chunk):
            draws = classifiers._FeatureDraws(np.random.default_rng(seed), 15, k)
            for _ in range(40):
                subset = draws.next()
                assert subset.dtype == np.int64
                assert (subset.tolist()
                        == sorted(expected.choice(15, size=k, replace=False).tolist()))

    @pytest.mark.parametrize("chunk", [1, 2, 5, 9, 256])
    def test_rejected_values_are_skipped(self, chunk):
        # seeded draws reject about one value in 10**9: feed the rejection
        # branch by hand.  u = 0 gives (u * s) mod 2**32 = 0, which is below
        # 2**32 mod s unless s (2 here) divides 2**32
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1 << 32, size=4000).tolist()
        values[::3] = [0] * len(values[::3])
        for k in (1, 2, 3, 7, 14):
            reference = iter(values)
            with mock.patch.object(classifiers, "DRAW_CHUNK", chunk):
                draws = classifiers._FeatureDraws(FedStream(values), 15, k)
                for _ in range(20):
                    expected = sorted(reference_choice(lambda: next(reference), 15, k))
                    assert draws.next().tolist() == expected

    def test_only_subsets_of_fewer_features_are_drawn(self):
        for k in (0, 15):
            with pytest.raises(ValueError):
                classifiers._FeatureDraws(np.random.default_rng(0), 15, k)


# --- reference: trees as nested dicts, scored by recursion ---------------------------

def _score_tree(node, Xs, out, idx):
    if "leaf" in node:
        out[idx] = node["leaf"]
        return
    go_left = Xs[idx, node["f"]] <= node["t"]
    _score_tree(node["l"], Xs, out, idx[go_left])
    _score_tree(node["r"], Xs, out, idx[~go_left])


def reference_tree_scores(trees, Xs):
    """Each tree walked by recursion, one fancy index per node; leaves
    summed tree by tree."""
    total = np.zeros(len(Xs))
    for tree in trees:
        out = np.empty(len(Xs))
        _score_tree(tree, Xs, out, np.arange(len(Xs)))
        total += out
    return total / len(trees)


def random_tree(rng, depth, grid):
    """A tree with one path `depth` splits long and random subtrees off it;
    thresholds and leaves come from small sets, so that rows hit them."""
    def node(level, on_path):
        if level == depth or (not on_path and rng.random() < 0.55):
            return {"leaf": [0.0, 1.0, 0.5, float(rng.random())][int(rng.integers(4))]}
        path_left = bool(rng.integers(2))
        return {"f": int(rng.integers(15)), "t": float(grid[rng.integers(len(grid))]),
                "l": node(level + 1, on_path and path_left),
                "r": node(level + 1, on_path and not path_left)}
    return node(0, True)


def tree_model(trees, algorithm):
    """A parsed tree model with identity standardization, so that its
    scorer sees the rows themselves."""
    if algorithm == "decision_tree":
        params, state = {"max_depth": 20, "min_leaf": 1}, {"tree": trees[0]}
    else:
        params = {"trees": len(trees), "max_depth": 20, "features_per_split": "all"}
        state = {"trees": trees}
    return classifiers.model_from_dict({
        "format_version": 1, "algorithm": algorithm, "params": params,
        "feature_order": list(FEATURE_NAMES), "train_seed": 0, "cv_accuracy": None,
        "fitted_state": {**state, "standardize_mu": [0.0] * 15,
                         "standardize_sd": [1.0] * 15}})


def chain_to(tree, levels):
    """`tree` hung `levels` splits below a root, on the left."""
    for _ in range(levels):
        tree = {"f": 1, "t": 0.0, "l": tree, "r": {"leaf": 0.0}}
    return tree


def _key(algorithm):
    return "tree" if algorithm == "decision_tree" else "trees"


class TestFlatTrees:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), depth=st.integers(0, 20),
           trees=st.integers(10, 14), rows=st.integers(1, 40),
           chunk=st.sampled_from([1, 7, classifiers.TREE_CHUNK_ELEMENTS]))
    def test_flat_scorer_equals_recursive_reference(self, seed, depth, trees, rows, chunk):
        rng = np.random.default_rng(seed)
        grid = np.arange(-3, 4) / 2.0
        forest = [random_tree(rng, int(rng.integers(depth + 1)) if i else depth, grid)
                  for i in range(trees)]
        # grid cells equal some threshold exactly; the others fall between
        X = np.where(rng.random((rows, 15)) < 0.5, grid[rng.integers(len(grid), size=(rows, 15))],
                     rng.normal(size=(rows, 15)))
        cases = [("random_forest", forest), ("decision_tree", forest[:1])]
        for algorithm, roots in cases:
            model = tree_model(roots, algorithm)
            assert model.fitted_state[_key(algorithm)].depth == depth
            with mock.patch.object(classifiers, "TREE_CHUNK_ELEMENTS", chunk):
                scores = predict_scores(model, X)
            assert scores.tobytes() == reference_tree_scores(roots, X).tobytes()
            wire = classifiers.model_envelope(model)["fitted_state"][_key(algorithm)]
            assert wire == (roots[0] if algorithm == "decision_tree" else roots)

    def test_rows_equal_to_the_threshold_go_left(self):
        tree = {"f": 3, "t": 0.25, "l": {"leaf": 1.0}, "r": {"leaf": 0.0}}
        X = np.zeros((3, 15))
        X[:, 3] = [0.25, np.nextafter(0.25, 1.0), np.nextafter(0.25, 0.0)]
        model = tree_model([tree], "decision_tree")
        assert predict_scores(model, X).tolist() == [1.0, 0.0, 1.0]

    def test_fitted_forest_scores_equal_recursive_reference(self, blobs):
        X, y = blobs
        queries = np.random.default_rng(6).normal(6.5, 3.0, (300, 15)) ** 2
        for algorithm in ("decision_tree", "random_forest"):
            model = train(algorithm, default_params(algorithm), X, y, 3)
            wire = json.loads(serialize(model))["fitted_state"]
            roots = [wire["tree"]] if algorithm == "decision_tree" else wire["trees"]
            Xs = (queries - model.fitted_state["standardize_mu"]) / model.fitted_state["standardize_sd"]
            assert (predict_scores(model, queries).tobytes()
                    == reference_tree_scores(roots, Xs).tobytes())

    @pytest.mark.parametrize("corrupt", [
        lambda tree: tree.update(f=True),
        lambda tree: tree.update(f=-1),
        lambda tree: tree.update(f=15),
        lambda tree: tree.update(t="0.5"),
        lambda tree: tree.update(t=float("nan")),
        lambda tree: tree.update(l=[]),
        lambda tree: tree.update(l={"leaf": 1.5}),
        lambda tree: tree.update(l={"leaf": True}),
        lambda tree: tree.update(l={"leaf": 1.0, "f": 0}),
        lambda tree: tree.update(l={"f": 0, "t": 0.0, "l": {"leaf": 0.0}}),
        lambda tree: tree.update(l={"f": 0, "t": 0.0, "l": {"leaf": 0.0}, "r": {"leaf": 1.0}}),
    ], ids=["feature-bool", "feature-negative", "feature-too-large", "threshold-string",
            "threshold-nan", "node-list", "leaf-above-one", "leaf-bool", "leaf-extra-key",
            "split-missing-child", "deeper-than-max_depth"])
    def test_malformed_trees_rejected(self, corrupt):
        tree = {"f": 0, "t": 0.0, "l": {"leaf": 0.0}, "r": {"leaf": 1.0}}
        tree_model([chain_to(tree, 19)], "decision_tree")  # well formed so far
        corrupt(tree)
        for algorithm in ("decision_tree", "random_forest"):
            with pytest.raises(ValidationError, match=r"^tree( 0)?: "):
                # max_depth 20 with one 20-deep path in front, so that one
                # level more is too deep
                tree_model([chain_to(tree, 19)] + [{"leaf": 1.0}] * 9, algorithm)

    def test_forest_must_hold_its_tree_count(self):
        leaf = {"leaf": 1.0}
        model = tree_model([leaf] * 10, "random_forest")
        envelope = classifiers.model_envelope(model)
        for trees in ([leaf] * 9, [leaf] * 11, {"0": leaf}):
            with pytest.raises(ValidationError, match="random forest must hold 10 trees"):
                classifiers.model_from_dict({**envelope, "fitted_state": {
                    **envelope["fitted_state"], "trees": trees}})


KNN_KS = classifiers.PARAM_SPACES["knn"]["k"].values


def permuted_rows(rng, n):
    """n rows, each a permutation of one of four base rows whose values span
    24 binades."""
    base = rng.choice([1.0, 3.0, 5.0, 7.0], (4, 15)) * 2.0 ** rng.integers(-20, 4, (4, 15))
    return np.array([rng.permutation(base[row % 4]) for row in range(n)])


def reference_knn_scores(model, Xs):
    """Reference: the tie-inclusive vote, one query at a time."""
    train_x = np.asarray(model.fitted_state["train_x"])
    train_y = np.asarray(model.fitted_state["train_y"])
    k = min(int(model.params["k"]), len(train_x))
    scores = np.empty(len(Xs))
    for j, q in enumerate(Xs):
        if model.params["metric"] == "euclidean":
            d = np.sqrt(((q - train_x) ** 2).sum(axis=1))
        else:
            d = np.abs(q - train_x).sum(axis=1)
        kth = np.partition(d, k - 1)[k - 1]
        scores[j] = float(train_y[d <= kth].mean())
    return scores


def dense_knn_scores(model, Xs):
    """Reference: the euclidean distance of every (query, training row) pair
    from the pinned per-feature sum, then the tie-inclusive vote, unchunked."""
    genuine = model.fitted_state["train_y"] == 1.0
    k = min(int(model.params["k"]), len(genuine))
    d = dense_distances(model, Xs)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    near = d <= kth[:, None]
    return (near & genuine).sum(axis=1) / near.sum(axis=1)


def dense_distances(model, Xs):
    """Every (query, training row) pair's euclidean distance from the pinned
    per-feature sum."""
    train_x = model.fitted_state["train_x"]
    return np.sqrt(classifiers._pinned_sum(
        lambda j, out: np.square(np.subtract(Xs[:, j, None], train_x[:, j], out=out), out=out),
        np.empty((4, len(Xs), len(train_x)))))


def screened_knn_scores(model, Xs):
    """_score_knn's scores, and whether the screen ran for each chunk."""
    screened = []
    candidates = classifiers._knn_candidates

    def spy(*args):
        pairs = candidates(*args)
        screened.append(pairs is not None)
        return pairs

    with mock.patch.object(classifiers, "_knn_candidates", spy):
        return classifiers._score_knn(model, Xs), screened


class TestKnnVote:
    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    @pytest.mark.parametrize("k", [1, 5, 15])
    def test_vote_equals_per_query_loop(self, metric, k):
        # every training row appears three times with mixed labels, so the
        # k-th distance is tied for queries on and off the training rows
        base = np.round(blob(5.0, 40, 8), 1)
        X = np.vstack([base, base, base])
        y = np.random.default_rng(9).integers(0, 2, size=len(X)).astype(float)
        model = train("knn", {"k": k, "metric": metric}, X, y, 0)
        mu, sd = classifiers._standardize_fit(X)
        queries = np.vstack([(X - mu) / sd, np.random.default_rng(10).normal(size=(50, 15))])
        scores = classifiers._score_knn(model, queries)
        assert scores.tobytes() == reference_knn_scores(model, queries).tobytes()
        assert len(set(scores.tolist()) - {0.0, 1.0}) > 0

    @pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
    def test_chunk_size_leaves_scores_unchanged(self, metric, monkeypatch):
        X = blob(5.0, 120, 8)
        y = np.random.default_rng(3).integers(0, 2, size=len(X)).astype(float)
        model = train("knn", {"k": 5, "metric": metric}, X, y, 0)
        queries = np.random.default_rng(4).normal(size=(37, 15))
        scores = classifiers._score_knn(model, queries)
        # one query per chunk, an odd number of queries per chunk, one chunk
        for elements in (1, 7 * len(X) + 1, len(queries) * len(X)):
            monkeypatch.setattr(classifiers, "KNN_CHUNK_ELEMENTS", elements)
            assert classifiers._score_knn(model, queries).tobytes() == scores.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), metric=st.sampled_from(["euclidean", "manhattan"]),
           k=st.sampled_from([1, 3, 5, 7, 9, 15]),
           n=st.one_of(st.integers(2, 20), st.integers(21, 1200)), copies=st.integers(1, 3),
           rows=st.sampled_from(["normal", "rounded", "permuted"]),
           n_queries=st.integers(1, 120))
    def test_vote_equals_per_query_loop_property(self, seed, metric, k, n, copies, rows,
                                                 n_queries):
        # repeated and rounded rows tie the k-th distance exactly; permutations
        # of one row are equally far from a query of 15 equal values in exact
        # arithmetic, so their float64 ties depend on the order of additions;
        # k may reach or pass the row count; past about 270 rows 120 queries
        # span several chunks
        rng = np.random.default_rng(seed)
        m = max(1, n // copies)
        if rows == "permuted":
            X = permuted_rows(rng, m)
        else:
            X = rng.normal(0.0, 1.5, (m, 15))
            X = np.round(X) if rows == "rounded" else X
        X = np.vstack([X] * copies)
        y = rng.integers(0, 2, size=len(X)).astype(float)
        if len(X) < 2 or y.min() == y.max():
            X = np.vstack([X, X[:1] + 1.0, X[:1]])
            y = np.concatenate([y, [0.0, 1.0]])
        model = train("knn", {"k": k, "metric": metric}, X, y, 0)
        model = replace(model, fitted_state={**model.fitted_state, "train_x": X})
        queries = np.vstack([X, rng.normal(size=(n_queries, 15)),
                             np.repeat(rng.uniform(-1.0, 1.0, (n_queries, 1)), 15, axis=1)])
        queries = queries[rng.permutation(len(queries))[:n_queries]]
        scores = classifiers._score_knn(model, queries)
        assert scores.tobytes() == reference_knn_scores(model, queries).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.sampled_from(KNN_KS),
           n=st.one_of(st.integers(2, 20), st.integers(21, 1200),
                       st.sampled_from([99, 100, 101, 199, 200, 1000, 1001, 1599, 1600])),
           copies=st.integers(1, 3),
           rows=st.sampled_from(["normal", "rounded", "permuted"]),
           nearest=st.sampled_from(["anywhere", "one group"]),
           offset=st.sampled_from([0.0, 1e3]), n_queries=st.integers(1, 300),
           elements=st.sampled_from(["one query", "odd", 1 << 15, classifiers.KNN_CHUNK_ELEMENTS]))
    def test_screened_scores_equal_dense_kernel_property(self, seed, k, n, copies, rows,
                                                         nearest, offset, n_queries, elements):
        # as in the property above, the k-th distance ties exactly and k may
        # pass the row count; rows and queries far from the origin make the
        # screen's matrix product cancel, so its rounding error is large; the
        # chunks hold one query, 7 queries or what 2**15 pairs or the default
        # allow, so candidates are gathered across every kind of split.  Row
        # counts below, at and past SCREEN_GROUPS, and not a multiple of it,
        # vary the groups; "one group" copies a row at that stride, so a
        # query on it has its nearest rows in one group, whose minimum is
        # the only one of them the screen's bound sees
        rng = np.random.default_rng(seed)
        m = max(1, n // copies)
        if rows == "permuted":
            X = permuted_rows(rng, m)
        else:
            X = rng.normal(0.0, 1.5, (m, 15))
            X = np.round(X) if rows == "rounded" else X
        X = np.vstack([X] * copies)
        y = rng.integers(0, 2, size=len(X)).astype(float)
        if len(X) < 2 or y.min() == y.max():
            X = np.vstack([X, X[:1] + 1.0, X[:1]])
            y = np.concatenate([y, [0.0, 1.0]])
        groups = min(classifiers.SCREEN_GROUPS, len(X))
        start = int(rng.integers(groups))
        if nearest == "one group":
            X[start::groups] = X[start]
        queries = np.vstack([X, rng.normal(size=(n_queries, 15)),
                             np.repeat(rng.uniform(-1.0, 1.0, (n_queries, 1)), 15, axis=1)])
        queries = queries[rng.permutation(len(queries))[:n_queries]]
        if nearest == "one group":
            queries = np.vstack([X[start], queries[1:]])
        queries = queries + offset
        model = train("knn", {"k": k, "metric": "euclidean"}, X, y, 0)
        model = replace(model, fitted_state={**model.fitted_state, "train_x": X + offset})
        elements = {"one query": 1, "odd": 7 * len(X) + 1}.get(elements, elements)
        with mock.patch.object(classifiers, "KNN_CHUNK_ELEMENTS", elements):
            scores, screened = screened_knn_scores(model, queries)
        chunk = max(1, elements // len(X))
        assert screened == [True] * -(-len(queries) // chunk)
        assert scores.tobytes() == dense_knn_scores(model, queries).tobytes()

    @pytest.mark.parametrize("k", KNN_KS)
    def test_screen_keeps_nearest_rows_that_share_a_group(self, k):
        # 1000 rows, so the groups are rows g, g + 100, ...: the query's 10
        # nearest rows are all in group 7, so the group minima bound its k-th
        # smallest screen value only through farther rows, yet every row
        # within the k-th distance is a candidate
        rng = np.random.default_rng(13)
        X = rng.normal(0.0, 1.5, (1000, 15))
        X[7::100] = X[7] + 1e-3 * np.arange(10)[:, None]
        y = rng.integers(0, 2, size=len(X)).astype(float)
        model = train("knn", {"k": k, "metric": "euclidean"}, X, y, 0)
        mu, sd = classifiers._standardize_fit(X)
        queries = (X[7:8] - mu) / sd
        layout = classifiers._layout_of(model.fitted_state["train_x"])
        screen = (-2.0 * queries) @ layout[:-1] + layout[-1]
        if 1 < k <= 10:
            # the layout defeats the bound: it is looser than the k-th value
            groups = screen.reshape(1, 10, 100).min(axis=1)
            assert np.sort(groups[0])[k - 1] > np.sort(screen[0])[k - 1]
        pairs = classifiers._knn_candidates(queries, layout, k)
        d = dense_distances(model, queries)[0]
        assert set(np.flatnonzero(d <= np.sort(d)[k - 1])) <= set(pairs.tolist())
        scores, screened = screened_knn_scores(model, queries)
        assert screened == [True]
        assert scores.tobytes() == dense_knn_scores(model, queries).tobytes()

    def test_layout_is_prepared_once_per_model_and_never_serialized(self, monkeypatch):
        X = blob(5.0, 120, 8)
        y = np.random.default_rng(3).integers(0, 2, size=len(X)).astype(float)
        trained = train("knn", default_params("knn"), X, y, 0)
        parsed = deserialize(serialize(trained))
        for model in (trained, parsed):
            train_x = model.fitted_state["train_x"]
            layout = train_x.base
            assert layout.shape == (16, len(X))
            assert np.array_equal(layout[:-1].T, train_x)
            assert np.array_equal(layout[-1], (train_x ** 2).sum(axis=1))
            assert classifiers._layout_of(train_x) is layout
        # the wire format holds the rows once, as the envelope always did
        rows = np.array(trained.fitted_state["train_x"])
        plain = replace(trained, fitted_state={**trained.fitted_state, "train_x": rows})
        assert plain.fitted_state["train_x"].base is None
        assert classifiers.model_envelope(trained) == classifiers.model_envelope(plain)
        assert serialize(trained) == serialize(parsed) == serialize(plain)
        assert set(classifiers.model_envelope(parsed)["fitted_state"]) == {
            "train_x", "train_y", "standardize_mu", "standardize_sd"}
        # sessions scored against a model reuse its layout
        built = []
        layout_of = classifiers._knn_layout
        monkeypatch.setattr(classifiers, "_knn_layout",
                            lambda rows: built.append(len(rows)) or layout_of(rows))
        queries = np.random.default_rng(4).normal(size=(50, 15))
        for _ in range(3):
            scores = predict_scores(parsed, queries)
        assert built == []
        assert scores.tobytes() == predict_scores(plain, queries).tobytes()
        assert built == [len(X)]

    def test_session_is_screened_in_one_chunk(self):
        # the size the service scores: a 50-row session against a default
        # kNN model of 1000 training rows
        rng = np.random.default_rng(12)
        X = rng.normal(0.0, 1.5, (1000, 15))
        y = np.repeat([1.0, 0.0], 500)
        model = train("knn", default_params("knn"), X, y, 0)
        _, screened = screened_knn_scores(model, rng.normal(0.0, 1.5, (50, 15)))
        assert screened == [True]

    @pytest.mark.parametrize("scale, screened", [
        (1e-160, False),  # the squares underflow
        (1e150, True),  # the norms stay below 2**1020
        (1e155, False),  # the squares overflow
        (1e200, False),  # a forged model's rows
    ])
    def test_screen_falls_back_where_its_bound_may_fail(self, scale, screened):
        rng = np.random.default_rng(11)
        X = np.round(rng.normal(0.0, 1.5, (300, 15)))
        y = rng.integers(0, 2, size=len(X)).astype(float)
        queries = np.vstack([X[:20], rng.normal(size=(40, 15))]) * scale
        model = train("knn", {"k": 5, "metric": "euclidean"}, X, y, 0)
        model = replace(model, fitted_state={**model.fitted_state, "train_x": X * scale})
        with np.errstate(over="ignore", under="ignore"):
            scores, ran = screened_knn_scores(model, queries)
            assert scores.tobytes() == dense_knn_scores(model, queries).tobytes()
        assert ran == [screened]

    @pytest.mark.parametrize("slack", [classifiers.SCREEN_SLACK, 0.0])
    def test_screen_keeps_unequal_sums_with_equal_roots(self, slack, monkeypatch):
        # integers below 2**53 make every step of the screen exact, so here it
        # is right even without slack; sqrt(2**52 + 1) rounds to 2**26, the
        # root of 2**52, so the two nearest rows tie after the sqrt, where
        # the vote compares them
        assert np.sqrt(2.0 ** 52 + 1) == np.sqrt(2.0 ** 52)
        X = np.zeros((3, 15))
        X[:, 0] = [2.0 ** 26, 2.0 ** 26, 2.0 ** 27]
        X[1, 1] = 1.0
        model = TrainedModel("knn", {"k": 1, "metric": "euclidean"},
                             {"train_x": X, "train_y": np.array([0.0, 1.0, 1.0])}, 0)
        monkeypatch.setattr(classifiers, "SCREEN_SLACK", slack)
        scores, screened = screened_knn_scores(model, np.zeros((1, 15)))
        assert screened == [True]
        assert scores.tolist() == [0.5]

    def test_numpy_sums_15_values_pairwise(self):
        # 1.0 then 14 halves of its last bit: added left to right each half
        # rounds away, added pairwise they first meet and survive
        x = np.array([1.0] + [2.0 ** -53] * 14)
        t = x.tolist()
        left_to_right = 0.0
        for value in t:
            left_to_right += value
        pairwise = ((t[0] + t[1]) + (t[2] + t[3])) + ((t[4] + t[5]) + (t[6] + t[7]))
        for value in t[8:]:
            pairwise += value
        assert left_to_right != pairwise
        summed = x[None, None, :].sum(axis=-1)[0, 0]
        assert summed == pairwise, (
            f"numpy {np.__version__} no longer adds 15 float64 values as "
            "((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7)), then t8..t14 one at a time; "
            "classifiers._pinned_sum adds in that order to reproduce numpy's "
            "sum, so kNN scores can change: follow numpy's new order there")
        # the broadcast form the dense path uses, each term written to out,
        # and the gathered form of the candidates, one (15, P) array of terms
        broadcast = classifiers._pinned_sum(
            lambda j, out: np.abs(np.subtract(x[j, None, None], np.zeros(1), out=out), out=out),
            np.empty((4, 1, 1)))
        gathered = np.repeat(x[:, None], 3, axis=1)
        assert broadcast[0, 0] == pairwise
        assert classifiers._pinned_sum(lambda j, out: gathered[j],
                                       np.empty((4, 3))).tolist() == [pairwise] * 3


def golden_knn_grid():
    """(name, model, raw queries) for 12 seeded kNN models: both metrics,
    k in {1, 5, 15}, 40 and 1000 training rows.  In every third model the
    rows are permutations of four base rows and the model's standardization
    is the identity: a query of 15 equal values is then equally far from
    every permutation of a base row in exact arithmetic, so which of those
    distances tie in float64 depends on the order of the 15 additions."""
    grid = itertools.product(["euclidean", "manhattan"], [1, 5, 15], [40, 1000])
    for i, (metric, k, n) in enumerate(grid):
        rng = np.random.default_rng(1000 + i)
        y = rng.integers(0, 2, size=n).astype(float)
        if i % 3:
            X = rng.normal(6.0, 2.0, (n, 15)) ** 2
            queries = np.vstack([X[:60], rng.normal(6.0, 2.5, (60, 15)) ** 2])
            yield f"{metric}-k{k}-n{n}", train("knn", {"k": k, "metric": metric}, X, y, 0), queries
            continue
        X = permuted_rows(rng, n)
        queries = np.vstack([X[:60], np.repeat(rng.uniform(-1.0, 1.0, (60, 1)), 15, axis=1)])
        model = train("knn", {"k": k, "metric": metric}, X, y, 0)
        identity = {"train_x": X, "standardize_mu": np.zeros(15), "standardize_sd": np.ones(15)}
        yield (f"{metric}-k{k}-n{n}-permuted",
               replace(model, fitted_state={**model.fitted_state, **identity}), queries)


# SHA-256 of predict_scores(model, queries).tobytes() for golden_knn_grid,
# computed with the (query, training row, feature) difference array and its
# .sum(axis=2) that the per-feature kernel replaced
KNN_GOLDEN_SHA256 = {
    "euclidean-k1-n40-permuted": "9471a5c06be4320f76ab99b36158595c95d91a2a0b26d6f3d91567573a64f19e",
    "euclidean-k1-n1000": "c523f87079dc89ee2d181cbfb2c037dc46324d14108e3b0aed8becf5f67680a1",
    "euclidean-k5-n40": "9ca23f3fe163146e400c7143d618adf86388df0eaaa860c10587ddd6f2318050",
    "euclidean-k5-n1000-permuted": "5d19da83250bf198f1a41c61b2e5bc15e04d066746cfd40b6eded810cc329d60",
    "euclidean-k15-n40": "5749b83da262a2afffb73907062abb9f2cfccc61746378d7f03fddc2d959777b",
    "euclidean-k15-n1000": "5432c34329c6e03cbb7aadf4f8c88062f79fd865e347601537e4286875d4e3f8",
    "manhattan-k1-n40-permuted": "816a961605562fc3c39a0bbaddb31d2ab93183d235f38929b459c80b8be885dc",
    "manhattan-k1-n1000": "e9f3240bce4456f54d5c82d114886c2b319903e57e9f0fe710f86ebb1383d006",
    "manhattan-k5-n40": "0c2027daa53cb70e83ec53a3dc3ace8973c6ea6ece8f116a1cacc45e4a0fdd9d",
    "manhattan-k5-n1000-permuted": "12cafde1d78077c5f16dbe3f65853b5e7547f8fad35ff9f3a11bac8256ab8725",
    "manhattan-k15-n40": "918f79abd0cfa8c4a13601d97bd3256606ad4c9a3ad7ceb5581e7bae76f2b841",
    "manhattan-k15-n1000": "9cf8620caa6c7558cc1c5e9bb6ddcd4c2e0c5ad2b0f6a6904cd1a0e28373d454",
}


def test_knn_scores_equal_golden_bytes():
    digests = {name: hashlib.sha256(predict_scores(model, queries).tobytes()).hexdigest()
               for name, model, queries in golden_knn_grid()}
    assert digests == KNN_GOLDEN_SHA256


def test_knn_scores_ignore_train_x_layout():
    # fitting and parsing keep train_x column-major; a round-tripped copy and
    # a row-major copy built by hand must score the same bytes
    for name, model, queries in golden_knn_grid():
        clone = classifiers.model_from_dict(json.loads(serialize(model)))
        rows = np.ascontiguousarray(model.fitted_state["train_x"])
        by_hand = replace(model, fitted_state={**model.fitted_state, "train_x": rows})
        assert clone.fitted_state["train_x"].flags.f_contiguous
        assert not rows.flags.f_contiguous
        expected = predict_scores(model, queries).tobytes()
        assert predict_scores(clone, queries).tobytes() == expected, name
        assert predict_scores(by_hand, queries).tobytes() == expected, name


def test_concurrent_knn_scoring_equals_sequential():
    # request threads score at the same time and numpy releases the
    # interpreter lock inside its loops, so scratch buffers must not be shared
    grid = list(golden_knn_grid())
    expected = [predict_scores(model, queries).tobytes() for _, model, queries in grid]
    mismatches = []

    def score_all(offset):
        for i in range(3 * len(grid)):
            at = (offset + i) % len(grid)
            _, model, queries = grid[at]
            if predict_scores(model, queries).tobytes() != expected[at]:
                mismatches.append(grid[at][0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=score_all, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


class TestSerialization:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_round_trip_preserves_predictions(self, algorithm, blobs):
        model = train(algorithm, default_params(algorithm), *blobs, 0)
        clone = deserialize(serialize(model))
        rng = np.random.default_rng(4)
        queries = rng.normal(6.5, 3.0, (1000, 15)) ** 2
        assert np.array_equal(predict_scores(model, queries),
                              predict_scores(clone, queries))
        assert np.array_equal(predict_labels(model, queries), predict_labels(clone, queries))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_fitted_numbers_are_arrays_fresh_and_parsed(self, algorithm, blobs):
        model = train(algorithm, default_params(algorithm), *blobs, 0)
        clone = deserialize(serialize(model))
        assert model.fitted_state.keys() == clone.fitted_state.keys()
        for key, value in model.fitted_state.items():
            if key in ("tree", "trees"):
                # node numbering may differ; the trees may not
                assert clone.fitted_state[key].to_dicts() == value.to_dicts()
                for trees in (value, clone.fitted_state[key]):
                    assert trees.threshold.dtype == trees.value.dtype == float
                    assert trees.feature.dtype == trees.child.dtype == np.int64
            elif key == "b":
                assert type(value) is type(clone.fitted_state[key]) is float
            else:
                for state in (model.fitted_state, clone.fitted_state):
                    assert isinstance(state[key], np.ndarray) and state[key].dtype == float
                assert np.array_equal(clone.fitted_state[key], value)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_serialized_bytes_ignore_memory_layout(self, algorithm, blobs):
        # kNN keeps train_x column-major; the wire format writes rows either way
        model = train(algorithm, default_params(algorithm), *blobs, 0)
        row_major = replace(model, fitted_state={
            key: np.ascontiguousarray(value) if isinstance(value, np.ndarray) else value
            for key, value in model.fitted_state.items()})
        payload = serialize(model)
        assert serialize(row_major) == payload
        assert serialize(deserialize(payload)) == payload

    def test_round_trip_bytes_stable(self, blobs):
        model = train("logistic_regression", default_params("logistic_regression"),
                      *blobs, 0)
        payload = serialize(model)
        assert serialize(deserialize(payload)) == payload

    def test_truncated_payload_rejected(self, blobs):
        payload = serialize(train("lda", default_params("lda"), *blobs, 0))
        with pytest.raises(ValidationError, match="corrupt model payload"):
            deserialize(payload[:-20])

    def test_version_bump_rejected_explicitly(self, blobs):
        envelope = json.loads(serialize(train("lda", default_params("lda"), *blobs, 0)))
        envelope["format_version"] = 2
        with pytest.raises(ValidationError, match="format_version 2 unsupported"):
            deserialize(json.dumps(envelope).encode())

    @pytest.mark.parametrize("corrupt", [
        lambda state: state.update(train_x=[[repr(v) for v in row] for row in state["train_x"]]),
        lambda state: state.update(train_y=[v == 1.0 for v in state["train_y"]]),
        lambda state: state["train_x"][0].pop(),
    ], ids=["numeric-strings", "bool-labels", "ragged"])
    def test_malformed_knn_rows_rejected(self, blobs, corrupt):
        envelope = json.loads(serialize(train("knn", default_params("knn"), *blobs, 0)))
        corrupt(envelope["fitted_state"])
        with pytest.raises(ValidationError, match=r"^train_[xy] must"):
            classifiers.model_from_dict(envelope)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError, match="corrupt model payload"):
            deserialize(b"\x00\x01\x02not json")

    def test_deeply_nested_payload_rejected(self):
        with pytest.raises(ValidationError, match="corrupt model payload"):
            deserialize(b"[" * 50000)

    def test_integer_beyond_the_digit_limit_rejected(self):
        # json.loads raises a plain ValueError past sys.get_int_max_str_digits()
        with pytest.raises(ValidationError, match="corrupt model payload"):
            deserialize(b'{"train_seed": ' + b"1" * 5000 + b"}")
