"""A six-learner classifier zoo with one interface and lossless serialization.

Every model standardizes features internally (band powers span orders of
magnitude), scores genuine-ness in [0, 1], and resolves ties toward impostor:
a prediction is genuine only when the score is strictly above 0.5.  Fitted
state is stored as plain Python numbers so the JSON envelope round-trips
predictions bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dataset import LABEL_GENUINE, LABEL_IMPOSTOR
from .errors import (
    DataError,
    DegenerateTrainingError,
    FormatError,
    ParamError,
    SchemaError,
    UnsupportedVersionError,
)
from .features import FEATURE_NAMES

FORMAT_VERSION = 1

ALGORITHMS = (
    "knn",
    "logistic_regression",
    "lda",
    "gaussian_nb",
    "decision_tree",
    "random_forest",
)


# --- hyperparameter domains ---------------------------------------------------

class Choice:
    def __init__(self, values, default):
        self.values = list(values)
        self.default = default

    def sample(self, rng):
        return self.values[int(rng.integers(len(self.values)))]

    def contains(self, v):
        return v in self.values


class IntRange:
    def __init__(self, lo, hi, default, sample_lo=None):
        self.lo, self.hi, self.default = lo, hi, default
        self.sample_lo = lo if sample_lo is None else sample_lo

    def sample(self, rng):
        return int(rng.integers(self.sample_lo, self.hi + 1))

    def contains(self, v):
        return isinstance(v, (int, np.integer)) and self.lo <= v <= self.hi


class LogUniform:
    def __init__(self, lo, hi, default):
        self.lo, self.hi, self.default = lo, hi, default

    def sample(self, rng):
        return float(np.exp(rng.uniform(np.log(self.lo), np.log(self.hi))))

    def contains(self, v):
        return np.isreal(v) and self.lo <= v <= self.hi


class UniformFloat:
    def __init__(self, lo, hi, default):
        self.lo, self.hi, self.default = lo, hi, default

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))

    def contains(self, v):
        return np.isreal(v) and self.lo <= v <= self.hi


PARAM_SPACES = {
    "knn": {
        "k": Choice([1, 3, 5, 7, 9, 15], default=5),
        "metric": Choice(["euclidean", "manhattan"], default="euclidean"),
    },
    "logistic_regression": {
        "l2": LogUniform(1e-4, 1e2, default=1e-2),
        "max_epochs": IntRange(100, 1000, default=300),
    },
    "lda": {
        "shrinkage": UniformFloat(0.0, 1.0, default=0.0),
    },
    "gaussian_nb": {
        "var_smoothing": LogUniform(1e-12, 1e-6, default=1e-9),
    },
    "decision_tree": {
        "max_depth": IntRange(2, 20, default=10),
        "min_leaf": IntRange(1, 20, default=1),
    },
    "random_forest": {
        # single-tree forests are structurally valid (they pin the bootstrap
        # equivalence with decision_tree) but the search proposes 10..200
        "trees": IntRange(1, 200, default=50, sample_lo=10),
        "max_depth": IntRange(2, 20, default=10),
        "features_per_split": Choice(["sqrt", "log2", "all"], default="sqrt"),
    },
}


def default_params(algorithm: str) -> dict:
    return {name: dom.default for name, dom in PARAM_SPACES[algorithm].items()}


def sample_params(algorithm: str, rng: np.random.Generator) -> dict:
    return {name: dom.sample(rng) for name, dom in PARAM_SPACES[algorithm].items()}


def validate_params(algorithm: str, params: dict) -> None:
    if algorithm not in PARAM_SPACES:
        raise ParamError(f"unknown algorithm {algorithm!r}")
    space = PARAM_SPACES[algorithm]
    if set(params) != set(space):
        raise ParamError(
            f"{algorithm} expects parameters {sorted(space)}, got {sorted(params)}"
        )
    for name, value in params.items():
        if not space[name].contains(value):
            raise ParamError(f"{algorithm}.{name}={value!r} outside its domain")


# --- model container ----------------------------------------------------------

@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    params: dict
    feature_order: tuple[str, ...]
    fitted_state: dict
    train_seed: int
    cv_accuracy: Optional[float] = None
    format_version: int = FORMAT_VERSION


def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mu, sd


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# --- per-algorithm fitting ----------------------------------------------------

def _fit_knn(Xs, y, params, rng):
    return {"train_x": Xs.tolist(), "train_y": y.tolist()}


def _fit_logistic(Xs, y, params, rng):
    n, p = Xs.shape
    w = np.zeros(p)
    b = 0.0
    l2 = float(params["l2"])
    # 1/L step size from a trace bound on the logistic Hessian
    lipschitz = 0.25 * (float((Xs * Xs).sum()) / n + 1.0) + l2
    lr = 1.0 / lipschitz
    for _ in range(int(params["max_epochs"])):
        z = Xs @ w + b
        r = _sigmoid(z) - y
        gw = Xs.T @ r / n + l2 * w
        gb = float(r.mean())
        w -= lr * gw
        b -= lr * gb
        if max(float(np.abs(gw).max()), abs(gb)) < 1e-10:
            break
    return {"w": w.tolist(), "b": float(b)}


def _fit_lda(Xs, y, params, rng):
    X1, X0 = Xs[y == 1.0], Xs[y == 0.0]
    mu1, mu0 = X1.mean(axis=0), X0.mean(axis=0)
    c1 = (X1 - mu1).T @ (X1 - mu1)
    c0 = (X0 - mu0).T @ (X0 - mu0)
    pooled = (c1 + c0) / max(len(Xs) - 2, 1)
    s = float(params["shrinkage"])
    p = Xs.shape[1]
    target = (np.trace(pooled) / p) * np.eye(p)
    cov = (1.0 - s) * pooled + s * target
    diff = mu1 - mu0
    try:
        w = np.linalg.solve(cov, diff)
    except np.linalg.LinAlgError:
        w = np.linalg.pinv(cov) @ diff
    b = float(-w @ (mu1 + mu0) / 2.0 + math.log(len(X1) / len(X0)))
    return {"w": w.tolist(), "b": b}


def _fit_gaussian_nb(Xs, y, params, rng):
    out = {"log_prior": [], "mean": [], "var": []}
    overall_var = float(Xs.var(axis=0).max())
    eps = float(params["var_smoothing"]) * (overall_var if overall_var > 0 else 1.0)
    for lab in (0.0, 1.0):
        Xc = Xs[y == lab]
        out["log_prior"].append(math.log(len(Xc) / len(Xs)))
        out["mean"].append(Xc.mean(axis=0).tolist())
        out["var"].append((Xc.var(axis=0) + eps).tolist())
    return out


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
    go_left = X[idx, feature] <= threshold
    return {
        "f": feature,
        "t": float(threshold),
        "l": _fit_tree_node(X, y, idx[go_left], depth + 1, max_depth, min_leaf,
                            rng, max_features),
        "r": _fit_tree_node(X, y, idx[~go_left], depth + 1, max_depth, min_leaf,
                            rng, max_features),
    }


def _fit_decision_tree(Xs, y, params, rng):
    tree = _fit_tree_node(Xs, y, np.arange(len(Xs)), 0,
                          int(params["max_depth"]), int(params["min_leaf"]),
                          rng, Xs.shape[1])
    return {"tree": tree}


def _n_split_features(spec: str, p: int) -> int:
    if spec == "sqrt":
        return max(1, int(math.sqrt(p)))
    if spec == "log2":
        return max(1, int(math.log2(p)))
    return p


def _fit_random_forest(Xs, y, params, rng):
    n = len(Xs)
    max_features = _n_split_features(params["features_per_split"], Xs.shape[1])
    trees = []
    for _ in range(int(params["trees"])):
        idx = rng.integers(0, n, size=n)
        tree_rng = np.random.default_rng(int(rng.integers(2 ** 63)))
        trees.append(_fit_tree_node(Xs[idx], y[idx], np.arange(n), 0,
                                    int(params["max_depth"]), 1, tree_rng,
                                    max_features))
    return {"trees": trees}


_FITTERS = {
    "knn": _fit_knn,
    "logistic_regression": _fit_logistic,
    "lda": _fit_lda,
    "gaussian_nb": _fit_gaussian_nb,
    "decision_tree": _fit_decision_tree,
    "random_forest": _fit_random_forest,
}


def train(algorithm: str, params: dict, X, y, seed: int) -> TrainedModel:
    """Fit one model on rows X (n x 15), y == 1.0 marking genuine rows;
    deterministic given (algorithm, params, X, y, seed)."""
    validate_params(algorithm, params)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(X) < 2:
        raise DegenerateTrainingError("need at least 2 training instances")
    if X.shape != (len(X), len(FEATURE_NAMES)) or y.shape != (len(X),):
        raise DataError(f"training data must be rows of {len(FEATURE_NAMES)} "
                        "features with one label each")
    if not np.isfinite(X).all():
        raise DataError("training features contain non-finite values")
    if y.min() == y.max():
        raise DegenerateTrainingError("training data covers a single label")
    mu, sd = _standardize_fit(X)
    Xs = (X - mu) / sd
    rng = np.random.default_rng(seed)
    state = _FITTERS[algorithm](Xs, y, params, rng)
    state["standardize_mu"] = mu.tolist()
    state["standardize_sd"] = sd.tolist()
    return TrainedModel(
        algorithm=algorithm,
        params=dict(params),
        feature_order=tuple(FEATURE_NAMES),
        fitted_state=state,
        train_seed=int(seed),
        cv_accuracy=None,
    )


# --- prediction ----------------------------------------------------------------

def _score_knn(model, Xs):
    train_x = np.asarray(model.fitted_state["train_x"])
    train_y = np.asarray(model.fitted_state["train_y"])
    k = min(int(model.params["k"]), len(train_x))
    metric = model.params["metric"]
    scores = np.empty(len(Xs))
    chunk = max(1, int(2e6 // max(train_x.size, 1)))
    for lo in range(0, len(Xs), chunk):
        Q = Xs[lo:lo + chunk]
        if metric == "euclidean":
            d = np.sqrt(((Q[:, None, :] - train_x[None, :, :]) ** 2).sum(axis=2))
        else:
            d = np.abs(Q[:, None, :] - train_x[None, :, :]).sum(axis=2)
        kth = np.partition(d, k - 1, axis=1)[:, k - 1]
        # all neighbors tied with the k-th are included, so exact duplicates
        # cannot be broken by storage order
        for j in range(len(Q)):
            mask = d[j] <= kth[j]
            scores[lo + j] = float(train_y[mask].mean())
    return scores


def _score_linear(model, Xs):
    w = np.asarray(model.fitted_state["w"])
    b = float(model.fitted_state["b"])
    return _sigmoid(Xs @ w + b)


def _score_gaussian_nb(model, Xs):
    state = model.fitted_state
    ll = []
    for ci in (0, 1):
        mean = np.asarray(state["mean"][ci])
        var = np.asarray(state["var"][ci])
        log_density = -0.5 * (np.log(2.0 * np.pi * var) + (Xs - mean) ** 2 / var)
        ll.append(log_density.sum(axis=1) + state["log_prior"][ci])
    return _sigmoid(ll[1] - ll[0])


def _score_tree(node, Xs, out, idx):
    if "leaf" in node:
        out[idx] = node["leaf"]
        return
    go_left = Xs[idx, node["f"]] <= node["t"]
    _score_tree(node["l"], Xs, out, idx[go_left])
    _score_tree(node["r"], Xs, out, idx[~go_left])


def _score_decision_tree(model, Xs):
    out = np.empty(len(Xs))
    _score_tree(model.fitted_state["tree"], Xs, out, np.arange(len(Xs)))
    return out


def _score_random_forest(model, Xs):
    total = np.zeros(len(Xs))
    scratch = np.empty(len(Xs))
    trees = model.fitted_state["trees"]
    for tree in trees:
        _score_tree(tree, Xs, scratch, np.arange(len(Xs)))
        total += scratch
    return total / len(trees)


_SCORERS = {
    "knn": _score_knn,
    "logistic_regression": _score_linear,
    "lda": _score_linear,
    "gaussian_nb": _score_gaussian_nb,
    "decision_tree": _score_decision_tree,
    "random_forest": _score_random_forest,
}


def _check_schema(model: TrainedModel, n_values: int, names) -> None:
    if names is not None and tuple(names) != tuple(model.feature_order):
        raise SchemaError("feature names do not match the model's feature order")
    if n_values != len(model.feature_order):
        raise SchemaError(
            f"expected {len(model.feature_order)} features, got {n_values}"
        )


def predict_scores(model: TrainedModel, X: np.ndarray, names=None) -> np.ndarray:
    """Genuine-ness scores in [0, 1] for a batch of feature vectors."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _check_schema(model, X.shape[1], names)
    mu = np.asarray(model.fitted_state["standardize_mu"])
    sd = np.asarray(model.fitted_state["standardize_sd"])
    return _SCORERS[model.algorithm](model, (X - mu) / sd)


def predict_score(model: TrainedModel, features, names=None) -> float:
    return float(predict_scores(model, np.asarray(features, dtype=float)[None, :],
                                names=names)[0])


def predict_labels(model: TrainedModel, X: np.ndarray, names=None) -> list[str]:
    scores = predict_scores(model, X, names=names)
    # strict inequality: a score of exactly 0.5 fails closed to impostor
    return [LABEL_GENUINE if s > 0.5 else LABEL_IMPOSTOR for s in scores]


def predict(model: TrainedModel, features, names=None) -> str:
    return predict_labels(model, np.asarray(features, dtype=float)[None, :],
                          names=names)[0]


# --- serialization --------------------------------------------------------------

def serialize(model: TrainedModel) -> bytes:
    envelope = {
        "format_version": model.format_version,
        "algorithm": model.algorithm,
        "params": model.params,
        "feature_order": list(model.feature_order),
        "fitted_state": model.fitted_state,
        "train_seed": model.train_seed,
        "cv_accuracy": model.cv_accuracy,
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")).encode("utf-8")


def model_to_dict(model: TrainedModel) -> dict:
    return json.loads(serialize(model).decode("utf-8"))


def deserialize(payload: bytes) -> TrainedModel:
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"corrupt model payload: {exc}") from exc
    return model_from_dict(envelope)


def model_from_dict(envelope) -> TrainedModel:
    if not isinstance(envelope, dict):
        raise FormatError("model payload must be a JSON object")
    try:
        version = envelope["format_version"]
        if version != FORMAT_VERSION:
            raise UnsupportedVersionError(
                f"model format_version {version!r} unsupported (expected {FORMAT_VERSION})"
            )
        algorithm = envelope["algorithm"]
        params = envelope["params"]
        feature_order = tuple(envelope["feature_order"])
        state = envelope["fitted_state"]
        train_seed = envelope["train_seed"]
        cv_accuracy = envelope["cv_accuracy"]
    except KeyError as exc:
        raise FormatError(f"model payload missing field {exc}") from exc
    if algorithm not in ALGORITHMS:
        raise FormatError(f"unknown algorithm {algorithm!r}")
    validate_params(algorithm, params)
    if "standardize_mu" not in state or "standardize_sd" not in state:
        raise FormatError("model payload missing standardization state")
    return TrainedModel(
        algorithm=algorithm,
        params=params,
        feature_order=feature_order,
        fitted_state=state,
        train_seed=int(train_seed),
        cv_accuracy=None if cv_accuracy is None else float(cv_accuracy),
    )


def with_cv_accuracy(model: TrainedModel, cv_accuracy: float) -> TrainedModel:
    return replace(model, cv_accuracy=float(cv_accuracy))
