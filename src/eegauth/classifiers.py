"""A six-learner classifier zoo with one interface and lossless serialization.

Every model standardizes features internally (band powers span orders of
magnitude), scores genuine-ness in [0, 1], and resolves ties toward impostor:
a prediction is genuine only when the score is strictly above 0.5.  Fitted
state is float64 arrays (trees: flat node arrays, FlatTrees; kNN's train_x a
view of the layout its scoring multiplies with) from fit to score; only
model_envelope and model_from_dict know the JSON wire format,
which writes floats exactly and trees as nested dicts, so a round trip
reproduces every prediction bit-exactly.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import TrainingError, ValidationError
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

def _is_number(value) -> bool:
    """A finite int or float, not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # a JSON integer beyond the float range
        return False


class Choice:
    def __init__(self, values, default):
        self.values = list(values)
        self.default = default

    def sample(self, rng):
        return self.values[int(rng.integers(len(self.values)))]

    def contains(self, v):
        # same type too: True == 1 and 5.0 == 5, but neither is the choice 5
        return any(type(v) is type(c) and v == c for c in self.values)


class IntRange:
    def __init__(self, lo, hi, default):
        self.lo, self.hi, self.default = lo, hi, default

    def sample(self, rng):
        return int(rng.integers(self.lo, self.hi + 1))

    def contains(self, v):
        return (isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                and self.lo <= v <= self.hi)


class UniformFloat:
    def __init__(self, lo, hi, default):
        self.lo, self.hi, self.default = lo, hi, default

    def sample(self, rng):
        return float(rng.uniform(self.lo, self.hi))

    def contains(self, v):
        return _is_number(v) and self.lo <= v <= self.hi


class LogUniform(UniformFloat):
    def sample(self, rng):
        # math, not numpy, whose exp and log round by numpy's SIMD level
        return math.exp(float(rng.uniform(math.log(self.lo), math.log(self.hi))))


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
        "trees": IntRange(10, 200, default=50),
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
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    space = PARAM_SPACES[algorithm]
    if set(params) != set(space):
        raise ValidationError(
            f"{algorithm} expects parameters {sorted(space)}, got {sorted(params)}"
        )
    for name, value in params.items():
        if not space[name].contains(value):
            raise ValidationError(f"{algorithm}.{name}={value!r} outside its domain")


# --- model container ----------------------------------------------------------

@dataclass(frozen=True)
class TrainedModel:
    algorithm: str
    params: dict
    fitted_state: dict
    train_seed: int
    cv_accuracy: Optional[float] = None


def _standardize_fit(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mu, sd


def _sigmoid(z):
    # np.tanh's last bit depends on numpy's SIMD level, so score bits may too;
    # a label can differ only where the logit is within rounding of 0
    return 0.5 * (1.0 + np.tanh(0.5 * z))


# --- per-algorithm fitting ----------------------------------------------------

def _fit_knn(Xs, y, params, rng):
    # y may be the caller's array
    return {"train_x": _knn_layout(Xs)[:-1].T, "train_y": y.copy()}


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
    return {"w": w, "b": float(b)}


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
    return {"w": w, "b": b}


def _fit_gaussian_nb(Xs, y, params, rng):
    overall_var = float(Xs.var(axis=0).max())
    eps = float(params["var_smoothing"]) * (overall_var if overall_var > 0 else 1.0)
    classes = [Xs[y == lab] for lab in (0.0, 1.0)]
    return {"log_prior": np.array([math.log(len(Xc) / len(Xs)) for Xc in classes]),
            "mean": np.array([Xc.mean(axis=0) for Xc in classes]),
            "var": np.array([Xc.var(axis=0) + eps for Xc in classes])}


# (row, feature) pairs the roots of one lockstep step of _grow_trees span: the
# window of trees grown together is STEP_ELEMENTS // (features drawn * rows),
# enough trees to amortise numpy's per-call cost over deep trees, few enough
# that a step's temporaries (512 KB each at most) stay near a core's L2 cache.
STEP_ELEMENTS = 1 << 16

# uint32 values each refill of a tree's _FeatureDraws takes from its rng
DRAW_CHUNK = 256

# (query, tree) pairs one chunk of FlatTrees.score walks at a time
TREE_CHUNK_ELEMENTS = 1 << 16

_LOW32 = (1 << 32) - 1


@dataclass(frozen=True, eq=False)
class FlatTrees:
    """One or more trees as flat node arrays.  A split node sends a row
    whose feature value is <= its threshold to child + 1 and any other row
    to child; a leaf is its own child and has a nan threshold, so a walk
    that reaches it stays there.  depth is the deepest leaf's depth."""

    feature: np.ndarray    # int64, 0 at a leaf
    threshold: np.ndarray  # float64
    child: np.ndarray      # int64
    value: np.ndarray      # float64 leaf score, 0 at a split
    roots: np.ndarray      # int64, one per tree, in tree order
    depth: int

    def score(self, Xs: np.ndarray) -> np.ndarray:
        """Mean leaf score over the trees: every tree is walked at once, one
        level per step, and leaves are summed in tree order."""
        n, p = Xs.shape
        cells = np.ascontiguousarray(Xs).ravel()
        total = np.empty(n)
        chunk = max(1, TREE_CHUNK_ELEMENTS // len(self.roots))
        for lo in range(0, n, chunk):
            rows = np.arange(lo, min(n, lo + chunk))
            row_start = rows * p
            # (tree, row) so that each tree's leaves are one contiguous row
            node = np.repeat(self.roots[:, None], len(rows), axis=1)
            cell = np.empty_like(node)
            for _ in range(self.depth):
                np.take(self.feature, node, out=cell)
                cell += row_start
                go_left = cells.take(cell) <= self.threshold.take(node)
                np.take(self.child, node, out=node)
                node += go_left
            # cumsum adds tree by tree, as a loop over the trees would
            total[rows] = self.value.take(node).cumsum(axis=0)[-1]
        return total / len(self.roots)

    def to_dicts(self) -> list:
        """Each tree as wire format v1 nested dicts."""
        feature, threshold = self.feature.tolist(), self.threshold.tolist()
        child, value = self.child.tolist(), self.value.tolist()

        def node(at):
            if child[at] == at:
                return {"leaf": value[at]}
            return {"f": feature[at], "t": threshold[at],
                    "l": node(child[at] + 1), "r": node(child[at])}

        return [node(root) for root in self.roots.tolist()]


class _TreeBuilder:
    """FlatTrees filled in node by node, by the grower and by the parser."""

    def __init__(self):
        self.feature, self.threshold, self.child, self.value = [], [], [], []
        self.roots, self.depth = [], 0

    def add(self, count: int) -> int:
        """Index of the first of `count` new leaves, to be filled in."""
        start = len(self.child)
        self.feature += [0] * count
        self.threshold += [math.nan] * count
        self.child += range(start, start + count)
        self.value += [0.0] * count
        return start

    def leaf(self, at: int, value: float, depth: int) -> None:
        self.value[at] = value
        self.depth = max(self.depth, depth)

    def split(self, at: int, feature: int, threshold: float, right: int) -> None:
        """Node `right` becomes the right child; the left child follows it."""
        self.feature[at], self.threshold[at], self.child[at] = feature, threshold, right

    def build(self) -> FlatTrees:
        return FlatTrees(np.array(self.feature, np.int64), np.array(self.threshold),
                         np.array(self.child, np.int64), np.array(self.value),
                         np.array(self.roots, np.int64), self.depth)


class _FeatureDraws:
    """The sorted subsets that successive rng.choice(p, size=k,
    replace=False) calls would draw, decoded from bulk uint32 draws.

    For p <= 10000, numpy's choice runs Floyd's algorithm: for j = p - k ..
    p - 1 it draws v in [0, j] and picks v, or j if v is picked already.  It
    then shuffles the k picks, drawing in [0, i] for i = k - 1 .. 1.  Each
    draw in [0, s - 1] is Lemire's: the next uint32 u gives (u * s) >> 32,
    unless (u * s) mod 2**32 < 2**32 mod s, when u is skipped and the next
    one tried.  rng.integers(0, 2**32, dtype=np.uint32) returns those same
    uint32s, in order and across calls.  The shuffle's draws are decoded only
    to be skipped: the subset is sorted anyway.
    """

    def __init__(self, rng: np.random.Generator, p: int, k: int):
        if not 1 <= k < p <= 10000:
            raise ValueError(f"cannot emulate choice({p}, size={k})")
        self.rng, self.p, self.k = rng, p, k
        self.bound = np.array([*range(p - k + 1, p + 1), *range(k, 1, -1)], np.uint64)
        self.reject_below = np.array([(1 << 32) % s for s in self.bound.tolist()], np.uint64)
        self.unread = np.empty(0, np.uint32)
        self.subsets, self.taken = (), 0

    def next(self) -> np.ndarray:
        while self.taken == len(self.subsets):
            self._refill()
        self.taken += 1
        return self.subsets[self.taken - 1]

    def _refill(self) -> None:
        """Decode every whole subset in the unread values and one more chunk."""
        width = len(self.bound)
        u = np.concatenate([self.unread, self.rng.integers(
            0, 1 << 32, size=DRAW_CHUNK, dtype=np.uint32)])
        while True:
            count = len(u) // width
            m = u[:count * width].astype(np.uint64).reshape(count, width) * self.bound
            rejected = np.flatnonzero((m & np.uint64(_LOW32)) < self.reject_below)
            if not len(rejected):
                break
            # the next value takes the rejected one's place, and so on down
            u = np.delete(u, rejected[0])
        self.unread = u[count * width:]
        picks = (m[:, :self.k] >> np.uint64(32)).astype(np.int64)
        for i in range(1, self.k):
            seen = (picks[:, :i] == picks[:, i, None]).any(axis=1)
            picks[seen, i] = self.p - self.k + i
        picks.sort(axis=1)
        self.subsets, self.taken = picks, 0


class _SortedColumns:
    """Each feature's rows in ascending value order, shared by every tree fit
    on Xs: the value, packed count and row at each position, and for each
    (row, feature) the key f * n + position that sorts rows by value."""

    def __init__(self, Xs, y):
        n, p = self.n, self.p = Xs.shape
        order = np.argsort(Xs.T, axis=1)
        self.value = np.take_along_axis(Xs.T, order, axis=1).ravel()
        # one row counts as 2**32 + label: a cumulative sum then carries the
        # row count in its high half and the genuine count in its low half
        self.count = (y[order] + 2.0 ** 32).astype(np.int64).ravel()
        self.row = order.ravel()
        key = np.empty((n, p), np.int64)
        key[order, np.arange(p)[:, None]] = np.arange(p * n).reshape(p, n)
        self.key = key.ravel()


class _StepArrays:
    """Work arrays of one fit, sized for its largest step and reused by
    every step: allocated afresh, a step's large temporaries went back to
    the system when freed and were faulted in again by the next step, at
    about the cost of the arithmetic itself."""

    def __init__(self, size):
        self.ints = np.empty((4, size), np.int64)
        self.floats = np.empty((7, size))


def _split_step(cols, work, rows_of, weights_of, sizes, positives, feats, min_leaf):
    """Best split of every node of one lockstep step, with one set of numpy calls.

    Node j holds the distinct rows rows_of[j] with bootstrap weights
    weights_of[j] (sizes[j] rows in all, positives[j] of them genuine) and
    draws the sorted features feats[j].  A split lies between two distinct
    values and leaves at least min_leaf rows on each side; the least Gini
    impurity wins, ties going to the least sorted row, then the least
    feature slot.  Returns the splitting nodes' indices, features,
    thresholds, left (rows, genuine), and each one's ((distinct rows,
    weights) left, (distinct rows, weights) right).
    """
    count, width = feats.shape
    p, pn = cols.p, cols.p * cols.n
    lens = np.array([len(r) for r in rows_of])
    rows = np.concatenate(rows_of)
    weights = np.concatenate(weights_of)
    node_of = np.repeat(np.arange(count), lens)
    size = width * len(rows)
    at, weight, left, right = (a[:size] for a in work.ints)
    value, left_n, right_n, gini, other, n_node, q = (a[:size] for a in work.floats)

    # sort every (node, feature) segment by value with one sort of keys
    # packing (node, rank key, weight), well inside 63 bits up to 10**7 rows
    # (a weight is a bootstrap repeat count, a few bits); take's mode="clip"
    # only spares the copy of out that mode="raise" makes: every index is in
    # range
    wbits = int(weights.max()).bit_length()
    kbits = pn.bit_length()
    index = at.reshape(-1, width)
    np.take(feats, node_of, axis=0, out=index, mode="clip")
    index += (rows * p)[:, None]
    keys = weight.reshape(-1, width)
    np.take(cols.key, index, out=keys, mode="clip")
    keys += (node_of << kbits)[:, None]
    keys <<= wbits
    keys |= weights[:, None]
    keys = keys.ravel()
    keys.sort()
    np.right_shift(keys, wbits, out=at)
    at &= (1 << kbits) - 1
    np.bitwise_and(keys, (1 << wbits) - 1, out=weight)
    np.take(cols.value, at, out=value, mode="clip")

    # cumulative packed (rows, genuine) within each segment
    seg_len = np.repeat(lens, width)
    seg_start = np.cumsum(seg_len) - seg_len
    totals = np.repeat((np.array(sizes, np.int64) << 32)
                       + np.array(positives, np.int64), width)
    np.take(cols.count, at, out=left, mode="clip")
    left *= weight
    left[seg_start[1:]] -= totals[:-1]
    np.cumsum(left, out=left)
    np.subtract(np.repeat(totals, seg_len), left, out=right)
    valid = right >= min_leaf << 32
    if min_leaf > 1:
        valid &= left >= min_leaf << 32
    valid[:-1] &= value[1:] > value[:-1]
    np.right_shift(left, 32, out=left_n)
    np.right_shift(right, 32, out=right_n)
    # the node's row count, zeroed where no split may fall so that the Gini
    # there is inf or nan
    np.add(left_n, right_n, out=n_node)
    n_node *= valid

    # (left_n * (2.0 * pl * (1.0 - pl)) + right_n * (2.0 * pr * (1.0 - pr)))
    # / n_node, one operation at a time
    for side_n, side, part in ((left_n, left, gini), (right_n, right, other)):
        np.bitwise_and(side, _LOW32, out=part)
        part /= side_n
        np.subtract(1.0, part, out=q)
        part *= 2.0
        part *= q
        part *= side_n
    gini += other
    gini /= n_node

    least = np.fmin.reduceat(gini, seg_start[::width])
    finite = np.isfinite(least)
    splits = np.flatnonzero(finite)
    cand = np.flatnonzero(gini == np.repeat(np.where(finite, least, -1.0), width * lens))
    cand_seg = np.searchsorted(seg_start, cand, side="right") - 1
    cand_node = cand_seg // width
    # left_n - 1 is the sorted row of the split, as if repeats were rows
    tie = left_n[cand] * width + cand_seg % width
    pick = np.lexsort((tie, cand_node))[np.searchsorted(cand_node, splits)]
    best, best_seg = cand[pick], cand_seg[pick]
    lo, hi = value[best], value[best + 1]
    threshold = 0.5 * (lo + hi)
    # the midpoint of adjacent doubles rounds up to hi: split at lo instead
    threshold = np.where(threshold < hi, threshold, lo)

    split_lens = lens[splits]
    end = np.cumsum(split_lens)
    start = end - split_lens
    mid = start + best - seg_start[best_seg] + 1
    chosen = (np.repeat(seg_start[best_seg] - start, split_lens)
              + np.arange(end[-1] if len(end) else 0))
    child_rows = cols.row.take(at.take(chosen))
    child_weights = weight.take(chosen)
    children = [((child_rows[a:b], child_weights[a:b]), (child_rows[b:c], child_weights[b:c]))
                for a, b, c in zip(start.tolist(), mid.tolist(), end.tolist())]
    return (splits, feats[splits, best_seg % width], threshold, left_n[best],
            (left[best] & _LOW32).astype(float), children)


def _grow_trees(Xs, y, trees, max_depth, min_leaf, max_features) -> FlatTrees:
    """Grow one CART tree per (rows, rng) that `trees` yields; rows index Xs
    and may repeat (a bootstrap).  Returns the trees, in order.

    Trees grow in lockstep, a window of them at a time: every step splits
    the next pending node of each tree in the window with one _split_step.
    A tree that draws feature subsets offers one node per step, the next in
    its own depth-first order, so its rng draws come in the order of a
    recursive fit; a tree that uses every feature offers all its pending
    nodes.  Children are settled at the parent: a child with one label,
    fewer than 2 * min_leaf rows or at max_depth is a leaf.
    """
    n, p = Xs.shape
    draw = max_features < p
    window = max(1, STEP_ELEMENTS // (max_features * n))
    cols = _SortedColumns(Xs, y)
    # a step covers each tree's rows at most once per drawn feature
    work = _StepArrays(window * max_features * n)
    out = _TreeBuilder()

    def settle(node, stack):
        # node: (node index, distinct rows, their weights, rows, genuine, depth)
        at, _, _, n_node, pos, depth = node
        if depth >= max_depth or n_node < 2 * min_leaf or pos == 0.0 or pos == n_node:
            out.leaf(at, pos / n_node, depth)
        else:
            stack.append(node)

    active, pending = [], iter(trees)
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            while len(active) < window:
                tree = next(pending, None)
                if tree is None:
                    break
                rows, rng = tree
                weights = np.bincount(rows, minlength=n)
                distinct = np.flatnonzero(weights)
                out.roots.append(out.add(1))
                stack = []
                settle((out.roots[-1], distinct, weights[distinct], len(rows),
                        float(weights @ y), 0), stack)
                if stack:
                    active.append((stack, _FeatureDraws(rng, p, max_features) if draw else None))
            if not active:
                return out.build()

            nodes, owners, drawn = [], [], []
            for stack, draws in active:
                for _ in range(1 if draw else len(stack)):
                    nodes.append(stack.pop())
                    owners.append(stack)
                if draw:
                    drawn.append(draws.next())
            ats, rows_of, weights_of, sizes, positives, depths = zip(*nodes)
            feats = (np.array(drawn) if draw
                     else np.broadcast_to(np.arange(p), (len(nodes), p)))
            splits, feature, threshold, n_left, pos_left, children = _split_step(
                cols, work, rows_of, weights_of, sizes, positives, feats, min_leaf)

            split = np.zeros(len(nodes), bool)
            split[splits] = True
            for j in np.flatnonzero(~split).tolist():
                out.leaf(ats[j], positives[j] / sizes[j], depths[j])
            first_child = out.add(2 * len(splits))
            for i, (j, f, t, nl, pl, (left, right)) in enumerate(zip(
                    splits.tolist(), feature.tolist(), threshold.tolist(),
                    n_left.tolist(), pos_left.tolist(), children)):
                right_at = first_child + 2 * i
                out.split(ats[j], f, t, right_at)
                settle((right_at, *right, sizes[j] - nl, positives[j] - pl,
                        depths[j] + 1), owners[j])
                settle((right_at + 1, *left, nl, pl, depths[j] + 1), owners[j])
            active = [entry for entry in active if entry[0]]


def _fit_decision_tree(Xs, y, params, rng):
    tree = _grow_trees(Xs, y, [(np.arange(len(Xs)), rng)],
                       int(params["max_depth"]), int(params["min_leaf"]), Xs.shape[1])
    return {"tree": tree}


def _n_split_features(spec: str, p: int) -> int:
    if spec == "sqrt":
        return max(1, int(math.sqrt(p)))
    if spec == "log2":
        return max(1, int(math.log2(p)))
    return p


def _bootstraps(n, trees, rng):
    """Each tree's bootstrap rows and rng, drawn from `rng` tree by tree."""
    for _ in range(trees):
        rows = rng.integers(0, n, size=n)
        yield rows, np.random.default_rng(int(rng.integers(2 ** 63)))


def _fit_random_forest(Xs, y, params, rng):
    max_features = _n_split_features(params["features_per_split"], Xs.shape[1])
    trees = _grow_trees(Xs, y, _bootstraps(len(Xs), int(params["trees"]), rng),
                        int(params["max_depth"]), 1, max_features)
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
        raise TrainingError("need at least 2 training instances")
    if X.shape != (len(X), len(FEATURE_NAMES)) or y.shape != (len(X),):
        raise TrainingError(f"training data must be rows of {len(FEATURE_NAMES)} "
                            "features with one label each")
    if not np.isfinite(X).all():
        raise TrainingError("training features contain non-finite values")
    if y.min() == y.max():
        raise TrainingError("training data covers a single label")
    mu, sd = _standardize_fit(X)
    Xs = (X - mu) / sd
    rng = np.random.default_rng(seed)
    state = _FITTERS[algorithm](Xs, y, params, rng)
    state["standardize_mu"] = mu
    state["standardize_sd"] = sd
    return TrainedModel(
        algorithm=algorithm,
        params=dict(params),
        fitted_state=state,
        train_seed=int(seed),
        cv_accuracy=None,
    )


# --- prediction ----------------------------------------------------------------

# (query, training row) pairs one chunk of _score_knn spans: a 50-row session
# against 1000 training rows is one chunk, a 100-row fold against 900 two.
# Euclidean scoring allocates one chunk's screen (512 KB at most) and a mask
# of it; the dense path allocates four buffers of one chunk's distances once
# it runs.  Timed over 200 such sessions on an AVX-512 CPU, OpenBLAS's default
# kernel runs the screen's 50x16x1000 product on the calling thread (process
# time equals wall time), while its Haswell and Nehalem kernels wake a helper
# thread for it (process time twice wall time).
KNN_CHUNK_ELEMENTS = 1 << 16

# The screen ranks each query's training rows by b = |x|^2 - 2 q.x, one
# 16-term dot product of (-2q, 1) with (x, |x|^2), which with |q|^2 added
# approximates their squared distance.  With u = 2**-53 and
# S = |q|^2 + |x|^2, and nothing overflowing or underflowing, b + |q|^2
# differs from the pair's pinned sum s by at most 73uS, whatever order and
# fused multiply-adds the norms and the matrix product use (Higham, Accuracy
# and Stability of Numerical Algorithms, 2002, ch. 3): the two 15-term norms
# are each within 15u of their value (15uS in all); the 16-term product,
# rounding of b included, is within 16u of its sum of absolute products,
# 2 sum_j |q_j x_j| + |x|^2 <= 2S, so 32uS; and each pinned term rounds 3
# times and passes through at most 10 additions (13u of |q - x|^2 <= 2S, so
# 26uS).  A query's slack, SCREEN_SLACK * (|q|^2 + the largest |x|^2), is at
# least 512uS for each of its rows: it covers that, and the rounding of the
# few per-query bounds built from it, with room to spare.
SCREEN_SLACK = 2.0 ** -44

# The bound holds when every |q|^2 + |x|^2 of a chunk lies in this range: the
# squares and products that underflow then move b and s by less than 1e-300,
# far below the slack, and no value of the screen or the pinned sum overflows.
SCREEN_RANGE = (2.0 ** -900, 2.0 ** 1020)

# The screen bounds a query's k-th smallest b by the k-th smallest of the
# minima of this many strided groups of rows (fewer for fewer rows); every
# k in PARAM_SPACES is at most this.
SCREEN_GROUPS = 100


def _knn_layout(train_x):
    """The block kNN scoring multiplies with: the training rows as columns,
    then a 16th row of their squared norms.  A fitted or parsed model's
    train_x is the view layout[:-1].T, so each model prepares its layout
    once; it is never serialized, and ModelCache counts it."""
    layout = np.empty((len(FEATURE_NAMES) + 1, len(train_x)))
    layout[:-1] = train_x.T
    np.einsum("ij,ij->j", layout[:-1], layout[:-1], out=layout[-1])
    return layout


def _layout_of(train_x):
    """The layout train_x is the view of, or, for any other train_x (one a
    caller put in a model's state), a new one."""
    layout = train_x.base
    if isinstance(layout, np.ndarray) and layout.shape == (len(FEATURE_NAMES) + 1,
                                                           len(train_x)):
        view = layout[:-1].T
        if (view.strides, view.shape, view.ctypes.data) == (
                train_x.strides, train_x.shape, train_x.ctypes.data):
            return layout
    return _knn_layout(train_x)


def _pinned_sum(term, bufs):
    """Sum over the features j of term(j, out), written to bufs[0]: term
    returns feature j's terms, in out (one of the four arrays bufs, all of
    one shape) or in an array of its own of that shape."""
    d, a, b, c = bufs
    # numpy adds 15 values as ((t0+t1)+(t2+t3))+((t4+t5)+(t6+t7)), then t8..t14
    # one at a time, so this order gives the bits of a per-row .sum(axis=-1)
    for first, out in ((0, d), (4, a)):
        np.add(term(first, out), term(first + 1, b), out=out)
        np.add(term(first + 2, b), term(first + 3, c), out=b)
        out += b
    d += a
    for j in range(8, len(FEATURE_NAMES)):
        d += term(j, a)
    return d


def _knn_candidates(Q, layout, k):
    """Flat indices, query * training rows + row, of every pair whose
    euclidean distance from _pinned_sum may be at most its query's k-th
    smallest; None when the chunk leaves SCREEN_RANGE, where that may fail."""
    query_norms = np.einsum("ij,ij->i", Q, Q)
    row_norms = layout[-1]
    largest = query_norms + row_norms.max()
    # not (a and b): a NaN fails both comparisons
    if not (SCREEN_RANGE[0] <= query_norms.min() + row_norms.min()
            and largest.max() <= SCREEN_RANGE[1]):
        return None
    weights = np.empty((len(Q), len(layout)))
    np.multiply(Q, -2.0, out=weights[:, :-1])
    weights[:, -1] = 1.0
    screen = weights @ layout
    # the minima of rows g, g + G, g + 2G, ... for each g < G: the k smallest
    # are the screen values of k distinct rows, so the k-th of them is at
    # least the k-th smallest b
    rows = layout.shape[1]
    groups = min(SCREEN_GROUPS, rows)
    whole = rows - rows % groups
    bound = screen[:, :whole].reshape(len(Q), whole // groups, groups).min(axis=1)
    bound.partition(k - 1, axis=1)
    slack = largest * SCREEN_SLACK
    # k rows are no farther than this, so neither is the k-th distance; sqrt
    # is correctly rounded, so it never decreases
    kth = np.sqrt(bound[:, k - 1] + query_norms + slack)
    # a pinned sum whose sqrt rounds to at most kth lies below the square of
    # the next double: the screen compares after the sqrt, as the vote does,
    # and keeps rows whose unequal sums have equal roots
    limit = np.square(np.nextafter(kth, np.inf)) + slack - query_norms
    return np.flatnonzero(screen <= limit[:, None])


def _score_knn(model, Xs):
    train_x = model.fitted_state["train_x"]
    genuine = model.fitted_state["train_y"] == 1.0
    k = min(int(model.params["k"]), len(train_x))
    euclidean = model.params["metric"] == "euclidean"
    term = np.square if euclidean else np.abs
    layout = _layout_of(train_x)
    cols = layout[:-1]
    chunk = max(1, KNN_CHUNK_ELEMENTS // len(train_x))
    # the dense path's buffers, allocated per call once it runs, as request
    # threads score concurrently
    bufs = None
    scores = np.empty(len(Xs))
    # all neighbors tied with the k-th are included, so exact duplicates
    # cannot be broken by storage order; labels are 0/1, so the vote is the
    # exact quotient of two counts
    for lo in range(0, len(Xs), chunk):
        Q = Xs[lo:lo + chunk]
        pairs = _knn_candidates(Q, layout, k) if euclidean else None
        if pairs is None:
            if bufs is None:
                bufs = np.empty((4, min(chunk, len(Xs)), len(train_x)))
            d = _pinned_sum(lambda j, out: term(np.subtract(Q[:, j, None], cols[j], out=out),
                                                out=out),
                            bufs[:, :len(Q)])
            if euclidean:
                np.sqrt(d, out=d)
            kth = np.partition(d, k - 1, axis=1)[:, k - 1]
            near = d <= kth[:, None]
            scores[lo:lo + len(Q)] = ((near & genuine).sum(axis=1) / near.sum(axis=1))
            continue
        # every pair left out is farther than the k-th distance, and each
        # query keeps at least its k nearest rows; one gather per side gives
        # every candidate's 15 terms at once
        query, row = np.divmod(pairs, len(train_x))
        terms = Q.T[:, query]
        terms -= cols[:, row]
        np.square(terms, out=terms)
        d = np.sqrt(_pinned_sum(lambda j, out: terms[j], np.empty((4, len(query)))))
        per_query = np.bincount(query, minlength=len(Q))
        first = np.cumsum(per_query) - per_query
        kth = d[np.lexsort((d, query))[first + k - 1]]
        near = d <= kth[query]
        scores[lo:lo + len(Q)] = (np.bincount(query[near & genuine[row]], minlength=len(Q))
                                  / np.bincount(query[near], minlength=len(Q)))
    return scores


def _score_linear(model, Xs):
    return _sigmoid(Xs @ model.fitted_state["w"] + model.fitted_state["b"])


def _score_gaussian_nb(model, Xs):
    state = model.fitted_state
    ll = []
    for ci in (0, 1):
        mean, var = state["mean"][ci], state["var"][ci]
        # math.log, not np.log, whose last bit depends on numpy's SIMD level
        log_norm = np.array([math.log(2.0 * math.pi * v) for v in var.tolist()])
        log_density = -0.5 * (log_norm + (Xs - mean) ** 2 / var)
        ll.append(log_density.sum(axis=1) + state["log_prior"][ci])
    return _sigmoid(ll[1] - ll[0])


def _score_trees(model, Xs):
    # a decision_tree is scored as a forest of one tree
    state = model.fitted_state
    return (state["tree"] if model.algorithm == "decision_tree" else state["trees"]).score(Xs)


_SCORERS = {
    "knn": _score_knn,
    "logistic_regression": _score_linear,
    "lda": _score_linear,
    "gaussian_nb": _score_gaussian_nb,
    "decision_tree": _score_trees,
    "random_forest": _score_trees,
}


def predict_scores(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Genuine-ness scores in [0, 1] for a batch of feature vectors."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != len(FEATURE_NAMES):
        raise ValidationError(f"expected {len(FEATURE_NAMES)} features, got {X.shape[1]}")
    state = model.fitted_state
    Xs = (X - state["standardize_mu"]) / state["standardize_sd"]
    return _SCORERS[model.algorithm](model, Xs)


def predict_labels(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """True where a row is predicted genuine; strictly above 0.5, so a score
    of exactly 0.5 fails closed to impostor."""
    return predict_scores(model, X) > 0.5


# --- serialization --------------------------------------------------------------

def _state_json(key: str, value):
    if isinstance(value, FlatTrees):
        trees = value.to_dicts()
        return trees[0] if key == "tree" else trees
    return value.tolist() if isinstance(value, np.ndarray) else value


def model_envelope(model: TrainedModel) -> dict:
    """The wire-format dict of a model: arrays become lists of floats, which
    is exact for float64, and trees nested dicts.  It shares the model's
    params, so serialize it, do not modify it."""
    return {
        "format_version": FORMAT_VERSION,
        "algorithm": model.algorithm,
        "params": model.params,
        "feature_order": list(FEATURE_NAMES),
        "fitted_state": {key: _state_json(key, value)
                         for key, value in model.fitted_state.items()},
        "train_seed": model.train_seed,
        "cv_accuracy": model.cv_accuracy,
    }


def serialize(model: TrainedModel) -> bytes:
    return json.dumps(model_envelope(model), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def deserialize(payload: bytes) -> TrainedModel:
    try:
        envelope = json.loads(payload.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError also covers UnicodeDecodeError, json.JSONDecodeError and
        # an integer past the interpreter's digit limit
        raise ValidationError(f"corrupt model payload: {exc}") from exc
    return model_from_dict(envelope)


def parse_numbers(value, what: str, shape: Optional[tuple] = None,
                  positive: bool = False) -> np.ndarray:
    """A value parsed from JSON as a float64 array of `shape` (None there
    matches any length; no shape, any array), or ValidationError.  Every cell
    must be a finite JSON number, above 0 if `positive`: numpy alone would
    also read a string such as "1.5" and a bool as numbers."""
    try:
        values = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an array of numbers: {exc}") from exc
    cells = [value]
    for _ in range(values.ndim):
        cells = itertools.chain.from_iterable(cells)
    if not set(map(type, cells)) <= {int, float}:
        raise ValidationError(f"{what} must hold JSON numbers only")
    if shape is not None and (values.ndim != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, values.shape))):
        raise ValidationError(f"{what} must have shape {shape}, got {values.shape}")
    if not np.isfinite(values).all() or (positive and not (values > 0.0).all()):
        raise ValidationError(f"{what} must hold {'positive' if positive else 'finite'} "
                              "numbers only")
    return values


def _parse_trees(named_roots: list, max_depth: int) -> FlatTrees:
    """FlatTrees from (name, wire-format nested dict) pairs, walked
    iteratively: every node is {"leaf": p in [0, 1]} or a split {"f":
    feature, "t": threshold, "l": node, "r": node} above max_depth."""
    p = len(FEATURE_NAMES)
    out = _TreeBuilder()
    for where, root in named_roots:
        out.roots.append(out.add(1))
        stack = [(root, 0, out.roots[-1])]
        while stack:
            node, depth, at = stack.pop()
            keys = node.keys() if isinstance(node, dict) else None
            if keys == {"leaf"}:
                leaf = node["leaf"]
                if not (_is_number(leaf) and 0.0 <= leaf <= 1.0):
                    raise ValidationError(f"{where}: leaf {leaf!r} is not a score in [0, 1]")
                out.leaf(at, float(leaf), depth)
            elif keys == {"f", "t", "l", "r"}:
                f = node["f"]
                if not (isinstance(f, int) and not isinstance(f, bool) and 0 <= f < p):
                    raise ValidationError(f"{where}: split feature {f!r} outside [0, {p})")
                if not _is_number(node["t"]):
                    raise ValidationError(f"{where}: split threshold {node['t']!r} is not finite")
                if depth >= max_depth:
                    raise ValidationError(f"{where}: deeper than max_depth {max_depth}")
                right_at = out.add(2)
                out.split(at, f, float(node["t"]), right_at)
                stack.append((node["r"], depth + 1, right_at))
                stack.append((node["l"], depth + 1, right_at + 1))
            else:
                raise ValidationError(f"{where}: node is neither a leaf nor a split")
    return out.build()


def _parse_fitted_state(algorithm: str, params: dict, state: dict) -> dict:
    """The scorers' state from its JSON form, with every shape and value they
    rely on checked, so that a malformed payload is a ValidationError rather
    than a failure inside scoring."""
    p = len(FEATURE_NAMES)
    try:
        parsed = {key: parse_numbers(state[key], key, (p,), positive=key == "standardize_sd")
                  for key in ("standardize_mu", "standardize_sd")}
        if algorithm == "knn":
            train_x = _knn_layout(parse_numbers(state["train_x"], "train_x", (None, p)))[:-1].T
            train_y = parse_numbers(state["train_y"], "train_y", (len(train_x),))
            if not ((train_y == 0.0) | (train_y == 1.0)).all():
                raise ValidationError("kNN train_y must hold 0/1 labels")
            parsed.update(train_x=train_x, train_y=train_y)
        elif algorithm in ("logistic_regression", "lda"):
            parsed.update(w=parse_numbers(state["w"], "w", (p,)),
                          b=float(parse_numbers(state["b"], "b", ())))
        elif algorithm == "gaussian_nb":
            parsed.update(log_prior=parse_numbers(state["log_prior"], "log_prior", (2,)),
                          mean=parse_numbers(state["mean"], "mean", (2, p)),
                          var=parse_numbers(state["var"], "var", (2, p), positive=True))
        elif algorithm == "decision_tree":
            parsed["tree"] = _parse_trees([("tree", state["tree"])], params["max_depth"])
        else:
            trees = state["trees"]
            if not (isinstance(trees, list) and len(trees) == params["trees"]):
                raise ValidationError(f"random forest must hold {params['trees']} trees")
            parsed["trees"] = _parse_trees([(f"tree {i}", tree) for i, tree in enumerate(trees)],
                                           params["max_depth"])
    except KeyError as exc:
        raise ValidationError(f"{algorithm} fitted_state missing field {exc}") from exc
    return parsed


def model_from_dict(envelope) -> TrainedModel:
    if not isinstance(envelope, dict):
        raise ValidationError("model payload must be a JSON object")
    try:
        version = envelope["format_version"]
        if version != FORMAT_VERSION:
            raise ValidationError(
                f"model format_version {version!r} unsupported (expected {FORMAT_VERSION})"
            )
        algorithm = envelope["algorithm"]
        params = envelope["params"]
        feature_order = envelope["feature_order"]
        state = envelope["fitted_state"]
        train_seed = envelope["train_seed"]
        cv_accuracy = envelope["cv_accuracy"]
    except KeyError as exc:
        raise ValidationError(f"model payload missing field {exc}") from exc
    if algorithm not in ALGORITHMS:
        raise ValidationError(f"unknown algorithm {algorithm!r}")
    if not isinstance(params, dict) or not isinstance(state, dict):
        raise ValidationError("model params and fitted_state must be JSON objects")
    validate_params(algorithm, params)
    if feature_order != list(FEATURE_NAMES):
        raise ValidationError(f"feature_order must name the {len(FEATURE_NAMES)} features "
                              "in their canonical order")
    if not (isinstance(train_seed, int) and not isinstance(train_seed, bool)):
        raise ValidationError(f"train_seed {train_seed!r} is not an integer")
    if not (cv_accuracy is None or _is_number(cv_accuracy)):
        raise ValidationError(f"cv_accuracy {cv_accuracy!r} is not a number")
    return TrainedModel(
        algorithm=algorithm,
        params=params,
        fitted_state=_parse_fitted_state(algorithm, params, state),
        train_seed=int(train_seed),
        cv_accuracy=None if cv_accuracy is None else float(cv_accuracy),
    )


def fitted_arrays(model: TrainedModel) -> list:
    """Every array of the model's fitted state, the trees' node arrays
    included, and the array each view among them is of (kNN's layout)."""
    arrays = []
    for value in model.fitted_state.values():
        if isinstance(value, FlatTrees):
            arrays += (value.feature, value.threshold, value.child, value.value, value.roots)
        elif isinstance(value, np.ndarray):
            arrays += [value] if value.base is None else [value, value.base]
    return arrays


def with_cv_accuracy(model: TrainedModel, cv_accuracy: float) -> TrainedModel:
    return replace(model, cv_accuracy=float(cv_accuracy))
