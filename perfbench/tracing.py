"""Span recorder and the wrappers that time eegauth's public functions.

The benchmark records spans from outside the program: `install` replaces each
public function listed in TARGETS, in its defining module and in every eegauth
module that imported it by name, with a wrapper that records one span per
call.  Spans are kept in memory as tuples and written out when the process
ends; `layer_metrics` turns them into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time

REQUEST_HEADER = "X-Bench-Request"

MODULES = ("synth", "signal", "features", "dataset", "classifiers",
           "autoselect", "evaluation", "service", "cli")

ALGORITHMS = ("knn", "logistic_regression", "lda", "gaussian_nb",
              "decision_tree", "random_forest")


def _algorithm(position):
    def detail(args, kwargs, result):
        return args[position] if len(args) > position else kwargs["algorithm"]
    return detail


def _result_len(args, kwargs, result):
    return len(result)


def _rows_scored(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["X"])


def _search_evaluations(args, kwargs, result):
    return len(result[1].entries)


# (module, function, detail): each call records a span named
# "module.function".  A detail is computed from (args, kwargs, result): a
# string names the algorithm the call's time is split by, a number adds to
# the count metric COUNTS names.
TARGETS = (
    ("synth", "write_cohort", None),
    ("signal", "read_recording_csv", None),
    ("signal", "bandpass_filter", None),
    ("signal", "random_segments", _result_len),
    ("features", "extract_features", None),
    ("dataset", "save_features_csv", None),
    ("dataset", "load_features_csv", _result_len),
    ("dataset", "assemble_user_dataset", None),
    ("dataset", "stratified_kfold", None),
    ("classifiers", "train", _algorithm(0)),
    ("classifiers", "predict_labels", _rows_scored),
    ("classifiers", "model_from_dict", None),
    ("autoselect", "select_model", _search_evaluations),
    ("autoselect", "evaluate_config", _algorithm(1)),
    ("autoselect", "cross_val_predict", None),
    ("evaluation", "compare_to_chance", None),
    ("evaluation", "metrics", None),
    ("service", "FeatureStore.get_pool", None),
    ("service", "FeatureStore.put_user", None),
    ("service", "enroll", None),
    ("service", "authenticate", None),
)

COUNTS = {
    "signal.random_segments": "signal.segments",
    "dataset.load_features_csv": "dataset.rows_parsed",
    "classifiers.predict_labels": "classifiers.rows_scored",
    "autoselect.select_model": "autoselect.evaluations",
}


class Recorder:
    """Thread-safe in-memory span log.

    A span is (id, parent id, name, start ns, end ns, request id, detail).
    Parents come from a per-thread stack, so spans nest per thread; the
    request id is whatever the current thread last set.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = True
        self._ids = itertools.count(1)
        self._local = threading.local()

    def set_request(self, request_id) -> None:
        self._local.request = request_id

    def call(self, name, fn, args, kwargs, detail=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._local.__dict__.setdefault("stack", [])
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        result = None
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            value = detail(args, kwargs, result) if ok and detail else None
            self.spans.append((span_id, parent, name, start, end,
                               getattr(self._local, "request", None), value))


def _wrapper(recorder, name, original, detail):
    @functools.wraps(original)
    def traced(*args, **kwargs):
        return recorder.call(name, original, args, kwargs, detail)
    return traced


def replace(module_name: str, attr: str, make) -> None:
    """Put `make(original)` in place of eegauth.<module_name>.<attr> where its
    callers look it up: in its class, or in its module and in every module
    that imported it by name."""
    modules = [importlib.import_module(f"eegauth.{m}") for m in MODULES]
    owner = sys.modules[f"eegauth.{module_name}"]
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name)
        setattr(cls, method, make(cls.__dict__[method]))
        return
    original = getattr(owner, attr)
    wrapped = make(original)
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS function where its callers look it up."""
    for module_name, attr, detail in TARGETS:
        replace(module_name, attr, lambda original: _wrapper(
            recorder, f"{module_name}.{attr}", original, detail))

    handler = sys.modules["eegauth.service"].AuthServiceHandler
    do_post = handler.do_POST

    def traced_do_post(self):
        recorder.set_request(self.headers.get(REQUEST_HEADER))
        try:
            return recorder.call("service.http_request", do_post, (self,), {})
        finally:
            recorder.set_request(None)

    handler.do_POST = traced_do_post


# --- per-layer metrics ------------------------------------------------------

_SEARCH_CHILDREN = ("classifiers.train", "classifiers.predict_labels",
                    "dataset.stratified_kfold")


def layer_metrics(span_groups) -> dict:
    """Busy time (inclusive, seconds) and counts per layer.

    `span_groups` is a list of (spans, weight) pairs, one per process and
    phase; every value from a group is multiplied by its weight, which lets
    a run report its timed phase per pass.
    """
    out: dict[str, float] = {}

    def add(key, value, weight):
        out[key] = out.get(key, 0.0) + value * weight

    for spans, weight in span_groups:
        children: dict = {}
        for s in spans:
            if s[1] is not None:
                children.setdefault(s[1], []).append(s)
        for span_id, _parent, name, start, end, _request, detail in spans:
            seconds = (end - start) / 1e9
            add(f"{name}_s", seconds, weight)
            add(f"{name}_calls", 1, weight)
            if isinstance(detail, str):
                add(f"{name}_s.{detail}", seconds, weight)
                add(f"{name}_calls.{detail}", 1, weight)
            elif detail is not None:
                add(COUNTS[name], detail, weight)
            if name == "autoselect.select_model":
                contained = 0
                pending = list(children.get(span_id, ()))
                while pending:
                    child = pending.pop()
                    if child[2] in _SEARCH_CHILDREN:
                        contained += child[4] - child[3]
                    else:
                        pending.extend(children.get(child[0], ()))
                add("autoselect.self_s", seconds - contained / 1e9, weight)
        add("trace.spans", len(spans), weight)
    for algo in ALGORITHMS:
        calls = out.get(f"autoselect.evaluate_config_calls.{algo}", 0)
        busy = out.get(f"autoselect.evaluate_config_s.{algo}", 0.0)
        out[f"autoselect.evals_per_10s.{algo}"] = 10.0 * calls / busy if busy else 0.0
    return out
