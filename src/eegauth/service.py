"""Two-phase authentication service: enrollment server and session decisions.

Enrollment stores the user's feature vectors, assembles a balanced dataset
against the pooled instances of every other stored user, runs the budgeted
model search, and returns the serialized per-user model.  Authentication is a
strict-majority vote over per-instance predictions: the session is granted
only when the genuine fraction strictly exceeds the threshold, so an exact
tie denies.

The feature store keeps one file per user, the rows as one .npy array.  A put
writes a temporary file beside it and renames it over the old one, so a crash
at any point leaves either the old or the new rows readable, never a torn
mix, and readers and writers in any number of stores need no lock.

Every authenticate request carries the client's model, and a client re-sends
the one model it was enrolled with.  The HTTP server keeps the models it
accepted with their exact JSON text, and decodes a body itself so that a
re-sent model is recognised by comparing that text in place rather than
parsed or hashed again; everything else in the body is parsed by json's own
scanner.

Each connection is handled on a thread of its own, so a slow client delays
no other.  A handler thread outlives its connection and takes the next one
when it is idle, so a steady stream of requests starts no threads; a new
thread starts only when every one is busy.  `eegauth serve` also gives
numpy's OpenBLAS one thread, since the request threads already keep the
CPUs busy, and has every thread allocate from one malloc arena, so that
each live handler thread keeps no freed memory of its own.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
import tempfile
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional

import numpy as np

from . import classifiers
from .autoselect import SearchBudget, SearchTrace, select_model
from .dataset import (
    FeatureTable,
    assemble_user_dataset,
    check_feature_rows,
    dataset_manifest,
)
from .defaults import DEFAULT_ENROLL_COUNT, DEFAULT_FOLDS, DEFAULT_THRESHOLD
from .errors import (
    EegAuthError,
    EnrollmentUnavailableError,
    NoModelError,
    PayloadTooLargeError,
    RequestTimeoutError,
    ValidationError,
)
from .seeds import derive_seed

GRANT, DENY = "grant", "deny"
# Bytes of model texts and fitted arrays the HTTP server keeps for re-sent
# models; a kNN model of 1000 training rows holds 0.13 MB of arrays and about
# 0.33 MB of text.
MODEL_CACHE_BYTES = 64 * 1024 * 1024

# a user id names the user's directory: "." and ".." would name the users
# directory itself and the store root
_USER_ID_RE = re.compile(r"(?!\.+$)[A-Za-z0-9_.-]{1,64}")


@dataclass(frozen=True)
class EnrollRequest:
    user_id: str
    instances: np.ndarray  # count x 15
    client_nonce: str

    def __post_init__(self):
        object.__setattr__(self, "instances",
                           check_feature_rows(self.instances, "instances"))
        if not _USER_ID_RE.fullmatch(self.user_id):
            raise ValidationError(f"invalid user_id {self.user_id!r}")


@dataclass(frozen=True)
class EnrollResponse:
    model: classifiers.TrainedModel
    evaluations: int
    elapsed_s: float
    client_nonce: str

    def to_dict(self) -> dict:
        """The response body; it shares the model's state, so dump it, do not
        modify it."""
        return {
            "model": classifiers.model_envelope(self.model),
            "summary": {
                "algorithm": self.model.algorithm,
                "cv_accuracy": float(self.model.cv_accuracy),
                "evaluations": self.evaluations,
                "elapsed_s": self.elapsed_s,
            },
            "client_nonce": self.client_nonce,
        }


@dataclass(frozen=True)
class Decision:
    outcome: str
    genuine_fraction: float
    n_instances: int
    threshold: float

    def to_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "genuine_fraction": self.genuine_fraction,
            "n_instances": self.n_instances,
            "threshold": self.threshold,
        }


# --- feature store ---------------------------------------------------------------

_FEATURES_FILE = "features.npy"
_AUDIT_FILE = "enrollment-manifest.json"
# read_array parses the .npy header with ast.literal_eval.  On CPython 3.11
# the AST builder keeps one recursion counter per interpreter, so two threads
# building an AST at once (a garbage-collector callback can switch threads
# mid-parse) raise SystemError; the store reads one entry at a time.
_READ_LOCK = threading.Lock()


def _replace_file(path: Path, write) -> None:
    """Write a new file through write(fh) and rename it over `path`, so that a
    reader sees the old file or the new one, never part of one.  Each call
    writes its own temporary file, so concurrent writers need no lock: the
    last rename wins.  An OSError removes the temporary file and is raised
    as ValidationError."""
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        with open(fd, "wb") as fh:
            write(fh)
        Path(tmp).replace(path)
        tmp = None
    except OSError as exc:
        raise ValidationError(f"writing {path}: {exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


class FeatureStore:
    """File-backed map user_id -> enrolled feature vectors.

    Layout: {root}/users/{user_id}/features.npy, the user's rows as one
    float64 array, replaced by an atomic rename.  Every read loads the file,
    so a write through another store on the same root is seen at the next
    read.  A file that does not hold rows of 15 finite, non-negative float64
    band powers is refused with ValidationError.
    """

    def __init__(self, root):
        self.root = Path(root)
        (self.root / "users").mkdir(parents=True, exist_ok=True)

    def _user_dir(self, user_id: str) -> Path:
        if not _USER_ID_RE.fullmatch(user_id):
            raise ValidationError(f"invalid user_id {user_id!r}")
        return self.root / "users" / user_id

    def put_user(self, user_id: str, vectors: np.ndarray) -> None:
        """Atomically replace the user's enrolled vectors."""
        vectors = check_feature_rows(vectors, "vectors")
        _replace_file(self._user_dir(user_id) / _FEATURES_FILE,
                      lambda fh: np.save(fh, vectors))

    def put_audit(self, user_id: str, audit: dict) -> None:
        """Atomically replace the audit record of the user's last enrollment."""
        text = json.dumps(audit, sort_keys=True) + "\n"
        _replace_file(self._user_dir(user_id) / _AUDIT_FILE,
                      lambda fh: fh.write(text.encode("utf-8")))

    def get_user(self, user_id: str) -> FeatureTable:
        """The user's stored rows."""
        path = self._user_dir(user_id) / _FEATURES_FILE
        # read_array, not np.load: np.load would also open a zip archive or a
        # pickle, which a store file never holds.  A corrupt header can declare
        # more rows than memory holds, which raises MemoryError.
        try:
            with open(path, "rb") as fh, _READ_LOCK:
                X = np.lib.format.read_array(fh, allow_pickle=False)
        except FileNotFoundError:
            raise ValidationError(f"no entry for user {user_id!r}") from None
        except (OSError, ValueError, MemoryError) as exc:
            raise ValidationError(f"reading {path}: {exc}") from exc
        if X.dtype != np.float64 or X.ndim != 2:
            raise ValidationError(f"reading {path}: not a 2-D float64 array")
        try:
            return FeatureTable.for_subject(user_id, X)
        except ValidationError as exc:
            raise ValidationError(f"reading {path}: {exc}") from exc

    def list_users(self) -> list[str]:
        users_dir = self.root / "users"
        return sorted(p.name for p in users_dir.iterdir()
                      if (p / _FEATURES_FILE).is_file())

    def get_pool(self, excluding: str) -> FeatureTable:
        """Every stored row except the named user's, in user order."""
        return FeatureTable.concatenate(self.get_user(user_id)
                                        for user_id in self.list_users()
                                        if user_id != excluding)


# --- enrollment and authentication -------------------------------------------------

def enroll(request: EnrollRequest, store: FeatureStore, budget: SearchBudget,
           k_folds: int = DEFAULT_FOLDS, server_seed: int = 0,
           enroll_count: int = DEFAULT_ENROLL_COUNT) -> tuple[EnrollResponse, SearchTrace]:
    """Store the user's instances and train their personal model under budget.

    The user is stored even when the impostor pool is still too small; in
    that case EnrollmentUnavailableError tells the caller to retry once more
    users exist.  Request seeds derive from (server seed, user, nonce), so a
    repeated identical enrollment returns a byte-identical model.
    """
    if len(request.instances) != enroll_count:
        raise ValidationError(
            f"enrollment needs exactly {enroll_count} instances, "
            f"got {len(request.instances)}"
        )
    started = time.perf_counter()
    store.put_user(request.user_id, request.instances)
    pool = store.get_pool(excluding=request.user_id)
    if len(pool) < enroll_count:
        raise EnrollmentUnavailableError(
            f"impostor pool holds {len(pool)} instances, need {enroll_count}; "
            "user stored, retry after more enrollments"
        )
    seed = derive_seed(server_seed, request.user_id, request.client_nonce)
    ds = assemble_user_dataset(request.user_id, request.instances, pool, seed)
    store.put_audit(request.user_id, dataset_manifest(ds, seed))
    model, trace = select_model(ds, budget, k_folds=k_folds, seed=seed)
    response = EnrollResponse(
        model=model,
        evaluations=len(trace.entries),
        elapsed_s=time.perf_counter() - started,
        client_nonce=request.client_nonce,
    )
    return response, trace


def authenticate(model: classifiers.TrainedModel, session,
                 threshold: float = DEFAULT_THRESHOLD) -> Decision:
    """Strict-majority session decision; ties deny.  The session is one row
    or a list of rows of 15 band powers; an empty session, or a non-finite
    or negative value, raises ValidationError before any row is scored
    (fail closed)."""
    session = np.asarray(session, dtype=float)
    if session.ndim == 1:
        session = session[None, :]
    if session.ndim == 2 and session.size == 0:
        raise ValidationError("session carries no instances")
    session = check_feature_rows(session, "session")
    if not (0.0 <= threshold <= 1.0):
        raise ValidationError("threshold must lie in [0, 1]")
    genuine = classifiers.predict_labels(model, session)
    fraction = int(np.count_nonzero(genuine)) / len(genuine)
    outcome = GRANT if fraction > threshold else DENY
    return Decision(outcome, fraction, len(genuine), threshold)


# --- parsed-model cache and body decoding -------------------------------------------

@dataclass(frozen=True)
class _CachedModel:
    model: classifiers.TrainedModel
    nbytes: int


class ModelCache:
    """Accepted models keyed by their exact JSON text, the least recently
    used evicted once their texts and fitted arrays, kNN's prepared layout
    included, exceed max_bytes.

    A body holds a cached model where it holds that model's text, compared
    in place, character for character.  Only models that model_from_dict
    accepted are added, so every cached text is a JSON object and thus
    self-delimiting: text that starts with one at some position holds exactly
    that value there, and at most one cached text starts there.  Cached
    arrays are read-only, because request threads share the model.
    """

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[str, _CachedModel] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def match(self, text: str, pos: int) -> Optional[tuple[classifiers.TrainedModel, int]]:
        """The cached model whose text starts at text[pos] and the position
        after that text, or None."""
        with self._lock:
            for model_text, entry in self._entries.items():
                if text.startswith(model_text, pos):
                    # the key's hash is kept with it, so this hashes nothing
                    self._entries.move_to_end(model_text)
                    return entry.model, pos + len(model_text)
        return None

    def add(self, model_text: str, model: classifiers.TrainedModel) -> None:
        """Keep an accepted model under its JSON text; one larger than the
        whole cache is not kept."""
        arrays = classifiers.fitted_arrays(model)
        # a view's memory is counted once, as its base, which arrays holds too
        nbytes = sys.getsizeof(model_text) + sum(array.nbytes for array in arrays
                                                 if array.base is None)
        if nbytes > self.max_bytes:
            return
        for array in arrays:
            array.flags.writeable = False
        with self._lock:
            replaced = self._entries.pop(model_text, None)
            self.nbytes += nbytes - (replaced.nbytes if replaced else 0)
            self._entries[model_text] = _CachedModel(model, nbytes)
            while self.nbytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= evicted.nbytes


_skip_whitespace = json.decoder.WHITESPACE.match
_scanstring = json.decoder.scanstring
_scan_once = json.JSONDecoder().scan_once


def _decode_object(text: str, start: int, models: ModelCache) -> tuple[dict, Optional[str]]:
    """decode_body's walk of the object that starts at text[start]; ValueError
    or StopIteration on a syntax error."""
    body = {}
    model_span = None
    end = _skip_whitespace(text, start + 1).end()
    if not text.startswith("}", end):
        while True:
            if not text.startswith('"', end):
                raise ValueError("expecting a property name")
            key, end = _scanstring(text, end + 1)
            end = _skip_whitespace(text, end).end()
            if not text.startswith(":", end):
                raise ValueError("expecting ':'")
            value_at = _skip_whitespace(text, end + 1).end()
            cached = models.match(text, value_at) if key == "model" else None
            if cached is None:
                body[key], end = _scan_once(text, value_at)
            else:
                body[key], end = cached
            if key == "model":
                model_span = None if cached else (value_at, end)
            end = _skip_whitespace(text, end).end()
            if text.startswith(",", end):
                end = _skip_whitespace(text, end + 1).end()
            elif text.startswith("}", end):
                break
            else:
                raise ValueError("expecting ',' or '}'")
    if _skip_whitespace(text, end + 1).end() != len(text):
        raise ValueError("extra data")
    return body, None if model_span is None else text[model_span[0]:model_span[1]]


def decode_body(text: str, models: ModelCache) -> tuple[object, Optional[str]]:
    """json.loads(text), except that the last top-level "model" value is the
    cached TrainedModel when its text is that of a model `models` holds.

    Also returns the text of that "model" value when it was parsed rather
    than found, so that the caller can cache the model once it is accepted;
    otherwise None.  Every other value is parsed by json's own scanner, and
    on a syntax error json.loads parses the whole text, so that the error
    raised is json's.
    """
    start = _skip_whitespace(text, 0).end()
    if not text.startswith("{", start):
        return json.loads(text), None
    try:
        return _decode_object(text, start, models)
    except (ValueError, StopIteration, RecursionError):
        return json.loads(text), None


# --- HTTP server --------------------------------------------------------------------

class _ServiceState:
    def __init__(self, store, budget, server_seed, enroll_count, k_folds, max_workers):
        self.store = store
        self.budget = budget
        self.server_seed = server_seed
        self.enroll_count = enroll_count
        self.k_folds = k_folds
        self.training_slots = threading.Semaphore(max_workers)
        self.models = ModelCache(MODEL_CACHE_BYTES)


def _error_body(code: str, message: str) -> bytes:
    return json.dumps({"code": code, "message": message}).encode("utf-8")


class AuthServiceHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    state: _ServiceState = None  # assigned by make_server
    # Writes are buffered, so a reply that fits the buffer (an authenticate
    # reply does) leaves with its status line and headers in one write, at
    # handle_one_request's flush.  A longer one, such as an enrollment's
    # ~0.3 MB, leaves in several writes; with Nagle's algorithm a keep-alive
    # client's delayed ACK would hold a short one back ~40 ms.
    wbufsize = -1
    disable_nagle_algorithm = True
    # Seconds any one socket read or write may wait, so a client that sends
    # less than its Content-Length cannot hold a handler thread forever.
    timeout = 30.0
    # A 500-instance enrollment is ~0.15 MB and an authenticate request with
    # a 200-tree random forest fitted to noise ~1.6 MB; larger bodies are
    # refused unread.
    max_body_bytes = 32 * 1024 * 1024

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def handle_expect_100(self):
        # the client sends the body only once it has the 100 Continue, so
        # that reply cannot wait in the buffer for the final one
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send_json(self, status: int, payload: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _read_body(self) -> tuple[dict, Optional[str]]:
        """The JSON object the body holds, decoded by decode_body against the
        server's model cache, and the text of a "model" it did not find."""
        if "Transfer-Encoding" in self.headers:
            self.close_connection = True  # the body's extent is unknown
            raise ValidationError("Transfer-Encoding is not supported; "
                                  "send the body with a Content-Length")
        if len(self.headers.get_all("Content-Length", ())) > 1:
            self.close_connection = True
            raise ValidationError("more than one Content-Length header")
        length = self.headers.get("Content-Length", "0")
        if not (length.isascii() and length.isdigit()):
            self.close_connection = True  # the body's extent is unknown
            raise ValidationError(f"invalid Content-Length {length!r}")
        length = int(length)
        if length > self.max_body_bytes:
            self.close_connection = True  # the body is left unread
            raise PayloadTooLargeError(
                f"Content-Length {length} exceeds {self.max_body_bytes} bytes")
        try:
            raw = self.rfile.read(length)
        except TimeoutError as exc:
            self.close_connection = True
            raise RequestTimeoutError(
                f"request body incomplete after {self.timeout} s") from exc
        if len(raw) < length:
            self.close_connection = True
            raise ValidationError(
                f"request body ended after {len(raw)} of {length} bytes")
        try:
            body, model_text = decode_body(raw.decode("utf-8"), self.state.models)
        except (ValueError, RecursionError) as exc:
            # ValueError also covers UnicodeDecodeError, json.JSONDecodeError and
            # an integer past the interpreter's digit limit
            raise ValidationError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        return body, model_text

    def do_GET(self):
        self._dispatch({"/api/v1/health": self._handle_health,
                        "/api/v1/users": self._handle_users})

    def do_POST(self):
        self._dispatch({"/api/v1/enroll": self._handle_enroll,
                        "/api/v1/authenticate": self._handle_authenticate})

    def _dispatch(self, routes: dict) -> None:
        """Run the handler of the request's path; every failure is answered
        with a JSON {code, message} body and its status."""
        try:
            handle = routes.get(self.path)
            if handle is None:
                self._send_json(404, _error_body("not_found", f"no route {self.path}"))
            else:
                handle()
        except PayloadTooLargeError as exc:
            self._send_json(413, _error_body("payload_too_large", str(exc)))
        except RequestTimeoutError as exc:
            self._send_json(408, _error_body("request_timeout", str(exc)))
        except EnrollmentUnavailableError as exc:
            self._send_json(409, _error_body("enrollment_unavailable", str(exc)))
        except NoModelError as exc:
            self._send_json(503, _error_body("retryable_failure", str(exc)))
        except EegAuthError as exc:
            self._send_json(400, _error_body("invalid_request", str(exc)))
        except Exception as exc:  # noqa: BLE001 - surface as opaque 500
            self._send_json(500, _error_body("internal_error", str(exc)))

    def _handle_health(self):
        users = self.state.store.list_users()
        self._send_json(200, json.dumps({"status": "ok", "users": len(users)}).encode())

    def _handle_users(self):
        self._send_json(200, json.dumps({"users": self.state.store.list_users()}).encode())

    def _handle_enroll(self):
        body, _ = self._read_body()
        for field_name in ("user_id", "instances", "client_nonce"):
            if field_name not in body:
                raise ValidationError(f"missing field {field_name!r}")
        for field_name in ("user_id", "client_nonce"):
            if not isinstance(body[field_name], str):
                raise ValidationError(f"{field_name} must be a string")
        request = EnrollRequest(body["user_id"],
                                classifiers.parse_numbers(body["instances"], "instances"),
                                body["client_nonce"])
        state = self.state
        with state.training_slots:
            response, _ = enroll(request, state.store, state.budget,
                                 k_folds=state.k_folds,
                                 server_seed=state.server_seed,
                                 enroll_count=state.enroll_count)
        self._send_json(200, json.dumps(response.to_dict(), sort_keys=True).encode())

    def _handle_authenticate(self):
        body, model_text = self._read_body()
        for field_name in ("model", "instances"):
            if field_name not in body:
                raise ValidationError(f"missing field {field_name!r}")
        model = body["model"]
        if not isinstance(model, classifiers.TrainedModel):
            model = classifiers.model_from_dict(model)
            self.state.models.add(model_text, model)
        threshold = float(classifiers.parse_numbers(
            body.get("threshold", DEFAULT_THRESHOLD), "threshold", ()))
        session = classifiers.parse_numbers(body["instances"], "instances")
        decision = authenticate(model, session, threshold)
        self._send_json(200, json.dumps(decision.to_dict(), sort_keys=True).encode())


class _ReusedThreadsHTTPServer(ThreadingHTTPServer):
    """A ThreadingHTTPServer whose handler threads outlive their connection.

    Each accepted socket goes to an idle handler thread, or to a new one when
    none is idle: the pool has no cap.  So a steady stream of requests starts
    no threads, and no connection waits for another: a client stalled
    mid-body holds only its own thread.  server_close releases every handler
    thread and waits for it; an idle one ends at once, a busy one with its
    connection.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._handlers = ThreadPoolExecutor(max_workers=sys.maxsize)

    def process_request(self, request, client_address):
        self._handlers.submit(self.process_request_thread, request, client_address)

    def server_close(self):
        super().server_close()
        self._handlers.shutdown()


def make_server(store_root, port: int = 0, budget: SearchBudget = None,
                server_seed: int = 0, enroll_count: int = DEFAULT_ENROLL_COUNT,
                k_folds: int = DEFAULT_FOLDS, max_workers: int = 2) -> ThreadingHTTPServer:
    """Build (but do not start) the threading HTTP server; port 0 picks one."""
    if not 0 <= port <= 65535:
        raise ValidationError(f"port must lie in [0, 65535], got {port}")
    if max_workers < 1:
        raise ValidationError(f"max_workers must be >= 1, got {max_workers}: "
                              "with no training slot every enrollment waits forever")
    if k_folds < 2:
        raise ValidationError(f"k_folds must be >= 2, got {k_folds}")
    if enroll_count < k_folds:
        raise ValidationError(f"enroll_count must be >= k_folds ({k_folds}), got "
                              f"{enroll_count}: every fold needs a genuine row")
    state = _ServiceState(FeatureStore(store_root),
                          budget or SearchBudget(),
                          server_seed, enroll_count, k_folds, max_workers)
    handler = type("BoundAuthServiceHandler", (AuthServiceHandler,), {"state": state})
    return _ReusedThreadsHTTPServer(("127.0.0.1", port), handler)
