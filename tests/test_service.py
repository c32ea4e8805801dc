import io
import json
import os
import shutil
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from eegauth import classifiers, service
from eegauth.autoselect import SearchBudget
from eegauth.errors import EnrollmentUnavailableError, NoModelError, ValidationError
from eegauth.service import (
    EnrollRequest,
    FeatureStore,
    authenticate,
    enroll,
    make_server,
)

from conftest import subject_rows, table_subjects


def vectors_for(table, subject, count):
    rows = subject_rows(table, subject)[:count]
    assert len(rows) == count
    return rows


ENROLL_N = 60
BUDGET = SearchBudget(wall_clock_s=60.0, max_evaluations=6)


@pytest.fixture()
def store(tmp_path):
    return FeatureStore(tmp_path / "store")


@pytest.fixture(scope="module")
def loaded_table(small_separable_table):
    return small_separable_table


def fill_store(store, table, exclude=("S01",), count=ENROLL_N):
    for subject in table_subjects(table):
        if subject in exclude:
            continue
        store.put_user(subject, vectors_for(table, subject, count))


def run_threads(targets):
    """Run each target in its own thread under a short switch interval, so
    that threads interleave finely, and wait for all of them."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target) for target in targets]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


# puts base * (k + 1) as user S02 for k in range(first, stop, step)
WRITER = """
import sys
import numpy as np
from eegauth.service import FeatureStore
root, base, first, step, stop = sys.argv[1:]
base = np.load(base)
store = FeatureStore(root)
for k in range(int(first), int(stop), int(step)):
    store.put_user("S02", base * (k + 1))
"""


def npy_bytes(array, **kwargs):
    out = io.BytesIO()
    np.save(out, array, **kwargs)
    return out.getvalue()


def header_claiming_rows(data: bytes, rows: int) -> bytes:
    """A copy of .npy bytes whose header declares `rows` rows, padded to the
    header's length."""
    length = int.from_bytes(data[8:10], "little")
    header = data[10:10 + length].decode("latin1")
    header = header.replace(header[header.index("("):header.index(")") + 1],
                            f"({rows}, 15)").rstrip()
    return data[:10] + (header.ljust(length - 1) + "\n").encode("latin1") \
        + data[10 + length:]


# every way a features.npy can fail to hold the user's rows
CORRUPT_ENTRIES = {
    "empty": lambda good: b"",
    "truncated": lambda good: good[:len(good) - 100],
    "pickled-object": lambda good: npy_bytes(np.array([{}], dtype=object), allow_pickle=True),
    "one-dimensional": lambda good: npy_bytes(np.ones(15)),
    "negative": lambda good: npy_bytes(-np.ones((3, 15))),
    "non-finite": lambda good: npy_bytes(np.full((3, 15), np.inf)),
    "integer": lambda good: npy_bytes(np.ones((3, 15), dtype=np.int64)),
    "zip-archive": lambda good: b"PK\x03\x04" + good,
    "header-claims-huge-shape": lambda good: header_claiming_rows(good, 10 ** 12),
}


def corrupt_entry(store, user_id, kind):
    path = store.root / "users" / user_id / "features.npy"
    path.write_bytes(CORRUPT_ENTRIES[kind](path.read_bytes()))
    return path


class TestFeatureStore:
    def test_put_get_round_trip(self, store, loaded_table):
        vectors = vectors_for(loaded_table, "S02", ENROLL_N)
        store.put_user("S02", vectors)
        back = store.get_user("S02")
        assert len(back) == ENROLL_N
        assert np.array_equal(back.X, vectors)

    def test_pool_excludes_named_user(self, store, loaded_table):
        fill_store(store, loaded_table, exclude=())
        pool = store.get_pool(excluding="S03")
        assert len(pool)
        assert (pool.subjects != "S03").all()

    def test_put_replaces_atomically(self, store, loaded_table):
        first = vectors_for(loaded_table, "S02", ENROLL_N)
        store.put_user("S02", first)
        second = first * 2.0
        store.put_user("S02", second)
        back = store.get_user("S02").X
        assert np.array_equal(back, second)
        user_dir = store.root / "users" / "S02"
        assert sorted(p.name for p in user_dir.iterdir()) == ["features.npy"]

    def test_crash_between_csv_and_manifest_keeps_old_entry(
            self, store, loaded_table, monkeypatch):
        first = vectors_for(loaded_table, "S02", ENROLL_N)
        store.put_user("S02", first)

        def exploding_replace(self, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(Path, "replace", exploding_replace)
        with pytest.raises(ValidationError, match=r"^writing .*simulated crash"):
            store.put_user("S02", first * 3.0)
        monkeypatch.undo()
        back = store.get_user("S02").X
        assert np.array_equal(back, first)  # old entry intact, no torn state
        assert not list((store.root / "users" / "S02").glob("*.tmp"))

    def test_crash_before_manifest_keeps_old_rows_in_warm_cache(
            self, store, loaded_table, monkeypatch):
        first = vectors_for(loaded_table, "S02", ENROLL_N)
        store.put_user("S02", first)
        assert np.array_equal(store.get_user("S02").X, first)

        def exploding_replace(self, target):
            raise OSError("simulated crash before the rename")

        monkeypatch.setattr(Path, "replace", exploding_replace)
        with pytest.raises(ValidationError, match=r"^writing .*simulated crash"):
            store.put_user("S02", first * 3.0)
        monkeypatch.undo()
        assert np.array_equal(store.get_user("S02").X, first)
        assert np.array_equal(FeatureStore(store.root).get_user("S02").X, first)

    def test_write_by_another_store_is_seen(self, store, loaded_table):
        fill_store(store, loaded_table, exclude=())
        before = store.get_pool(excluding="S01")
        rewritten = vectors_for(loaded_table, "S02", ENROLL_N) * 2.0
        FeatureStore(store.root).put_user("S02", rewritten)
        pool = store.get_pool(excluding="S01")
        assert np.array_equal(pool.X[pool.subjects == "S02"], rewritten)
        others = before.subjects != "S02"
        assert np.array_equal(pool.X[pool.subjects != "S02"], before.X[others])

    def test_put_then_pool_returns_new_rows(self, store, loaded_table):
        fill_store(store, loaded_table, exclude=())
        store.get_pool(excluding="S01")
        rewritten = vectors_for(loaded_table, "S03", ENROLL_N) * 3.0
        store.put_user("S03", rewritten)
        pool = store.get_pool(excluding="S01")
        assert np.array_equal(pool.X[pool.subjects == "S03"], rewritten)

    def test_concurrent_puts_and_pools(self, store, loaded_table):
        # more threads than cores: every read sees one whole written version
        fill_store(store, loaded_table, exclude=())
        base = vectors_for(loaded_table, "S02", ENROLL_N)
        versions = [base * (k + 1) for k in range(8)]
        seen, errors = [], []

        def writer(ks):
            for k in ks:
                store.put_user("S02", versions[k])

        def reader():
            for _ in range(20):
                try:
                    pool = store.get_pool(excluding="S01")
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)
                    return
                seen.append(pool.X[pool.subjects == "S02"])

        run_threads([lambda: writer(range(0, 8, 2)), lambda: writer(range(1, 8, 2)),
                     reader, reader])
        assert not errors
        assert len(seen) == 40
        assert all(any(np.array_equal(rows, v) for v in [base] + versions) for rows in seen)
        assert np.array_equal(store.get_user("S02").X,
                              FeatureStore(store.root).get_user("S02").X)

    def test_reads_while_another_read_parses_its_header(self, store, loaded_table):
        # read_array parses the .npy header with ast.literal_eval; on CPython
        # 3.11 two threads building an AST at once raise SystemError.  A
        # garbage-collector callback (Hypothesis installs one) can switch
        # threads mid-parse: here the first reader's callback, mid-parse,
        # lets a second reader, at another stack depth, read too
        import gc

        store.put_user("S02", vectors_for(loaded_table, "S02", ENROLL_N))
        parsing, second_done = threading.Event(), threading.Event()
        errors = []

        def in_literal_eval():
            frame = sys._getframe(2)
            while frame is not None:
                if frame.f_code.co_name == "literal_eval":
                    return True
                frame = frame.f_back
            return False

        def on_gc(phase, info):
            if (phase == "start" and threading.current_thread() is first
                    and not parsing.is_set() and in_literal_eval()):
                parsing.set()
                second_done.wait(timeout=1)

        def read(nesting=0):
            if nesting:
                return read(nesting - 1)
            try:
                store.get_user("S02")
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def second():
            parsing.wait(timeout=30)
            read(nesting=3)
            second_done.set()

        first = threading.Thread(target=read)
        other = threading.Thread(target=second)
        threshold = gc.get_threshold()
        gc.callbacks.append(on_gc)
        gc.set_threshold(1)  # collect at almost every allocation, so mid-parse too
        try:
            other.start()
            first.start()
            first.join(timeout=60)
            other.join(timeout=60)
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(on_gc)
        assert not first.is_alive() and not other.is_alive()
        assert parsing.is_set() and second_done.is_set()
        assert errors == []

    @pytest.mark.parametrize("writers", [1, 2])
    def test_writes_by_other_processes_never_fail_a_read(
            self, tmp_path, store, loaded_table, writers):
        # writer processes, each with its own store, put 600 versions of S02
        # between them while two reader threads, each with its own store on
        # the same root, read it until the writers exit
        base = vectors_for(loaded_table, "S02", ENROLL_N)
        store.put_user("S02", base)
        np.save(tmp_path / "base.npy", base)
        puts = 600
        written = {(base * k).tobytes() for k in range(1, puts + 1)}
        env = {**os.environ, "PYTHONPATH": str(Path(service.__file__).parents[1])}
        procs = [subprocess.Popen([sys.executable, "-c", WRITER, str(store.root),
                                   str(tmp_path / "base.npy"), str(w), str(writers),
                                   str(puts)], env=env, stderr=subprocess.PIPE)
                 for w in range(writers)]
        reads, errors = [], []

        def reader():
            reader_store = FeatureStore(store.root)
            while any(proc.poll() is None for proc in procs):
                try:
                    reads.append(reader_store.get_user("S02").X.tobytes() in written)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

        try:
            run_threads([reader, reader])
            stderr = [proc.communicate(timeout=60)[1] for proc in procs]
        finally:
            for proc in procs:
                proc.kill()
        assert [proc.returncode for proc in procs] == [0] * writers, stderr
        assert errors == []
        assert reads and all(reads)
        last = {(base * k).tobytes() for k in range(puts - writers + 1, puts + 1)}
        assert store.get_user("S02").X.tobytes() in last
        assert sorted(p.name for p in (store.root / "users" / "S02").iterdir()) \
            == ["features.npy"]

    @pytest.mark.parametrize("kind", sorted(CORRUPT_ENTRIES))
    def test_corrupt_entry_is_store_error(self, store, loaded_table, kind):
        store.put_user("S02", vectors_for(loaded_table, "S02", ENROLL_N))
        path = corrupt_entry(store, "S02", kind)
        for read in (lambda: store.get_user("S02"), lambda: store.get_pool("S01")):
            with pytest.raises(ValidationError, match="^reading ") as err:
                read()
            assert str(path) in str(err.value)

    @settings(max_examples=60, deadline=None)
    @given(X=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(15)),
                        elements=st.one_of(
                            st.sampled_from([-0.0, 0.0, 5e-324, 2.2250738585072009e-308,
                                             1e300, 1.7976931348623157e308]),
                            st.floats(0.0, 1e300))))
    def test_round_trip_bit_exact(self, tmp_path_factory, X):
        store = FeatureStore(tmp_path_factory.getbasetemp() / "round-trip")
        store.put_user("S02", X)
        assert store.get_user("S02").X.tobytes() == X.tobytes()

    def test_negative_vectors_rejected_unwritten(self, store, loaded_table):
        vectors = vectors_for(loaded_table, "S02", ENROLL_N).copy()
        vectors[3, 4] = -1.0
        with pytest.raises(ValidationError, match="negative band power"):
            store.put_user("S02", vectors)
        assert store.list_users() == []

    def test_list_users_sorted(self, store, loaded_table):
        fill_store(store, loaded_table, exclude=())
        assert store.list_users() == table_subjects(loaded_table)

    def test_missing_user_rejected(self, store):
        with pytest.raises(ValidationError, match="no entry for user 'nobody'"):
            store.get_user("nobody")

    def test_path_traversal_rejected(self, store):
        with pytest.raises(ValidationError):
            store.put_user("../evil", np.ones((1, 15)))

    @pytest.mark.parametrize("user_id", [".", "..", "...", "S01\n"])
    def test_dot_and_newline_ids_rejected_unwritten(self, store, user_id):
        # "." and ".." would name the users directory and the store root
        for put, value in ((store.put_user, np.ones((1, 15))), (store.put_audit, {})):
            with pytest.raises(ValidationError, match="invalid user_id"):
                put(user_id, value)
        assert [p.relative_to(store.root).as_posix() for p in store.root.rglob("*")] \
            == ["users"]
        with pytest.raises(ValidationError, match="invalid user_id"):
            EnrollRequest(user_id, np.ones((1, 15)), "n")


class TestEnroll:
    def test_enroll_returns_working_model(self, store, loaded_table):
        fill_store(store, loaded_table)
        request = EnrollRequest("S01", vectors_for(loaded_table, "S01", ENROLL_N),
                                "nonce-1")
        response, trace = enroll(request, store, BUDGET, k_folds=5,
                                 enroll_count=ENROLL_N)
        assert response.client_nonce == "nonce-1"
        assert response.model.cv_accuracy >= 0.9
        assert response.evaluations == len(trace.entries)
        genuine = vectors_for(loaded_table, "S01", ENROLL_N)
        decision = authenticate(response.model, genuine[:50])
        assert decision.outcome == service.GRANT

    def test_empty_store_unavailable_but_user_kept(self, store, loaded_table):
        request = EnrollRequest("S01", vectors_for(loaded_table, "S01", ENROLL_N),
                                "n")
        with pytest.raises(EnrollmentUnavailableError):
            enroll(request, store, BUDGET, k_folds=5, enroll_count=ENROLL_N)
        assert store.list_users() == ["S01"]

    def test_wrong_instance_count_rejected(self, store, loaded_table):
        request = EnrollRequest("S01", vectors_for(loaded_table, "S01", 10), "n")
        with pytest.raises(ValidationError):
            enroll(request, store, BUDGET, k_folds=5, enroll_count=ENROLL_N)

    def test_repeat_enrollment_byte_identical(self, store, loaded_table):
        fill_store(store, loaded_table)
        request = EnrollRequest("S01", vectors_for(loaded_table, "S01", ENROLL_N),
                                "fixed-nonce")
        first, _ = enroll(request, store, BUDGET, k_folds=5, enroll_count=ENROLL_N)
        second, _ = enroll(request, store, BUDGET, k_folds=5, enroll_count=ENROLL_N)
        assert classifiers.serialize(first.model) == classifiers.serialize(second.model)

    def test_impostor_pool_never_contains_user(self, store, loaded_table):
        fill_store(store, loaded_table)
        pool = store.get_pool(excluding="S01")
        assert len(pool) == 5 * ENROLL_N
        assert "S01" not in pool.subjects.tolist()

    def test_enrollment_writes_audit_manifest(self, store, loaded_table):
        fill_store(store, loaded_table)
        request = EnrollRequest("S01", vectors_for(loaded_table, "S01", ENROLL_N),
                                "audited")
        enroll(request, store, BUDGET, k_folds=5, enroll_count=ENROLL_N)
        audit = json.loads(
            (store.root / "users" / "S01" / "enrollment-manifest.json").read_text())
        assert audit["owner"] == "S01"
        assert "S01" not in audit["impostor_sources"]
        assert set(audit["impostor_sources"]) <= {"S02", "S03", "S04", "S05", "S06"}

    def test_crash_before_audit_rename_keeps_old_audit(self, store, loaded_table,
                                                        monkeypatch):
        fill_store(store, loaded_table)
        vectors = vectors_for(loaded_table, "S01", ENROLL_N)
        enroll(EnrollRequest("S01", vectors, "first"), store, BUDGET, k_folds=5,
               enroll_count=ENROLL_N)
        audit_path = store.root / "users" / "S01" / "enrollment-manifest.json"
        before = audit_path.read_text()
        replace = Path.replace

        def exploding_replace(self, target):
            if Path(target).name == audit_path.name:
                raise OSError("simulated crash before the rename")
            return replace(self, target)

        monkeypatch.setattr(Path, "replace", exploding_replace)
        with pytest.raises(ValidationError, match=r"^writing .*simulated crash"):
            enroll(EnrollRequest("S01", vectors, "second"), store, BUDGET, k_folds=5,
                   enroll_count=ENROLL_N)
        assert audit_path.read_text() == before
        assert not list(audit_path.parent.glob("*.tmp"))


@pytest.fixture(scope="module")
def model(small_separable_table):
    from conftest import user_dataset
    from eegauth.autoselect import select_model
    ds = user_dataset(small_separable_table, "S01", seed=8)
    trained, _ = select_model(ds, SearchBudget(30.0, 6), k_folds=5, seed=8)
    return trained


class TestAuthenticate:

    def test_all_genuine_grants(self, model, small_separable_table):
        session = vectors_for(small_separable_table, "S01", 50)
        decision = authenticate(model, session)
        assert decision.outcome == service.GRANT
        assert decision.genuine_fraction > 0.9

    def test_all_impostor_denies(self, model, small_separable_table):
        session = vectors_for(small_separable_table, "S04", 50)
        decision = authenticate(model, session)
        assert decision.outcome == service.DENY
        assert decision.genuine_fraction < 0.1

    def test_exact_tie_denies(self, model, small_separable_table, monkeypatch):
        session = vectors_for(small_separable_table, "S01", 10)
        monkeypatch.setattr(classifiers, "predict_labels",
                            lambda m, X: np.repeat([True, False], 5))
        decision = authenticate(model, session)
        assert decision.genuine_fraction == 0.5
        assert decision.outcome == service.DENY

    @settings(max_examples=200, deadline=None)
    @given(labels=st.lists(st.booleans(), min_size=1, max_size=200),
           threshold=st.floats(0.0, 1.0))
    def test_grant_iff_fraction_exceeds_threshold(self, labels, threshold):
        count, n = sum(labels), len(labels)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifiers, "predict_labels", lambda m, X: np.array(labels))
            decision = authenticate(None, np.ones((n, 15)), threshold)
        assert decision.genuine_fraction == count / n
        assert decision.n_instances == n
        assert decision.outcome == (service.GRANT if count / n > threshold
                                    else service.DENY)

    def test_threshold_monotone(self, model, small_separable_table):
        session = np.vstack([vectors_for(small_separable_table, "S01", 30),
                             vectors_for(small_separable_table, "S04", 20)])
        outcomes = [authenticate(model, session, threshold=t).outcome
                    for t in (0.0, 0.25, 0.5, 0.75, 0.999)]
        # increasing the threshold may flip grant->deny but never deny->grant
        seen_deny = False
        for outcome in outcomes:
            if outcome == service.DENY:
                seen_deny = True
            assert not (seen_deny and outcome == service.GRANT)

    def test_empty_session_rejected(self, model):
        with pytest.raises(ValidationError, match="session carries no instances"):
            authenticate(model, np.empty((0, 15)))

    def test_model_portability(self, model, small_separable_table):
        session = vectors_for(small_separable_table, "S01", 40)
        clone = classifiers.deserialize(classifiers.serialize(model))
        a = authenticate(model, session)
        b = authenticate(clone, session)
        assert (a.outcome, a.genuine_fraction) == (b.outcome, b.genuine_fraction)


@pytest.fixture(scope="module")
def blob_models():
    """Default-param models of every algorithm, trained on two blobs."""
    rng = np.random.default_rng(13)
    X = np.vstack([rng.normal(9.0, 1.0, (200, 15)),
                   rng.normal(4.0, 1.0, (200, 15))]) ** 2
    y = np.repeat([1.0, 0.0], 200)
    return {algorithm: classifiers.train(algorithm, classifiers.default_params(algorithm),
                                         X, y, 0)
            for algorithm in classifiers.ALGORITHMS}


@pytest.mark.parametrize("algorithm", classifiers.ALGORITHMS)
def test_enroll_body_equals_round_tripped_model(blob_models, algorithm):
    model = classifiers.with_cv_accuracy(blob_models[algorithm], 0.75)
    body = service.EnrollResponse(model, 6, 1.5, "n").to_dict()
    copied = {**body, "model": json.loads(classifiers.serialize(model))}
    assert json.dumps(body, sort_keys=True) == json.dumps(copied, sort_keys=True)


class TestNonFiniteSession:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("algorithm", classifiers.ALGORITHMS)
    def test_rejected_never_scored(self, blob_models, algorithm, value):
        model = blob_models[algorithm]
        with pytest.raises(ValidationError):
            authenticate(model, np.full((50, 15), value))
        session = np.full((50, 15), 81.0)  # genuine-looking rows
        session[7, 3] = value
        with pytest.raises(ValidationError):
            authenticate(model, session)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_bad_cell_rejected_before_scoring(self, data):
        n = data.draw(st.integers(1, 60), label="rows")
        session = np.array(data.draw(st.lists(
            st.lists(st.floats(0.0, 1e6), min_size=15, max_size=15),
            min_size=n, max_size=n), label="session"))
        row = data.draw(st.integers(0, n - 1), label="row")
        column = data.draw(st.integers(0, 14), label="column")
        bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf])
                        | st.floats(max_value=-np.finfo(float).smallest_subnormal),
                        label="bad")
        corrupt = session.copy()
        corrupt[row, column] = bad
        scored = []

        def recording_predict_labels(model, X):
            scored.append(np.array(X))
            return np.ones(len(X), dtype=bool)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(classifiers, "predict_labels", recording_predict_labels)
            with pytest.raises(ValidationError):
                authenticate(None, corrupt)
            assert scored == []
            authenticate(None, session)
        assert len(scored) == 1
        assert np.array_equal(scored[0], session)


def first_leaf(node: dict) -> dict:
    while "leaf" not in node:
        node = node["l"]
    return node


def raw_exchange(base, request: bytes, timeout=5.0) -> bytes:
    """Send raw bytes, then read until the server closes the connection;
    the timeout turns a server that never closes into a failure."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=timeout) as sock:
        sock.sendall(request)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    return reply


def record_handler_threads(server) -> list:
    """The thread of every connection the server handles from now on."""
    threads = []

    class ThreadProbeHandler(server.RequestHandlerClass):
        def handle(self):
            threads.append(threading.current_thread())
            super().handle()

    server.RequestHandlerClass = ThreadProbeHandler
    return threads


def only_response(reply: bytes) -> tuple[bytes, bytes]:
    """(status line, body) of a reply that must hold exactly one HTTP
    response: nothing may follow the body its Content-Length announces."""
    head, separator, rest = reply.partition(b"\r\n\r\n")
    assert separator, reply
    status, *headers = head.split(b"\r\n")
    lengths = [int(line.split(b":", 1)[1]) for line in headers
               if line.lower().startswith(b"content-length:")]
    assert len(lengths) == 1 and len(rest) == lengths[0], reply
    return status, rest


@pytest.mark.parametrize("option", [{"max_workers": 0}, {"max_workers": -1},
                                    {"k_folds": 1}, {"k_folds": 0},
                                    {"enroll_count": 5}, {"enroll_count": 0},
                                    {"enroll_count": -1}],
                         ids=["no-workers", "negative-workers", "one-fold", "no-folds",
                              "fewer-rows-than-folds", "no-rows", "negative-rows"])
def test_make_server_rejects_unusable_options(tmp_path, option):
    # no training slot blocks every enrollment forever; fewer than 2 folds,
    # or fewer enrollment rows than folds, stores every enrolling user and
    # then fails the split
    with pytest.raises(ValidationError):
        make_server(tmp_path / "store", port=0, **option)
    assert not (tmp_path / "store").exists()


def test_make_server_needs_an_enrollment_row_per_fold(tmp_path):
    with pytest.raises(ValidationError, match=r"^enroll_count must be >= k_folds \(5\), "
                                              r"got 4: every fold needs a genuine row$"):
        make_server(tmp_path / "store", port=0, enroll_count=4, k_folds=5)
    server = make_server(tmp_path / "store", port=0, enroll_count=5, k_folds=5)
    server.server_close()


class TestHttpService:
    @pytest.fixture()
    def http_server(self, tmp_path, loaded_table):
        server = make_server(tmp_path / "store", port=0, budget=BUDGET,
                             enroll_count=ENROLL_N, k_folds=5, max_workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        store = FeatureStore(tmp_path / "store")
        fill_store(store, loaded_table)
        yield server
        server.shutdown()
        server.server_close()

    @pytest.fixture()
    def server(self, http_server):
        host, port = http_server.server_address
        return f"http://{host}:{port}"

    def post(self, url, payload):
        body = json.dumps(payload).encode()
        request = urllib.request.Request(url, data=body,
                                         headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read().decode())

    def test_health_and_users(self, server):
        with urllib.request.urlopen(server + "/api/v1/health") as r:
            health = json.loads(r.read().decode())
        assert health["status"] == "ok"
        with urllib.request.urlopen(server + "/api/v1/users") as r:
            users = json.loads(r.read().decode())["users"]
        assert users == ["S02", "S03", "S04", "S05", "S06"]

    def test_enroll_then_authenticate_round_trip(self, server, loaded_table):
        vectors = vectors_for(loaded_table, "S01", ENROLL_N).tolist()
        reply = self.post(server + "/api/v1/enroll",
                          {"user_id": "S01", "instances": vectors,
                           "client_nonce": "abc"})
        assert reply["client_nonce"] == "abc"
        assert reply["summary"]["cv_accuracy"] >= 0.9
        model = classifiers.model_from_dict(reply["model"])

        session = vectors_for(loaded_table, "S01", 30).tolist()
        decision = self.post(server + "/api/v1/authenticate",
                             {"model": reply["model"], "instances": session})
        assert decision["outcome"] == "grant"
        local = authenticate(model, np.asarray(session))
        assert local.genuine_fraction == decision["genuine_fraction"]

    def test_error_shape_and_status(self, server):
        request = urllib.request.Request(
            server + "/api/v1/enroll",
            data=json.dumps({"user_id": "bad"}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        body = json.loads(err.value.read().decode())
        assert body["code"] == "invalid_request"
        assert "message" in body

    def test_non_finite_session_400(self, server, blob_models):
        # json.dumps writes inf as the bare token Infinity, which json.loads accepts
        body = json.dumps({"model": json.loads(classifiers.serialize(blob_models["random_forest"])),
                           "instances": [[float("inf")] * 15] * 50})
        assert "Infinity" in body
        request = urllib.request.Request(server + "/api/v1/authenticate",
                                         data=body.encode(),
                                         headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert json.loads(err.value.read().decode())["code"] == "invalid_request"

    @pytest.mark.parametrize("row", [
        [-1.0] * 15,
        # genuine-looking for the LDA model, which would grant 50 of them
        [81.0] * 14 + [-1.0],
    ], ids=["all-negative", "one-negative"])
    def test_negative_session_400_not_granted(self, server, blob_models, row):
        body = json.dumps({"model": json.loads(classifiers.serialize(blob_models["lda"])),
                           "instances": [row] * 50})
        request = urllib.request.Request(server + "/api/v1/authenticate",
                                         data=body.encode(),
                                         headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        reply = json.loads(err.value.read().decode())
        assert reply["code"] == "invalid_request"
        assert "negative band power" in reply["message"]

    @pytest.mark.parametrize("kind", sorted(CORRUPT_ENTRIES))
    def test_corrupt_pool_entry_400(self, tmp_path, server, loaded_table, kind):
        corrupt_entry(FeatureStore(tmp_path / "store"), "S03", kind)
        request = urllib.request.Request(
            server + "/api/v1/enroll",
            data=json.dumps({"user_id": "S01", "client_nonce": "n",
                             "instances": vectors_for(loaded_table, "S01",
                                                      ENROLL_N).tolist()}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        reply = json.loads(err.value.read().decode())
        assert reply["code"] == "invalid_request"
        assert "S03" in reply["message"]

    @pytest.mark.parametrize("user_id", [".", ".."])
    def test_dot_user_id_enroll_400_unwritten(self, tmp_path, server, loaded_table, user_id):
        # the store holds users/S02 ... users/S06 and nothing else
        before = sorted(p.relative_to(tmp_path).as_posix()
                        for p in (tmp_path / "store").rglob("*"))
        status, reply = self.refused(server + "/api/v1/enroll", {
            "user_id": user_id, "client_nonce": "n",
            "instances": vectors_for(loaded_table, "S01", ENROLL_N).tolist()})
        assert (status, reply["code"]) == (400, "invalid_request")
        assert "invalid user_id" in reply["message"]
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in (tmp_path / "store").rglob("*")) == before

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_malformed_content_length_400(self, server, length):
        # the server must answer and close without waiting for a body
        reply = raw_exchange(server, (
            f"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}").encode())
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b'"invalid_request"' in reply

    ENROLL_BODY = b'{"user_id": "S01", "instances": [], "client_nonce": "abc"}'

    def test_chunked_body_400_and_closed(self, server):
        # unread chunk bytes must not be parsed as a second request
        body = self.ENROLL_BODY
        reply = raw_exchange(server, (
            b"POST /api/v1/enroll HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body)))
        status, payload = only_response(reply)
        assert status.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["code"] == "invalid_request"

    def test_conflicting_content_lengths_400_and_closed(self, server):
        # neither value may frame the body; the connection cannot be reused
        body = self.ENROLL_BODY
        reply = raw_exchange(server, (
            b"POST /api/v1/enroll HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)))
        status, payload = only_response(reply)
        assert status.startswith(b"HTTP/1.1 400 ")
        assert json.loads(payload)["code"] == "invalid_request"

    def test_deeply_nested_json_400(self, server):
        body = b"[" * 50000
        reply = raw_exchange(server, (
            b"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b'"invalid_request"' in reply

    def test_integer_beyond_the_digit_limit_400(self, server):
        # json.loads raises a plain ValueError past sys.get_int_max_str_digits()
        body = b'{"model": {}, "instances": [[' + b"1" * 5000 + b"]]}"
        reply = raw_exchange(server, (
            b"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n" % len(body)) + body)
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b'"invalid_request"' in reply

    def test_oversized_content_length_413(self, server):
        length = service.AuthServiceHandler.max_body_bytes + 1
        reply = raw_exchange(server, (
            f"POST /api/v1/enroll HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n{{}}").encode())
        assert reply.startswith(b"HTTP/1.1 413 ")
        assert b'"payload_too_large"' in reply

    def test_short_body_times_out_and_closes(self, http_server, server):
        assert 0.0 < service.AuthServiceHandler.timeout <= 60.0
        http_server.RequestHandlerClass = type(
            "QuickTimeoutHandler", (http_server.RequestHandlerClass,), {"timeout": 0.5})
        reply = raw_exchange(server, (
            b"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100000\r\n\r\n{}"))
        # the connection was closed (raw_exchange returned), never with a 500
        assert reply == b"" or reply.startswith(b"HTTP/1.1 408 ")
        assert b" 500 " not in reply

    def test_accepted_socket_sets_tcp_nodelay(self, http_server, server):
        nodelay = []

        class ProbeHandler(http_server.RequestHandlerClass):
            def handle(self):
                nodelay.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))
                super().handle()

        http_server.RequestHandlerClass = ProbeHandler
        with urllib.request.urlopen(server + "/api/v1/health") as r:
            assert r.status == 200
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_sequential_requests_reuse_handler_threads(self, http_server, server):
        threads = record_handler_threads(http_server)
        for _ in range(12):
            with urllib.request.urlopen(server + "/api/v1/health", timeout=30) as r:
                assert r.status == 200
        # a connection can arrive before the previous one's thread is idle
        # again, so that a second thread starts; never one per request
        assert len(threads) == 12 and len(set(threads)) <= 2

    def test_stalled_body_does_not_delay_other_clients(self, server):
        host, port = server.removeprefix("http://").split(":")
        with socket.create_connection((host, int(port)), timeout=30) as stalled:
            stalled.sendall(b"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\n"
                            b"Content-Length: 100000\r\n\r\n{\"instances\":")
            # far less than the handler's 30 s timeout, which the stalled
            # connection would hold a shared thread for
            with urllib.request.urlopen(server + "/api/v1/health", timeout=5) as r:
                assert r.status == 200
            stalled.shutdown(socket.SHUT_WR)
            reply = b""
            while chunk := stalled.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ") and b"ended after" in reply

    def test_interim_100_continue_is_sent_before_the_body(self, server):
        host, port = server.removeprefix("http://").split(":")
        body = b"{}"
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"POST /api/v1/authenticate HTTP/1.1\r\nHost: x\r\n"
                         b"Connection: close\r\nExpect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert sock.recv(65536) == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            reply = b""
            while chunk := sock.recv(65536):
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ") and b"missing field" in reply

    @pytest.mark.parametrize("route, fields", [
        ("enroll", {"instances": [[1.0] * 15] * (ENROLL_N - 1) + [[1.0] * 14]}),
        ("enroll", {"instances": [["abc"] * 15] * ENROLL_N}),
        ("authenticate", {"instances": [[1.0] * 15, [1.0] * 14]}),
        ("authenticate", {"instances": [[{"x": 1}] * 15]}),
        ("authenticate", {"instances": 5}),
        ("authenticate", {"instances": [[1.0] * 15], "threshold": "abc"}),
        ("authenticate", {"instances": [[1.0] * 15], "threshold": [0.5, 0.5]}),
        ("authenticate", {"instances": [[10 ** 400] * 15]}),
        ("authenticate", {"instances": [[1.0] * 15], "threshold": 10 ** 400}),
        # strings and bools that numpy and float() would read as numbers
        ("enroll", {"instances": [[1.0] * 15] * (ENROLL_N - 1) + [[True] * 15]}),
        ("enroll", {"instances": [[1.0] * 15] * (ENROLL_N - 1) + [["1.5"] + [1.0] * 14]}),
        ("authenticate", {"instances": [["1.5"] * 15]}),
        ("authenticate", {"instances": [[1.0] * 14 + [True]]}),
        ("authenticate", {"instances": [[False] * 15]}),
        ("authenticate", {"instances": "1.5"}),
        ("authenticate", {"instances": [[1.0] * 15], "threshold": "0.5"}),
        ("authenticate", {"instances": [[1.0] * 15], "threshold": True}),
        # band powers are never negative
        ("authenticate", {"instances": [[-1.0] * 15]}),
        # ids that str() would turn into "None" and "123"
        ("enroll", {"instances": [[1.0] * 15] * ENROLL_N, "client_nonce": None}),
        ("enroll", {"instances": [[1.0] * 15] * ENROLL_N, "user_id": 123}),
    ], ids=["enroll-ragged", "enroll-non-numeric", "authenticate-ragged",
            "authenticate-non-numeric", "authenticate-scalar", "threshold-string",
            "threshold-list", "authenticate-huge-int", "threshold-huge-int",
            "enroll-bool", "enroll-numeric-string", "authenticate-numeric-string",
            "authenticate-bool-cell", "authenticate-all-bool",
            "authenticate-scalar-string", "threshold-numeric-string", "threshold-bool",
            "authenticate-negative",
            "enroll-nonce-null", "enroll-user-id-int"])
    def test_malformed_client_values_400(self, server, blob_models, route, fields):
        base = {"enroll": {"user_id": "S01", "client_nonce": "n"},
                "authenticate": {"model": json.loads(classifiers.serialize(blob_models["lda"]))}}
        request = urllib.request.Request(
            f"{server}/api/v1/{route}", data=json.dumps({**base[route], **fields}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert json.loads(err.value.read().decode())["code"] == "invalid_request"

    @pytest.mark.parametrize("algorithm, corrupt", [
        ("decision_tree", lambda m: m["fitted_state"]["tree"].update(f=99)),
        ("random_forest", lambda m: first_leaf(m["fitted_state"]["trees"][0]).update(leaf="x")),
        ("lda", lambda m: m["fitted_state"].update(w=[1.0])),
        ("knn", lambda m: m["fitted_state"].update(train_x=[[1.0]])),
        ("gaussian_nb", lambda m: m["fitted_state"].update(mean=[[0.0]])),
        ("logistic_regression", lambda m: m["fitted_state"].update(b="x")),
        # JSON integers beyond the float range
        ("logistic_regression", lambda m: m["fitted_state"].update(b=10 ** 400)),
        ("decision_tree", lambda m: m["fitted_state"]["tree"].update(t=10 ** 400)),
        ("knn", lambda m: m["fitted_state"]["train_x"][0].__setitem__(0, 10 ** 400)),
        # kNN rows that numpy would read as numbers, and ragged rows
        ("knn", lambda m: m["fitted_state"].update(
            train_x=[[repr(v) for v in row] for row in m["fitted_state"]["train_x"]])),
        ("knn", lambda m: m["fitted_state"].update(
            train_y=[v == 1.0 for v in m["fitted_state"]["train_y"]])),
        ("knn", lambda m: m["fitted_state"]["train_x"][0].pop()),
        # hyperparameters of the wrong type
        ("logistic_regression", lambda m: m["params"].update(l2=None)),
        ("lda", lambda m: m["params"].update(shrinkage=[0.5])),
        ("gaussian_nb", lambda m: m["params"].update(var_smoothing={})),
        ("knn", lambda m: m["params"].update(k=True)),
        ("knn", lambda m: m["params"].update(k=5.0)),
        # forests whose tree count matches "trees": a bool, a float, and
        # fewer trees than the search ever proposes
        ("random_forest", lambda m: m.update(
            params={**m["params"], "trees": True},
            fitted_state={**m["fitted_state"], "trees": m["fitted_state"]["trees"][:1]})),
        ("random_forest", lambda m: m["params"].update(trees=float(m["params"]["trees"]))),
        ("random_forest", lambda m: m.update(
            params={**m["params"], "trees": 9},
            fitted_state={**m["fitted_state"], "trees": m["fitted_state"]["trees"][:9]})),
        ("lda", lambda m: m.update(feature_order=["x"] * 15)),
    ], ids=["tree-feature", "forest-leaf", "lda-w", "knn-train_x", "gnb-mean",
            "logistic-b", "logistic-b-huge-int", "tree-threshold-huge-int",
            "knn-train_x-huge-int", "knn-train_x-numeric-strings", "knn-train_y-bool",
            "knn-train_x-ragged", "logistic-l2-null", "lda-shrinkage-list",
            "gnb-var_smoothing-object", "knn-k-bool", "knn-k-float", "forest-trees-bool",
            "forest-trees-float", "forest-nine-trees", "feature-order"])
    def test_malformed_model_400(self, server, blob_models, algorithm, corrupt):
        model = json.loads(classifiers.serialize(blob_models[algorithm]))
        corrupt(model)
        request = urllib.request.Request(
            f"{server}/api/v1/authenticate",
            data=json.dumps({"model": model, "instances": [[81.0] * 15]}).encode(),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        assert json.loads(err.value.read().decode())["code"] == "invalid_request"

    def test_unknown_route_404(self, server):
        for payload in (None, {}):  # GET, POST
            status, reply = self.refused(server + "/api/v1/nope", payload)
            assert (status, reply) == (404, {"code": "not_found",
                                             "message": "no route /api/v1/nope"})

    def refused(self, url, payload=None) -> tuple[int, dict]:
        """(status, JSON body) of a request the server must refuse; a GET
        when there is no payload."""
        data = None if payload is None else json.dumps(payload).encode()
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(urllib.request.Request(
                url, data=data, headers={"Content-Type": "application/json"}))
        return err.value.code, json.loads(err.value.read().decode())

    def test_first_enrollment_into_empty_store_409(self, tmp_path, loaded_table):
        server = make_server(tmp_path / "empty", port=0, budget=BUDGET,
                             enroll_count=ENROLL_N, k_folds=5)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address
        try:
            status, reply = self.refused(
                f"http://{host}:{port}/api/v1/enroll",
                {"user_id": "S01", "client_nonce": "n",
                 "instances": vectors_for(loaded_table, "S01", ENROLL_N).tolist()})
        finally:
            server.shutdown()
            server.server_close()
        assert (status, set(reply)) == (409, {"code", "message"})
        assert reply["code"] == "enrollment_unavailable"
        assert reply["message"].startswith("impostor pool holds 0 instances")
        assert FeatureStore(tmp_path / "empty").list_users() == ["S01"]

    def test_no_model_within_budget_503(self, server, loaded_table, monkeypatch):
        def no_model(ds, budget, k_folds, *, seed):
            raise NoModelError("budget expired before any configuration was evaluated")

        monkeypatch.setattr(service, "select_model", no_model)
        status, reply = self.refused(
            server + "/api/v1/enroll",
            {"user_id": "S01", "client_nonce": "n",
             "instances": vectors_for(loaded_table, "S01", ENROLL_N).tolist()})
        assert (status, set(reply)) == (503, {"code", "message"})
        assert reply["code"] == "retryable_failure"
        assert reply["message"].startswith("budget expired")

    @pytest.mark.parametrize("route", ["/api/v1/health", "/api/v1/users"])
    def test_get_failure_500_not_dropped(self, tmp_path, server, capsys, route):
        # the store's users directory vanishing under a running server
        shutil.rmtree(tmp_path / "store" / "users")
        status, reply = self.refused(server + route)
        assert (status, set(reply)) == (500, {"code", "message"})
        assert reply["code"] == "internal_error"
        assert "users" in reply["message"]
        assert "Traceback" not in capsys.readouterr().err


def test_server_close_ends_every_handler_thread(tmp_path):
    # tests fork after their servers close, and Python 3.12 warns on a fork
    # while other threads are alive
    server = make_server(tmp_path / "store", port=0)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    threads = record_handler_threads(server)
    host, port = server.server_address
    run_threads([lambda: urllib.request.urlopen(
        f"http://{host}:{port}/api/v1/health", timeout=30).close()] * 4)
    server.shutdown()
    server.server_close()
    serving.join(timeout=30)
    assert len(threads) == 4 and not any(thread.is_alive() for thread in threads)


# --- parsed-model cache and body decoding --------------------------------------------

def canonical(value) -> str:
    """A text that tells decoded bodies apart: key order, -0.0, NaN and which
    cached model object a value is all show."""
    return json.dumps(value, default=lambda model: f"<model {id(model)}>")


def decode_or_error(decode, text):
    try:
        return canonical(decode(text)), None
    except (ValueError, RecursionError) as exc:
        return None, repr(exc)


@pytest.fixture(scope="module")
def lda_text(blob_models):
    return classifiers.serialize(blob_models["lda"]).decode()


@pytest.fixture(scope="module")
def primed(lda_text):
    """A cache that holds the LDA model's compact text, and that model."""
    models = service.ModelCache(service.MODEL_CACHE_BYTES)
    model = classifiers.model_from_dict(json.loads(lda_text))
    models.add(lda_text, model)
    return models, model


def json_containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children,
                                                            max_size=3)


WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=5),
    json_containers, max_leaves=8)
# "model" spelled plainly and with escapes, which decode to the same key
MODEL_KEYS = ('"model"', '"mod\\u0065l"', '"\\u006d\\u006f\\u0064\\u0065\\u006c"')


@st.composite
def object_texts(draw, cached_text):
    """A top-level object's text and the (key, value) texts of its members;
    "model" members may repeat and hold the cached text, the same model
    written differently, or any JSON value."""
    model_values = st.sampled_from([
        cached_text, json.dumps(json.loads(cached_text), indent=1),
        json.dumps(json.loads(cached_text), sort_keys=True)]) | JSON_VALUES.map(json.dumps)
    members = draw(st.lists(
        st.tuples(st.sampled_from(MODEL_KEYS), model_values)
        | st.tuples(st.sampled_from(['"instances"', '"threshold"', '"a"', '""'])
                    | st.text(max_size=4).map(json.dumps), JSON_VALUES.map(json.dumps)),
        max_size=4))
    parts = [draw(WHITESPACE) + key + draw(WHITESPACE) + ":" + draw(WHITESPACE) + value
             + draw(WHITESPACE) for key, value in members]
    text = (draw(WHITESPACE) + "{" + (",".join(parts) or draw(WHITESPACE)) + "}"
            + draw(WHITESPACE))
    return text, members


class TestDecodeBody:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_json_loads_with_cached_model_swapped_in(self, data, lda_text, primed):
        models, cached = primed
        text, members = data.draw(object_texts(lda_text))
        expected = json.loads(text)
        # empty cache: json.loads exactly
        assert canonical(service.decode_body(text, service.ModelCache(1 << 20))[0]) \
            == canonical(expected)
        # primed cache: the last "model" member is the cached model iff its
        # text is the cached text
        model_values = [value for key, value in members if json.loads(key) == "model"]
        if model_values and model_values[-1] == lda_text:
            expected["model"] = cached
        body, model_text = service.decode_body(text, models)
        assert canonical(body) == canonical(expected)
        assert model_text == (model_values[-1] if model_values and body["model"] is not cached
                              else None)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_or_mutated_agrees_with_json_loads(self, data, lda_text, primed):
        models, cached = primed
        text, _ = data.draw(object_texts(lda_text))
        at = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:at]
        else:
            text = text[:at] + data.draw(st.sampled_from('{}[]",:-+.0159eEnNIt\\ \n\x00é')) \
                + text[at + 1:]
        loaded, loads_error = decode_or_error(json.loads, text)
        bare, bare_error = decode_or_error(
            lambda t: service.decode_body(t, service.ModelCache(1 << 20))[0], text)
        assert (bare, bare_error) == (loaded, loads_error)
        decoded, error = decode_or_error(lambda t: service.decode_body(t, models)[0], text)
        assert error == loads_error
        if error is None and decoded != loaded:
            # the only difference allowed: the cached model for its exact text
            body = service.decode_body(text, models)[0]
            assert body["model"] is cached and lda_text in text
            assert canonical({**body, "model": json.loads(lda_text)}) == loaded

    @pytest.mark.parametrize("after", ["5", "x", '"a"', "{}", ", }", ""],
                             ids=["digit", "garbage", "string", "object", "trailing-comma",
                                  "cut-short"])
    def test_cached_text_followed_by_junk_raises(self, lda_text, primed, after):
        models, _ = primed
        text = '{"model": ' + lda_text + after + (', "instances": []}' if after else "")
        with pytest.raises(json.JSONDecodeError):
            json.loads(text)
        with pytest.raises(json.JSONDecodeError):
            service.decode_body(text, models)
        cut = '{"model": ' + lda_text[:-2] + "}}"
        with pytest.raises(json.JSONDecodeError):
            service.decode_body(cut, models)

    def test_same_edges_other_middle_is_parsed(self, lda_text, primed):
        models, cached = primed
        middle = len(lda_text) // 2
        digit = next(at for at in range(middle, len(lda_text)) if lda_text[at] in "12345678")
        other = lda_text[:digit] + str(int(lda_text[digit]) + 1) + lda_text[digit + 1:]
        assert len(other) == len(lda_text) and other[:64] == lda_text[:64] \
            and other[-64:] == lda_text[-64:]
        text = '{"model": ' + other + "}"
        body, model_text = service.decode_body(text, models)
        assert canonical(body) == canonical(json.loads(text)) and model_text == other

    def test_top_level_non_object_is_json_loads(self, primed):
        models, _ = primed
        for text in ("[1, 2]", " 5 ", '"model"', "null", "NaN"):
            assert canonical(service.decode_body(text, models)) \
                == canonical((json.loads(text), None))


@pytest.fixture(scope="module")
def lda_variants(lda_text):
    """Accepted LDA model texts, lda_text first, and each one's model: the
    others change one digit of one weight, so all are equally long and share
    their first and last 64 characters."""
    start = lda_text.index('"w":[')
    digits = [at for at in range(start, lda_text.index("]", start))
              if lda_text[at] in "12345678" and 64 <= at < len(lda_text) - 64]
    texts = [lda_text] + [lda_text[:at] + str(int(lda_text[at]) + 1) + lda_text[at + 1:]
                          for at in digits[::len(digits) // 5][:5]]
    assert len(set(texts)) == 6
    assert {(len(t), t[:64], t[-64:]) for t in texts} \
        == {(len(lda_text), lda_text[:64], lda_text[-64:])}
    return {text: classifiers.model_from_dict(json.loads(text)) for text in texts}


def counting(monkeypatch, module, name):
    """Count the calls of module.name from here on."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestModelCache:
    SESSION = np.vstack([np.full((3, 15), 81.0), np.full((2, 15), 16.0)]).tolist()

    @pytest.fixture()
    def start(self, tmp_path):
        """Start servers on fresh stores; each returns (base URL, server)."""
        servers = []

        def started():
            server = make_server(tmp_path / f"store{len(servers)}", port=0)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
            host, port = server.server_address
            return f"http://{host}:{port}", server

        yield started
        for server in servers:
            server.shutdown()
            server.server_close()

    def post(self, base, body: bytes) -> tuple[int, bytes]:
        request = urllib.request.Request(f"{base}/api/v1/authenticate", data=body,
                                         headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as err:
            return err.code, err.read()

    def body(self, model) -> bytes:
        return (b'{"model": ' + classifiers.serialize(model) + b', "instances": '
                + json.dumps(self.SESSION).encode() + b"}")

    @pytest.mark.parametrize("algorithm", classifiers.ALGORITHMS)
    def test_repeats_byte_identical_to_fresh_server(self, start, blob_models, algorithm,
                                                    monkeypatch):
        calls = counting(monkeypatch, classifiers, "model_from_dict")
        base, server = start()
        body = self.body(blob_models[algorithm])
        replies = [self.post(base, body) for _ in range(4)]
        fresh_base, _ = start()
        assert replies == [self.post(fresh_base, body)] * 4
        assert replies[0][0] == 200
        # one parse on each server: the three repeats were served from the cache
        assert len(calls) == 2
        assert len(server.RequestHandlerClass.state.models) == 1

    def test_rejected_model_never_cached(self, start, blob_models, monkeypatch):
        calls = counting(monkeypatch, classifiers, "model_from_dict")
        base, server = start()
        model = json.loads(classifiers.serialize(blob_models["lda"]))
        model["fitted_state"]["w"] = [1.0]
        body = json.dumps({"model": model, "instances": self.SESSION}).encode()
        for repeat in range(3):
            status, reply = self.post(base, body)
            assert status == 400 and json.loads(reply)["code"] == "invalid_request"
        assert len(calls) == 3
        assert len(server.RequestHandlerClass.state.models) == 0

    @pytest.mark.parametrize("after, cut", [("5", 0), ("garbage", 0), ("", 1)],
                             ids=["digit", "garbage", "cut-short"])
    def test_cached_text_followed_by_junk_400(self, start, blob_models, after, cut):
        base, server = start()
        assert self.post(base, self.body(blob_models["knn"]))[0] == 200
        text = classifiers.serialize(blob_models["knn"])
        status, reply = self.post(base, b'{"model": ' + text[:len(text) - cut]
                                  + after.encode() + b', "instances": [[81.0]]}')
        assert status == 400 and json.loads(reply)["code"] == "invalid_request"
        assert len(server.RequestHandlerClass.state.models) == 1

    def test_cached_arrays_read_only(self, start, blob_models):
        base, server = start()
        for algorithm in ("random_forest", "knn"):
            assert self.post(base, self.body(blob_models[algorithm]))[0] == 200
        models = server.RequestHandlerClass.state.models
        for algorithm in ("random_forest", "knn"):
            model, _ = models.match(classifiers.serialize(blob_models[algorithm]).decode(), 0)
            arrays = classifiers.fitted_arrays(model)
            assert len(arrays) == (7 if algorithm == "random_forest" else 4)
            assert not any(array.flags.writeable for array in arrays)
        # the models the test trained were not touched
        assert blob_models["knn"].fitted_state["train_x"].flags.writeable

    def test_eviction_keeps_the_byte_bound(self, start, blob_models, monkeypatch):
        lda = [classifiers.with_cv_accuracy(blob_models["lda"], accuracy / 10)
               for accuracy in range(4)]
        # a cached model counts its text and its fitted arrays; the four texts
        # differ only in one digit of cv_accuracy, so they are equally long
        per_model = sys.getsizeof(classifiers.serialize(lda[0]).decode()) \
            + sum(a.nbytes for a in classifiers.fitted_arrays(lda[0]))
        monkeypatch.setattr(service, "MODEL_CACHE_BYTES", 2 * per_model)
        calls = counting(monkeypatch, classifiers, "model_from_dict")
        base, server = start()
        models = server.RequestHandlerClass.state.models
        for model in (lda[0], lda[1], lda[0], lda[2]):  # lda[1] is least recently used
            assert self.post(base, self.body(model))[0] == 200
            assert models.nbytes <= 2 * per_model
        assert len(calls) == 3 and len(models) == 2
        assert self.post(base, self.body(lda[0]))[0] == 200
        assert len(calls) == 3
        assert self.post(base, self.body(lda[1]))[0] == 200
        assert len(calls) == 4 and models.nbytes == 2 * per_model
        # a model larger than the whole cache is parsed every time
        assert self.post(base, self.body(blob_models["knn"]))[0] == 200
        assert self.post(base, self.body(blob_models["knn"]))[0] == 200
        assert len(calls) == 6 and models.nbytes == 2 * per_model

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_match_iff_a_cached_text_starts_at_pos(self, data, lda_variants):
        texts = list(lda_variants)
        cached = data.draw(st.lists(st.sampled_from(texts), min_size=1, unique=True))
        models = service.ModelCache(service.MODEL_CACHE_BYTES)
        for text in cached:
            models.add(text, lda_variants[text])
        query = data.draw(st.sampled_from(texts))
        edit = data.draw(st.sampled_from(["none", "middle", "truncate", "extend", "shift"]))
        if edit == "middle":
            at = data.draw(st.integers(64, len(query) - 65))
            query = query[:at] + data.draw(st.sampled_from('0123456789.,-e]}"é')) \
                + query[at + 1:]
        elif edit == "truncate":
            query = query[:data.draw(st.integers(0, len(query) - 1))]
        elif edit == "extend":
            query += data.draw(st.text(min_size=1, max_size=3))
        before, after = data.draw(st.text(max_size=4)), data.draw(st.text(max_size=4))
        body = before + query + after
        shift = data.draw(st.sampled_from([-2, -1, 1, 2])) if edit == "shift" else 0
        pos = max(0, len(before) + shift)
        starting = [text for text in cached if body[pos:pos + len(text)] == text]
        found = models.match(body, pos)
        if starting:
            [text] = starting
            assert found[0] is lda_variants[text] and found[1] == pos + len(text)
        else:
            assert found is None

    def test_concurrent_adds_and_matches_keep_the_bound(self, blob_models):
        texts = [classifiers.serialize(classifiers.with_cv_accuracy(blob_models["lda"], i / 100))
                 .decode() for i in range(12)]
        # a cached model counts its text and its fitted arrays
        per_model = max(map(sys.getsizeof, texts)) \
            + sum(a.nbytes for a in classifiers.fitted_arrays(blob_models["lda"]))
        models = service.ModelCache(5 * per_model)
        errors = []

        def worker(offset):
            try:
                for k in range(60):
                    text = texts[(offset + 5 * k) % len(texts)]
                    found = models.match(text, 0)
                    if found is None:
                        models.add(text, classifiers.model_from_dict(json.loads(text)))
                    else:
                        assert found[1] == len(text)
                        assert found[0].cv_accuracy == json.loads(text)["cv_accuracy"]
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        entries = list(models._entries.values())
        assert models.nbytes == sum(e.nbytes for e in entries) <= 5 * per_model
        assert len(entries) == 5
