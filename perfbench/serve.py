"""`serve` workload: enrollment and authentication over HTTP.

Inputs: `eegauth synth-cohort --subjects 15 --seed <seed>`, then
`eegauth extract-features --segments 550 --seed 7`; the feature CSV is read
with `dataset.load_features_csv`.  Vectors 0-499 of every user are what the
store holds, vectors 500-549 are held out as sessions.
Set-up (repeated; `setup_s` is the median): a fresh store gets every user's
500 vectors through `service.FeatureStore.put_user`, so every enrollment
trains against the full impostor pool, and `eegauth serve --port 0 --budget
1000 --max-evals 6 --seed 3` is started on it through launch.py.
Timed pass:
  1. one closed-loop client enrolls the 15 users one after another;
  2. CLIENT_THREADS closed-loop client threads send AUTH_REQUESTS authenticate
     requests, each a 50-instance session: half genuine (the user's held-out
     vectors), half impostor (another user's held-out vectors).
Request bodies are encoded before the clock starts: a model is ~300 KB of
JSON.  Times are at reference speed (probe.py), from the probes the server
runs in its request threads (launch.py).
Checks, one operation per HTTP request: status 200; every genuine session
granted and every impostor session denied; the model returned for a (user,
nonce) byte-identical across passes and across runs with the same seed.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import signal
import statistics
import subprocess
import threading
import time

import numpy as np

import probe
import tracing
from common import Context, DigestLog, fresh_dir, median_setup, program_env, sha256_bytes, \
    timed_passes
from launch import THREAD_PROBES

SUBJECTS = 15
ENROLL_COUNT = 500
SESSION = 50
EXTRACT_SEED = 7
SERVER_ARGS = ("--port", 0, "--budget", 1000, "--max-evals", 6, "--seed", 3)
NONCE = "bench"
AUTH_REQUESTS = 1000
IMPOSTOR_SOURCES = 2
CLIENT_THREADS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 3
START_TIMEOUT_S = 60
STOP_TIMEOUT_S = 30
REQUEST_TIMEOUT_S = 60


def _user_vectors(ctx: Context) -> dict[str, np.ndarray]:
    """Every user's feature vectors, made by the program's own CLI."""
    from eegauth.dataset import load_features_csv

    cohort = ctx.work / "cohort"
    features = ctx.work / "features.csv"
    start = time.perf_counter()
    runs = [ctx.cli(["synth-cohort", "--subjects", SUBJECTS, "--seed", ctx.seed,
                     "--out", cohort], traced=True)]
    runs += ctx.extract_features(cohort, ENROLL_COUNT + SESSION, EXTRACT_SEED, features,
                                 traced=True)
    if ctx.trace:
        ctx.span_groups.extend((run.stats["spans"], 1.0) for run in runs)
    ctx.notes.append(f"inputs_s {time.perf_counter() - start:.6g} s as measured "
                     "(synth-cohort and extract-features, not in setup_s)")
    rows: dict[str, list] = {}
    for instance in load_features_csv(features):
        rows.setdefault(instance.source_subject, []).append(instance.features)
    return {user: np.stack(vectors) for user, vectors in sorted(rows.items())}


def _seed_store(ctx: Context, vectors) -> object:
    from eegauth.service import FeatureStore

    store = fresh_dir(ctx.work / "store")
    feature_store = FeatureStore(store)
    for user, rows in vectors.items():
        feature_store.put_user(user, rows[:ENROLL_COUNT])
    return store


class Server:
    """`eegauth serve` in a child process, started through launch.py."""

    def __init__(self, ctx: Context, store, traced: bool):
        self.stats_path = ctx.stats_file()
        self.log = open(ctx.work / "server.out", "w+")
        cmd = ctx.launcher_cmd(["serve", "--store", store, *SERVER_ARGS],
                               self.stats_path, traced)
        self.proc = subprocess.Popen(cmd, env=program_env(), cwd=ctx.work,
                                     stdout=self.log, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()
        ready = json.loads(self.stats_path.with_suffix(".ready").read_text())
        # start-up to a built server, at reference speed
        self.ready_s = probe.reference_seconds(ready["start"], ready["end"], ready["probes"])

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline and self.proc.poll() is None:
            self.log.seek(0)
            first = self.log.readline()
            if first.startswith("serving on ") and first.endswith("\n"):
                port = int(first.split()[2].rsplit(":", 1)[1])
                conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
                conn.request("GET", "/api/v1/health")
                if conn.getresponse().status == 200:
                    conn.close()
                    return port
            time.sleep(0.02)
        self.stop()
        raise RuntimeError("eegauth serve did not come up")

    def stop(self) -> dict:
        """SIGINT the server, wait for it, and return launch.py's stats."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        if not self.stats_path.exists():
            raise RuntimeError("eegauth serve left no stats")
        return json.loads(self.stats_path.read_text())


def _post(port, path, body: bytes, request_id: str) -> tuple:
    """(status, body, seconds) of one request on its own connection, as
    `eegauth enroll` sends it; status is None when the exchange failed."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
    t0 = time.perf_counter()
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": "application/json",
                              tracing.REQUEST_HEADER: request_id})
        response = conn.getresponse()
        status, raw = response.status, response.read()
    except (OSError, http.client.HTTPException):
        status, raw = None, b""
    finally:
        conn.close()
    return status, raw, time.perf_counter() - t0


def run(ctx: Context, digests: DigestLog) -> dict:
    vectors = _user_vectors(ctx)
    enroll_bodies = {
        user: json.dumps({"user_id": user, "instances": rows[:ENROLL_COUNT].tolist(),
                          "client_nonce": NONCE}).encode()
        for user, rows in vectors.items()}
    sessions = {user: json.dumps(rows[ENROLL_COUNT:].tolist()).encode()
                for user, rows in vectors.items()}
    servers: list[Server] = []

    def setup(last):
        ctx.recorder.active = ctx.trace and last
        seeding_s, store = probe.Sampler().measure(lambda: _seed_store(ctx, vectors))
        ctx.recorder.active = False
        while servers:
            servers.pop().stop()
        servers.append(Server(ctx, store, traced=ctx.trace and last))
        return seeding_s + servers[0].ready_s, None

    try:
        setup_s, _ = median_setup(SETUP_REPEATS, setup)
        if ctx.trace:
            ctx.span_groups.append((list(ctx.recorder.spans), 1.0))
        passes = timed_passes(
            ctx.seconds, lambda i: _one_pass(ctx, digests, servers[0].port,
                                             enroll_bodies, sessions, i))
    finally:
        server_stats = servers[0].stop() if servers else None
    if ctx.trace:
        ctx.span_groups.append((server_stats["spans"], 1.0 / len(passes)))

    request_probes = [(at, seconds) for at, seconds, _ in server_stats[THREAD_PROBES]]
    for p in passes:
        p["enroll_ref_s"] = probe.reference_seconds(*p["enroll_span"], request_probes)
        p["auth_ref_s"] = probe.reference_seconds(*p["auth_span"], request_probes,
                                                  concurrency=CLIENT_THREADS)
        p["ref_s"] = p["enroll_ref_s"] + p["auth_ref_s"]
    for phase in ("enroll", "auth"):
        ctx.notes.append("{} phase {:.6g} s at reference speed, {:.6g} s as measured".format(
            phase, statistics.median(p[f"{phase}_ref_s"] for p in passes),
            statistics.median(p[f"{phase}_span"][1] - p[f"{phase}_span"][0] for p in passes)))
    enroll_lat = [t for p in passes for t in p["enroll_s"]]
    auth_lat = [elapsed for p in passes for _, elapsed in p["auth"]]
    correct = sum(p["correct_decisions"] for p in passes)
    ctx.notes.append(f"enroll_p50_s {_percentile(enroll_lat, 50):.6g} s (n={len(enroll_lat)})")
    ctx.notes.append(f"auth_p50_ms {_percentile(auth_lat, 50) * 1000:.6g} ms "
                     f"(n={len(auth_lat)})")
    ctx.notes.append(f"auth_p99_ms {_percentile(auth_lat, 99) * 1000:.6g} ms "
                     f"(n={len(auth_lat)}, {len(auth_lat) - int(0.99 * len(auth_lat))} beyond)")
    ctx.notes.append(f"auth_rps {statistics.median(p['auth_rps'] for p in passes):.6g} 1/s "
                     f"(n={len(passes)} passes, {CLIENT_THREADS} closed-loop client threads)")
    ctx.notes.append("latencies above are as measured, server probes included; "
                     f"wall_s as measured {statistics.median(p['wall_s'] for p in passes):.6g} s")
    ctx.notes.append("winners " + " ".join(f"{u}={a}" for u, a in passes[0]["winners"]))
    ctx.layer_extras.update(_layer_extras(ctx, passes, server_stats))
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["ref_s"] for p in passes),
        "peak_rss_mb": server_stats["maxrss_kb"] / 1024,
        "accuracy": correct / (AUTH_REQUESTS * len(passes)),
    }


def _percentile(values, q: int) -> float:
    """The q-th percentile of `values`; NaN when there are too few."""
    if q == 50:
        return statistics.median(values) if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1] if len(values) >= 2 else math.nan


def _one_pass(ctx, digests, port, enroll_bodies, sessions, pass_index) -> dict:
    users = sorted(enroll_bodies)

    t_enroll = time.perf_counter()
    enrolled = [_post(port, "/api/v1/enroll", enroll_bodies[user], f"p{pass_index}-enroll-{user}")
                for user in users]
    t_enrolled = time.perf_counter()

    models = {}
    winners = []
    for user, (status, raw, _) in zip(users, enrolled):
        model = json.loads(raw)["model"] if status == 200 else None
        models[user] = json.dumps(model, sort_keys=True).encode() if model else b"null"
        ctx.check(status == 200 and digests.matches(
            f"serve/seed={ctx.seed}/{user}/{NONCE}", sha256_bytes(models[user])),
            f"enroll {user}: status {status}")
        winners.append((user, model["algorithm"] if model else None))

    # Bodies are built before the clock starts: a model is ~300 KB of JSON.
    rng = np.random.default_rng(ctx.seed)
    impostors = {}
    for user in users:
        others = [u for u in users if u != user]
        impostors[user] = [others[int(j)] for j in
                           rng.choice(len(others), IMPOSTOR_SOURCES, replace=False)]
    bodies = {}
    plan = []
    for k in range(AUTH_REQUESTS):
        user = users[(k // 2) % len(users)]
        if k % 2 == 0:
            source, expect = user, "grant"
        else:
            source = impostors[user][(k // (2 * len(users))) % IMPOSTOR_SOURCES]
            expect = "deny"
        if (user, source) not in bodies:
            bodies[(user, source)] = (b'{"model": ' + models[user] + b', "instances": '
                                      + sessions[source] + b"}")
        plan.append((user, source, expect))

    lock = threading.Lock()
    cursor = iter(range(AUTH_REQUESTS))
    replies = [None] * AUTH_REQUESTS

    def client():
        while True:
            with lock:
                k = next(cursor, None)
            if k is None:
                return
            user, source, _ = plan[k]
            replies[k] = _post(port, "/api/v1/authenticate", bodies[(user, source)],
                               f"p{pass_index}-auth-{k}")

    threads = [threading.Thread(target=client) for _ in range(CLIENT_THREADS)]
    t_auth = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    t_authed = time.perf_counter()

    auth = []
    correct = 0
    for k, ((_, _, expect), (status, raw, elapsed)) in enumerate(zip(plan, replies)):
        outcome = json.loads(raw).get("outcome") if status == 200 else None
        correct += ctx.check(outcome == expect, f"authenticate request {k}: status {status}, "
                                                f"{outcome} where {expect} was due")
        if status == 200:
            auth.append((f"p{pass_index}-auth-{k}", elapsed))
    return {"enroll_s": [elapsed for status, _, elapsed in enrolled if status == 200],
            "auth": auth, "correct_decisions": correct, "winners": winners,
            "auth_rps": len(auth) / (t_authed - t_auth),
            "wall_s": (t_enrolled - t_enroll) + (t_authed - t_auth),
            "enroll_span": (t_enroll, t_enrolled), "auth_span": (t_auth, t_authed),
            "auth_request_bytes": statistics.mean(len(bodies[(u, s)]) for u, s, _ in plan)}


def _layer_extras(ctx, passes, server_stats) -> dict:
    extras = {"service.auth_request_bytes":
              statistics.mean(p["auth_request_bytes"] for p in passes)}
    if not ctx.trace:
        return extras
    # a probe launch.py ran at the start of a request counts as server time
    server_side = {request: seconds for _at, seconds, request in server_stats[THREAD_PROBES]}
    for _sid, _parent, name, start, end, request, _detail in server_stats["spans"]:
        if request and name in ("classifiers.model_from_dict", "service.authenticate"):
            server_side[request] = server_side.get(request, 0) + (end - start) / 1e9
    residuals = [elapsed - server_side.get(rid, 0.0)
                 for p in passes for rid, elapsed in p["auth"]]
    extras["service.http_residual_ms"] = _percentile(residuals, 50) * 1000
    return extras
