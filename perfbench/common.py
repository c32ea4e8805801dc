"""Shared plumbing: running the CLI, pass timing, digests, environment stamp."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import probe
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
CLI_TIMEOUT_S = 170


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliRun:
    wall_s: float  # as the benchmark saw it, process start-up included
    ref_s: float  # the command in its process, at reference speed (probe.py)
    stats: dict


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    recorder: tracing.Recorder = field(default_factory=tracing.Recorder)
    # (spans, weight) groups for tracing.layer_metrics
    span_groups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)
    layer_extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.recorder.active = False
        self._launches = itertools.count(1)

    def stats_file(self) -> Path:
        return self.work / f"stats-{next(self._launches)}.json"

    def launcher_cmd(self, args, stats: Path, traced: bool) -> list[str]:
        cmd = [sys.executable, str(BENCH_DIR / "launch.py"), "--stats", str(stats)]
        if traced:
            cmd.append("--trace")
        return cmd + ["--"] + [str(a) for a in args]

    def cli(self, args, traced: bool = False) -> CliRun:
        """Run one eegauth command in a child process, through launch.py, and
        wait for it."""
        stats = self.stats_file()
        cmd = self.launcher_cmd(args, stats, traced and self.trace)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=program_env(), cwd=self.work,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode not in (0, 3) or not stats.exists():
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"eegauth {args[0]} exited with {proc.returncode}")
        data = json.loads(stats.read_text())
        return CliRun(wall, probe.reference_seconds(data["start"], data["end"], data["probes"]),
                      data)

    def extract_features(self, recordings: Path, segments: int, seed: int, out: Path,
                         traced: bool = False) -> list[CliRun]:
        """`eegauth extract-features` over the recordings in `recordings`, as
        input preparation, not timed: one process per CPU (at most 2), each on
        a contiguous slice of the sorted recordings.  Every recording's
        segments depend only on its subject and the seed, so the joined CSVs
        are the bytes one process would write."""
        paths = sorted(recordings.glob("*.csv"))
        parts = min(2, len(os.sched_getaffinity(0)), len(paths))
        jobs = []
        for k in range(parts):
            part = fresh_dir(self.work / f"{out.stem}-part{k}")
            for path in paths[k * len(paths) // parts:(k + 1) * len(paths) // parts]:
                for companion in recordings.glob(path.stem + ".*"):  # CSV and manifest
                    os.link(companion, part / companion.name)
            jobs.append((part, part / "features.csv"))
        with ThreadPoolExecutor(parts) as pool:
            runs = list(pool.map(lambda job: self.cli(
                ["extract-features", "--in", job[0], "--segments", segments,
                 "--seed", seed, "--out", job[1]], traced=traced), jobs))
        with open(out, "wb") as joined:
            for k, (_part, features) in enumerate(jobs):
                lines = features.read_bytes().splitlines(keepends=True)
                joined.writelines(lines if k == 0 else lines[1:])
        return runs

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation; a failed check counts it as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"check failed: {what}")
        return ok


def timed_passes(seconds: float, one_pass) -> list:
    """Run `one_pass` at least once, and again while another fits in `seconds`."""
    results = []
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(one_pass(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


def median_setup(repeats: int, one_setup) -> tuple[float, object]:
    """Run `one_setup(last)` `repeats` times; it returns (seconds at reference
    speed, result).  Return the median time and the last result.  Only the
    last set-up is traced, and the workload keeps it."""
    times = []
    result = None
    for i in range(repeats):
        seconds, result = one_setup(last=i == repeats - 1)
        times.append(seconds)
    return statistics.median(times), result


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class DigestLog:
    """Output digests remembered across runs in this checkout.

    The first run that sees a key records its digest; every later run with
    the same key must reproduce it.  Keys include a digest of the program's
    and the benchmark's source, the workload and the seed, so the log only
    ever compares outputs of identical inputs and code.
    """

    def __init__(self, path: Path, code_version: str):
        self.path = path
        self.code_version = code_version
        self.entries = json.loads(path.read_text()) if path.exists() else {}
        self.dirty = False

    def matches(self, key: str, digest: str) -> bool:
        key = f"{self.code_version}/{key}"
        known = self.entries.get(key)
        if known is None:
            self.entries[key] = digest
            self.dirty = True
            return True
        return known == digest

    def save(self) -> None:
        if self.dirty:
            tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(self.entries, indent=1, sort_keys=True))
            tmp.replace(self.path)


def code_version() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "eegauth").glob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def openblas_info() -> dict:
    import numpy as np
    info = {"openblas": None, "openblas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["openblas"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        import ctypes
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    info["openblas_threads"] = int(getattr(handle, symbol)())
                    return info
    except OSError:
        pass
    return info


def environment(server_processes: int, client_threads: int) -> dict:
    import numpy as np
    import scipy
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
           "server_processes": server_processes, "client_threads": client_threads,
           "platform": platform.platform()}
    env.update(openblas_info())
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
