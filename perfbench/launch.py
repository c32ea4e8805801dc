"""Run one `eegauth` CLI command, probed, and record what it cost.

    python3 perfbench/launch.py --stats FILE [--trace] -- <eegauth arguments>

The command runs through `eegauth.cli.main` in this process, with the speed
probes of probe.py: every PERIOD_S in the main thread, and for `serve` in the
threads that serve requests (_ThreadProbes).  On exit (also
after SIGINT, which is how the benchmark stops `eegauth serve`) FILE receives
the command's start and end (perf_counter), the probes, the process's peak
RSS and, with --trace, every recorded span.  `serve` also writes FILE.ready,
with the same start and the probes so far, once its server is built; the
main thread's probes stop there.
With --trace the wrappers of tracing.py are installed before the command runs.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import probe  # noqa: E402
import tracing  # noqa: E402

THREAD_PROBES = "thread_probes"


def _write_json(path: Path, payload: dict) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(path)


class _ThreadProbes:
    """Probes for `serve`, in the threads that serve requests: at the start
    of a request and before each classifier fit (an enrollment fits ~60
    times in ~1 s), when no probe ran for PERIOD_S.  Samples are (start,
    seconds, request id), the id None inside a fit."""

    def __init__(self):
        self.samples: list = []
        self._last = -probe.PERIOD_S

    def maybe(self, request) -> None:
        if time.perf_counter() - self._last >= probe.PERIOD_S:
            at, seconds = probe.timed_probe()
            self._last = at
            self.samples.append((at, seconds, request))

    def install(self) -> None:
        def before_post(do_post):
            def probed(handler):
                self.maybe(handler.headers.get(tracing.REQUEST_HEADER))
                return do_post(handler)
            return probed

        def before_fit(train):
            def probed(*args, **kwargs):
                self.maybe(None)
                return train(*args, **kwargs)
            return probed

        tracing.replace("service", "AuthServiceHandler.do_POST", before_post)
        tracing.replace("classifiers", "train", before_fit)


def _stop_probing_when_built(sampler, stats_path: Path, start: float) -> None:
    """Stop the main thread's probes once `serve` has built its server."""
    from eegauth import service

    make_server = service.make_server

    def built(*args, **kwargs):
        server = make_server(*args, **kwargs)
        sampler.stop()
        _write_json(stats_path.with_suffix(".ready"),
                    {"start": start, "end": time.perf_counter(), "probes": sampler.samples})
        return server

    service.make_server = built


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stats_path = Path(own[own.index("--stats") + 1])
    sampler = probe.Sampler()
    thread_probes = _ThreadProbes()
    recorder = None
    code = 1
    start = time.perf_counter()
    sampler.start()
    try:
        if "--trace" in own:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        from eegauth import cli
        if cli_args[:1] == ["serve"]:
            _stop_probing_when_built(sampler, stats_path, start)
            thread_probes.install()
        code = cli.main(cli_args)
    finally:
        end = time.perf_counter()
        sampler.stop()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        _write_json(stats_path, {
            "pid": os.getpid(), "exit_code": code, "start": start, "end": end,
            "probes": sampler.samples, THREAD_PROBES: thread_probes.samples,
            "maxrss_kb": usage.ru_maxrss,
            "spans": recorder.spans if recorder else []})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
