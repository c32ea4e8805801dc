"""eegauth benchmark: one workload, one JSON result line.

    python3 perfbench/run.py --workload {extract,evaluate_twins,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from ./src.
Each workload sets up its inputs from --seed, times passes of fixed work for
about --seconds (at least one pass), checks every output and prints, last,

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 `metrics` holds every end-to-end metric of BENCHMARK.json:
  setup_s      median time of the workload's set-up (repeated per run)
  wall_s       median time of one timed pass
  peak_rss_mb  peak resident memory of the eegauth process of the timed pass
  accuracy     extract: share of recordings passing the feature checks;
               evaluate_twins: the MEAN accuracy row of report.json;
               serve: share of authenticate decisions that were right
Times are seconds at reference speed: wall time with the host's changing CPU
speed taken out by probes run in the same thread as the work (probe.py).
With --trace 1 the functions the program's layers export are wrapped (see
tracing.py) and `metrics` holds every per-layer metric: busy seconds as
measured (probes included) and counts, for one set-up, the inputs and one
timed pass.
Layers a workload does not reach read 0.  `trace.wall_s` is wall_s of the
traced run; minus wall_s of an untraced run it is the tracing overhead.
The lines before the result give workload-specific figures (such as
auth_p99_ms with its sample count) and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract", "evaluate_twins", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _finite(value) -> float:
    """JSON has no NaN: a figure that could not be measured reads 0."""
    value = float(value)
    return value if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = common.ROOT / "BENCHMARK.json"
    if not (common.SRC / "eegauth" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: {common.ROOT} is not an eegauth checkout (no src/eegauth/cli.py "
              "or BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))

    import extract
    import serve
    import tracing
    import twins

    workloads = {"extract": extract, "evaluate_twins": twins, "serve": serve}
    spec = json.loads(spec_path.read_text())
    common.WORK_ROOT.mkdir(exist_ok=True)
    work = common.fresh_dir(common.WORK_ROOT / f"run-{os.getpid()}")
    ctx = common.Context(args.seed, args.seconds, bool(args.trace), work)
    digests = common.DigestLog(common.WORK_ROOT / "digests.json",
                               common.code_version())
    if ctx.trace:
        tracing.install(ctx.recorder)
    try:
        e2e = workloads[args.workload].run(ctx, digests)
        digests.save()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if ctx.trace:
        values = tracing.layer_metrics(ctx.span_groups)
        values.update(ctx.layer_extras)
        values["trace.wall_s"] = e2e["wall_s"]
        entries = spec["per_layer"]
    else:
        values = e2e
        entries = spec["end_to_end"]
    missing = [e["name"] for e in entries if e["name"] not in values and not ctx.trace]
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {e["name"]: {"value": _finite(values.get(e["name"], 0.0)), "unit": e["unit"]}
               for e in entries}

    server_processes = 1 if args.workload == "serve" else 0
    client_threads = serve.CLIENT_THREADS if args.workload == "serve" else 0
    for note in ctx.notes:
        print(note)
    print("env " + json.dumps(common.environment(server_processes, client_threads),
                              sort_keys=True))
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": ctx.failed == 0 and ctx.attempted > 0,
                      "attempted": ctx.attempted, "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
