"""Command-line entry point for the full pipeline.

Subcommands mirror the pipeline stages: cohort synthesis, feature extraction,
the per-user evaluation experiment, and the enrollment/authentication service.
Every random choice is driven by an explicit --seed; reports avoid wall-clock
fields so reruns with the same seeds (and --max-evals) are byte-identical.

Exit codes: 0 success / access granted, 1 error (a usage error too),
2 access denied, 3 evaluation finished with failed users.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

# The model side (classifiers, autoselect, evaluation), service (with
# http.server), urllib and synth are imported by the commands that use them,
# so that synth-cohort and extract-features skip them
from .dataset import (
    FEATURES_HEADER_LINE,
    FeatureTable,
    assemble_user_dataset,
    feature_csv_rows,
    read_feature_table,
)
from .defaults import DEFAULT_BUDGET_S, DEFAULT_ENROLL_COUNT, DEFAULT_FOLDS, DEFAULT_THRESHOLD
from .errors import EegAuthError, NoModelError, ValidationError
from .features import segment_features
from .seeds import derive_seed
from .signal import (
    DEFAULT_BAND,
    bandpass_filter,
    random_segment_starts,
    read_recording_csv,
    read_recording_manifest,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DENY = 2
EXIT_PARTIAL = 3


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_ERROR


# --- worker processes ----------------------------------------------------------

def _process_count(tasks: int) -> int:
    """Processes to share `tasks` independent tasks: one per CPU this process
    may use (os.sched_getaffinity, so Linux only), at most one per task."""
    return min(len(os.sched_getaffinity(0)), tasks)


def _one_blas_thread() -> None:
    """Let numpy's OpenBLAS compute on the calling thread alone, for the rest
    of this process.  A process whose request threads or sibling workers keep
    the CPUs busy gains nothing from OpenBLAS's helper threads, which only
    compete with them: under the Haswell kernel a 50-row session's kNN
    product wakes one.  OpenBLAS is found in /proc/self/maps; where numpy
    links another BLAS, or none this finds, nothing changes."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_set_num_threads64_",
                           "openblas_set_num_threads64_", "openblas_set_num_threads"):
                if hasattr(handle, symbol):
                    setter = getattr(handle, symbol)
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)
                    return
    except OSError:
        pass


def _one_malloc_arena() -> None:
    """Let every thread of this process allocate from glibc's main malloc
    arena, for the rest of this process.  By default each thread that
    allocates while others hold their arenas gets an arena of its own, up to
    8 per CPU, and each arena keeps the memory freed into it: `serve`'s
    handler threads, which score sessions into buffers of some hundred KB,
    would hold that much each.  Sets M_ARENA_MAX (-8) to 1 through mallopt;
    where the C library has no mallopt, nothing changes."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(-8, 1)


def _init_worker(initializer, initargs) -> None:
    _one_blas_thread()
    if initializer is not None:
        initializer(*initargs)


@contextlib.contextmanager
def _forked_pool(workers: int, what: str, initializer=None, initargs=()):
    """A ProcessPoolExecutor of `workers` forked processes, each with one
    BLAS thread (_one_blas_thread) and then initializer(*initargs).  "fork",
    named because Python 3.14 changes the default, lets them inherit this
    process's state unpickled.  A worker that dies raises EegAuthError
    naming the `what` workers."""
    # imported here so that no other command pays for them at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_init_worker,
                                 initargs=(initializer, initargs)) as pool:
            yield pool
    except BrokenProcessPool as exc:
        raise EegAuthError(f"a {what} worker process died: {exc}") from exc


def _in_slices(items: list, what: str, work, *args) -> list:
    """[work(k, part, *args) for the k-th part] over contiguous slices of
    `items`, one per process (_process_count).  This process computes the
    first slice, so that no CPU has two busy processes, and forked `what`
    workers compute the others.  When slices raise, the first of them in
    slice order raises here, once every worker is done."""
    parts = _process_count(len(items))
    slices = [items[k * len(items) // parts:(k + 1) * len(items) // parts]
              for k in range(parts)]
    if parts == 1:
        return [work(0, slices[0], *args)]
    with _forked_pool(parts - 1, what) as pool:
        futures = [pool.submit(work, k, part, *args) for k, part in enumerate(slices[1:], 1)]
        return [work(0, slices[0], *args)] + [future.result() for future in futures]


# --- synth-cohort ------------------------------------------------------------

def _cmd_synth_cohort(args) -> int:
    from .synth import CohortSpec, write_cohort_manifest

    spec = CohortSpec(
        n_subjects=args.subjects,
        duration_s=args.duration,
        sample_rate_hz=args.rate,
        separability=args.separability,
        seed=args.seed,
        intra_jitter=args.jitter,
        noise_floor=args.noise_floor,
    )
    # a serial run stops at the first subject that fails, and so does the
    # first slice that fails, so its error is the one a serial run reports
    parts = _in_slices(list(range(spec.n_subjects)), "synth", _synth_slice, spec, args.out)
    write_cohort_manifest(spec, args.out, [signature for part in parts for signature in part])
    print(f"wrote {spec.n_subjects} recordings to {args.out}")
    return EXIT_OK


def _synth_slice(_k, subjects, spec, out_dir):
    """The signatures of the cohort's `subjects` (indices), whose CSVs and
    sidecars this process generates and writes."""
    from .synth import write_cohort

    return [signature for signature, _ in write_cohort(spec, out_dir, subjects)]


# --- extract-features ----------------------------------------------------------

def _cmd_extract_features(args) -> int:
    if args.segments < 1:
        return _fail(f"--segments must be at least 1, got {args.segments}")
    in_dir = Path(args.in_dir)
    recordings = sorted(p for p in in_dir.glob("*.csv"))
    if not recordings:
        return _fail(f"no recordings found in {in_dir}")
    # one feature file holds one sample rate: a band power's segment length
    # and filter depend on it
    rates = [read_recording_manifest(path)[1] for path in recordings]
    for path, rate in zip(recordings, rates):
        if rate != rates[0]:
            return _fail(f"recordings of mixed sample rates in {in_dir}: "
                         f"{recordings[0].name} at {rates[0]:g} Hz, {path.name} at {rate:g} Hz")
    out = Path(args.out)
    # slice k writes its rows to parts[k]: the parent's to a new file beside
    # --out, which replaces --out once every slice has written its part.  No
    # name ends in .csv, so that none is ever taken for a recording.
    first = _new_file_beside(out)
    parts = [first] + [first.with_name(f"{first.name}.{k}")
                       for k in range(1, _process_count(len(recordings)))]
    try:
        _in_slices(recordings, "feature", _extract_slice, parts, args)
        with open(first, "ab") as joined:
            for part in parts[1:]:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, joined)
        os.replace(first, out)
    finally:
        for part in parts:
            part.unlink(missing_ok=True)
    print(f"wrote {args.segments * len(recordings)} instances from {len(recordings)} "
          f"subjects to {args.out}")
    return EXIT_OK


def _new_file_beside(path: Path) -> Path:
    """A new, empty file in the directory of `path`, named after it but
    ending in .tmp, with the mode open(path, "w") would give it."""
    try:
        fd, name = tempfile.mkstemp(suffix=".tmp", prefix=f".{path.name}.", dir=path.parent)
    except OSError as exc:
        raise EegAuthError(f"cannot write {path}: {exc.strerror or exc}") from exc
    umask = os.umask(0)
    os.umask(umask)
    os.fchmod(fd, 0o666 & ~umask)
    os.close(fd)
    return Path(name)


def _extract_slice(k, recordings, parts, args) -> None:
    """Write the feature CSV rows of `recordings`, paths in order, to
    parts[k], after the header when k is 0: each recording is read,
    band-passed, segmented and featurized in turn in this process, and its
    rows written before the next is read.  The first error raises, naming
    its recording."""
    with open(parts[k], "w", newline="") as fh:
        if k == 0:
            fh.write(FEATURES_HEADER_LINE)
        for path in recordings:
            rec = read_recording_csv(path)  # its errors name the file already
            try:
                rec = bandpass_filter(rec, args.lo, args.hi)
                seed = derive_seed(args.seed, "segments", rec.subject_id)
                starts = random_segment_starts(rec, args.segments, seed)
                table = FeatureTable.for_subject(rec.subject_id, segment_features(rec, starts))
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from exc
            fh.write(feature_csv_rows(table))


# --- evaluate-cohort -------------------------------------------------------------

def _cmd_evaluate_cohort(args) -> int:
    # imported before the workers fork, so that they inherit them
    from .autoselect import SearchBudget
    from .evaluation import cohort_report, compare_to_chance

    if not 0.0 < args.alpha < 1.0:
        return _fail(f"--alpha must lie strictly between 0 and 1, got {args.alpha}")
    if args.folds < 2:
        return _fail(f"--folds must be at least 2, got {args.folds}")
    budget = SearchBudget(args.budget, args.max_evals)
    table = read_feature_table(args.features)
    subjects, counts = np.unique(table.subjects, return_counts=True)
    subjects = subjects.tolist()
    if len(subjects) < 2:
        return _fail("evaluation needs at least 2 subjects in the feature file")
    # a user's dataset is their n rows and n rows of the others, each class
    # split into --folds folds
    for subject, n in zip(subjects, counts.tolist()):
        if n < args.folds:
            return _fail(f"--folds {args.folds} is more than the {n} rows of "
                         f"subject {subject}")
        if len(table) - n < n:
            return _fail(f"subject {subject} has {n} rows, more than the other "
                         f"subjects' {len(table) - n}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # the forked workers inherit the parsed table unpickled
    with _forked_pool(_process_count(len(subjects)), "search",
                      initializer=_init_search_worker,
                      initargs=(table, budget, args)) as pool:
        searches = list(pool.map(_search_user, subjects))

    found = [search for search in searches if search is not None]
    cohort = cohort_report(counts for _, _, counts, _ in found) if found else None
    reports = iter(cohort.rows if found else ())
    rows = []
    failed = []
    for subject, search in zip(subjects, searches):
        if search is None:
            failed.append(subject)
            rows.append({"subject": subject, "status": "failed"})
            print(f"{subject}: failed (no model within budget)")
            continue
        algorithm, cv_accuracy, counts, trace = search
        if args.traces:
            traces_dir = Path(args.traces)
            traces_dir.mkdir(parents=True, exist_ok=True)
            trace.write_csv(traces_dir / f"{subject}-trace.csv")
        report = next(reports)
        rows.append({"subject": subject, "status": "ok", **asdict(counts),
                     **report.as_dict(), "algorithm": algorithm,
                     "cv_accuracy": cv_accuracy})
        print(f"{subject}: accuracy {report.accuracy:.3f} kappa {report.kappa:.3f} "
              f"({algorithm})")

    if not found:
        return _fail("no user produced a model")

    stats = {}
    for metric in ("accuracy", "fpr", "fnr"):
        values = np.array([getattr(r, metric) for r in cohort.rows])
        try:
            result = compare_to_chance(values, null_value=0.5, alpha=args.alpha)
            stats[metric] = {
                "metric": metric,
                "test": result.test,
                "branch": "t" if result.test == "t_one_sample" else "wilcoxon",
                "statistic": result.statistic,
                "p": result.p_value,
                "null_value": result.null_value,
                "n": result.n,
                "shapiro_w": result.normality.statistic,
                "shapiro_p": result.normality.p_value,
            }
        except EegAuthError as exc:
            stats[metric] = {"metric": metric, "error": str(exc)}

    _write_report_csv(out_dir / "report.csv", rows, cohort)
    with open(out_dir / "report.json", "w") as fh:
        json.dump({
            "users": rows,
            "mean": cohort.mean.as_dict(),
            "sd": cohort.sd.as_dict(),
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "stats.json", "w") as fh:
        json.dump(stats, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(f"mean accuracy {cohort.mean.accuracy:.4f} "
          f"(sd {cohort.sd.accuracy:.4f}) over {len(found)} users")
    return EXIT_PARTIAL if failed else EXIT_OK


_search_state = None  # (feature table, budget, parsed arguments), set in each worker


def _init_search_worker(table, budget, args) -> None:
    global _search_state
    _search_state = table, budget, args


def _search_user(subject):
    """One user's search, run in a worker: (algorithm, cv_accuracy, counts,
    trace), or None when no model was found within the budget.  The report
    needs no model, so the winner is not refit."""
    from .autoselect import search
    from .evaluation import ConfusionCounts

    table, budget, args = _search_state
    own = table.subjects == subject
    seed = derive_seed(args.seed, "user", subject)
    ds = assemble_user_dataset(subject, table.X[own], table.rows(~own), seed)
    try:
        trace = search(ds, budget, k_folds=args.folds, seed=seed)
    except NoModelError:
        return None
    return (trace.best().algorithm, trace.best().cv_accuracy,
            ConfusionCounts.from_predictions(ds.y, trace.predictions), trace)


def _write_report_csv(path, rows, cohort) -> None:
    from .evaluation import METRIC_COLUMNS, ConfusionCounts

    columns = (("subject",) + tuple(field.name for field in fields(ConfusionCounts))
               + METRIC_COLUMNS + ("algorithm", "cv_accuracy", "status"))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(col)) for col in columns])
        for tag, report in (("MEAN", cohort.mean), ("SD", cohort.sd)):
            summary = {"subject": tag, "status": "", **report.as_dict()}
            writer.writerow([_format_cell(summary.get(col)) for col in columns])


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


# --- service commands -------------------------------------------------------------

def _cmd_serve(args) -> int:
    from . import service
    from .autoselect import SearchBudget

    budget = SearchBudget(args.budget, args.max_evals)
    # the request threads keep the CPUs busy, and would each keep an arena
    _one_blas_thread()
    _one_malloc_arena()
    server = service.make_server(
        args.store, port=args.port, budget=budget, server_seed=args.seed,
        enroll_count=args.enroll_count, k_folds=args.folds,
        max_workers=args.workers)
    host, port = server.server_address
    print(f"serving on http://{host}:{port} (store: {args.store})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def _post_json(url: str, payload: dict) -> dict:
    import urllib.error
    import urllib.request

    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(url, data=body,
                                     headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request) as response:
            return json.loads(response.read().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EegAuthError(f"server reply is not JSON: {exc}") from exc
    except urllib.error.HTTPError as exc:
        detail = exc.read().decode("utf-8", errors="replace")
        raise EegAuthError(f"server returned {exc.code}: {detail}") from exc
    except urllib.error.URLError as exc:
        raise EegAuthError(f"cannot reach server: {exc.reason}") from exc


def _cmd_enroll(args) -> int:
    from . import classifiers

    if args.count < 1:
        return _fail(f"--count must be at least 1, got {args.count}")
    table = read_feature_table(args.features)
    own = table.X[table.subjects == args.user]
    if not len(own):
        return _fail(f"feature file has no rows for subject {args.user!r}")
    if len(own) < args.count:
        return _fail(f"subject {args.user!r} has {len(own)} rows, need {args.count}")
    payload = {"user_id": args.user, "instances": own[:args.count].tolist(),
               "client_nonce": args.nonce}
    reply = _post_json(args.server.rstrip("/") + "/api/v1/enroll", payload)
    try:
        envelope, summary = reply["model"], reply["summary"]
        line = (f"enrolled {args.user}: {summary['algorithm']} "
                f"cv_accuracy {summary['cv_accuracy']:.4f} "
                f"({summary['evaluations']} evaluations, {summary['elapsed_s']:.1f}s)")
    except (KeyError, TypeError, ValueError) as exc:
        raise EegAuthError(f"server reply is not an enrollment: {exc!r}") from exc
    model = classifiers.model_from_dict(envelope)
    if args.out:
        Path(args.out).write_bytes(classifiers.serialize(model))
    print(line + (f" -> {args.out}" if args.out else ""))
    return EXIT_OK


def _cmd_authenticate(args) -> int:
    from . import classifiers, service

    if args.n < 1:
        return _fail(f"--n must be at least 1, got {args.n}")
    try:
        model = classifiers.deserialize(Path(args.model).read_bytes())
    except OSError as exc:
        return _fail(f"cannot read model: {exc}")
    table = read_feature_table(args.features)
    if not len(table):
        return _fail(f"feature file {args.features} has no instances")
    decision = service.authenticate(model, table.X[:args.n], threshold=args.threshold)
    print(json.dumps(decision.to_dict(), sort_keys=True))
    return EXIT_OK if decision.outcome == service.GRANT else EXIT_DENY


# --- parser ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eegauth",
        description="EEG band-power authentication pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-cohort", help="generate a synthetic EEG cohort")
    p.add_argument("--subjects", type=int, default=15)
    p.add_argument("--duration", type=float, default=30.0, help="seconds per recording")
    p.add_argument("--rate", type=float, default=250.0, help="sample rate in Hz")
    p.add_argument("--separability", type=float, default=1.0)
    p.add_argument("--jitter", type=float, default=0.1)
    p.add_argument("--noise-floor", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_cohort)

    p = sub.add_parser("extract-features", help="filter, segment, and extract features")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--segments", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lo", type=float, default=DEFAULT_BAND[0])
    p.add_argument("--hi", type=float, default=DEFAULT_BAND[1])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract_features)

    p = sub.add_parser("evaluate-cohort", help="per-user model selection and metrics")
    p.add_argument("--features", required=True)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S, help="seconds per user")
    p.add_argument("--max-evals", type=int, default=None,
                   help="cap evaluations per user (needed for byte-reproducible reports)")
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--traces", default=None,
                   help="directory for per-user search trace CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_evaluate_cohort)

    p = sub.add_parser("serve", help="run the enrollment/authentication server")
    p.add_argument("--store", default="store")
    p.add_argument("--port", type=int, default=8470)
    p.add_argument("--budget", type=float, default=DEFAULT_BUDGET_S)
    p.add_argument("--max-evals", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--enroll-count", type=int, default=DEFAULT_ENROLL_COUNT)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--workers", type=int, default=2)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("enroll", help="enroll a user against a running server")
    p.add_argument("--server", required=True)
    p.add_argument("--user", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--count", type=int, default=DEFAULT_ENROLL_COUNT)
    p.add_argument("--nonce", default="cli")
    p.add_argument("--out", default=None, help="file for the returned model JSON")
    p.set_defaults(func=_cmd_enroll)

    p = sub.add_parser("authenticate", help="apply a saved model to session features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    p.set_defaults(func=_cmd_authenticate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (EegAuthError, OSError) as exc:
        return _fail(str(exc))

if __name__ == "__main__":
    sys.exit(main())
