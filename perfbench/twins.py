"""`evaluate_twins` workload: per-user search and evaluation on twins.

Set-up (repeated; `setup_s` is the median): the first 5 subjects of
`CohortSpec(seed=<seed>)` are written twice, as S01 and S01t and so on, with
`signal.write_recording_csv`.  Every user thus has one impostor whose
recording is byte-identical to theirs, which keeps accuracy below 1 (0.926 at
seed 42) so classifier or search regressions show in `accuracy`.
Inputs: `eegauth extract-features --segments 500 --seed 7` (common.py runs it
as two processes, which gives the same CSV).
Timed pass: `eegauth evaluate-cohort --budget 1000 --max-evals 6 --folds 5
--seed 7`; `--max-evals` makes the reports byte-reproducible, 5 folds (not
10) keep a run short enough for the benchmark's time budget.  Times are at
reference speed (probe.py).
Checks, one operation per user: status ok, confusion counts summing to 1000,
and the user's report row and the report files identical across passes and
across runs with the same seed.  A user without a model (exit code 3) fails.
"""

from __future__ import annotations

import hashlib
import json
import statistics

import probe
from common import Context, DigestLog, fresh_dir, median_setup, sha256_file, timed_passes

SUBJECTS = 5
SEGMENTS = 500
EXTRACT_SEED = 7
EVAL_ARGS = ("--budget", 1000, "--max-evals", 6, "--folds", 5, "--seed", 7)
SETUP_REPEATS = 3
REPORT_FILES = ("report.csv", "report.json", "stats.json")


def _write_twins(out_dir, seed: int) -> None:
    from eegauth.signal import Recording, write_recording_csv
    from eegauth.synth import CohortSpec, make_cohort

    fresh_dir(out_dir)
    for _signature, rec in make_cohort(CohortSpec(n_subjects=SUBJECTS, seed=seed)):
        for subject in (rec.subject_id, rec.subject_id + "t"):
            twin = Recording(subject, rec.sample_rate_hz, rec.channels, rec.samples)
            write_recording_csv(twin, out_dir / f"{subject}.csv")


def run(ctx: Context, digests: DigestLog) -> dict:
    recordings = ctx.work / "twins"
    setup_s, _ = median_setup(SETUP_REPEATS, lambda last: probe.Sampler().measure(
        lambda: _write_twins(recordings, ctx.seed)))
    features = ctx.work / "features.csv"
    extraction = ctx.extract_features(recordings, SEGMENTS, EXTRACT_SEED, features, traced=True)
    if ctx.trace:
        ctx.span_groups.extend((run.stats["spans"], 1.0) for run in extraction)

    def one_pass(i):
        out = ctx.work / f"report-{i}"
        evaluation = ctx.cli(["evaluate-cohort", "--features", features, *EVAL_ARGS,
                              "--out", out], traced=True)
        return evaluation, out

    passes = timed_passes(ctx.seconds, one_pass)
    if ctx.trace:
        for evaluation, _ in passes:
            ctx.span_groups.append((evaluation.stats["spans"], 1.0 / len(passes)))

    reports = [json.loads((out / "report.json").read_text()) for _, out in passes]
    file_digests = [tuple(sha256_file(out / name) for name in REPORT_FILES)
                    for _, out in passes]
    same_files = all(d == file_digests[0] for d in file_digests) and all([
        digests.matches(f"evaluate_twins/seed={ctx.seed}/{name}", digest)
        for name, digest in zip(REPORT_FILES, file_digests[0])])
    for user in reports[0]["users"]:
        subject = user["subject"]
        row = json.dumps(user, sort_keys=True).encode()
        counts = [user.get(k) for k in ("genuine_granted", "genuine_denied",
                                        "impostor_granted", "impostor_denied")]
        ok = (user.get("status") == "ok"
              and all(isinstance(c, int) for c in counts) and sum(counts) == 2 * SEGMENTS
              and all(r["users"] == reports[0]["users"] for r in reports)
              and same_files
              and digests.matches(f"evaluate_twins/seed={ctx.seed}/{subject}",
                                  hashlib.sha256(row).hexdigest()))
        ctx.check(ok, f"evaluation of {subject}")
    for _ in range(2 * SUBJECTS - len(reports[0]["users"])):
        ctx.check(False, "user missing from report")

    evaluate_s = statistics.median(evaluation.ref_s for evaluation, _ in passes)
    mean_accuracy = reports[0]["mean"]["accuracy"]
    ctx.notes.append(f"evaluate_s {evaluate_s:.6g} s at reference speed, "
                     f"{statistics.median(evaluation.wall_s for evaluation, _ in passes):.6g} s "
                     f"as measured (n={len(passes)} passes)")
    ctx.notes.append(f"mean_accuracy {mean_accuracy:.6f} fraction "
                     f"(sd {reports[0]['sd']['accuracy']:.6f}, "
                     f"n={len(reports[0]['users'])} users)")
    ctx.notes.append("winners " + " ".join(f"{u['subject']}={u.get('algorithm')}"
                                           for u in reports[0]["users"]))
    ctx.notes.append("report sha256 " + " ".join(d[:16] for d in file_digests[0]))
    return {
        "setup_s": setup_s,
        "wall_s": evaluate_s,
        "peak_rss_mb": max(evaluation.stats["maxrss_kb"] for evaluation, _ in passes) / 1024,
        "accuracy": mean_accuracy,
    }
