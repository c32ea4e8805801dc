"""`extract` workload: band-power extraction over the default 15 x 30 s cohort.

Set-up: `eegauth synth-cohort --subjects 15 --seed <seed>`.
Timed pass: `eegauth extract-features --segments 500 --seed 7` (7 500 segments).
Times are at reference speed (probe.py).
Checks, one operation per recording: 500 rows, alpha == lalpha + halpha
exactly on every row, per-subject mean features within 15% of the manifest's
`realized` band powers, and the feature CSV byte-identical across passes and
across runs with the same seed.
"""

from __future__ import annotations

import csv
import json
import statistics

from common import Context, DigestLog, median_setup, sha256_file, timed_passes

SUBJECTS = 15
SEGMENTS = 500
EXTRACT_SEED = 7
SETUP_REPEATS = 3
TOLERANCE = 0.15
CHANNELS = ("Fz", "Cz", "Pz")
BANDS = ("delta", "theta", "lalpha", "halpha", "alpha")


def run(ctx: Context, digests: DigestLog) -> dict:
    cohort = ctx.work / "cohort"

    def setup(last):
        run = ctx.cli(["synth-cohort", "--subjects", SUBJECTS, "--seed", ctx.seed,
                       "--out", cohort], traced=last)
        return run.ref_s, run

    setup_s, synth = median_setup(SETUP_REPEATS, setup)
    if ctx.trace:
        ctx.span_groups.append((synth.stats["spans"], 1.0))

    def one_pass(i):
        out = ctx.work / f"features-{i}.csv"
        run = ctx.cli(["extract-features", "--in", cohort, "--segments", SEGMENTS,
                       "--seed", EXTRACT_SEED, "--out", out], traced=True)
        return run, out

    passes = timed_passes(ctx.seconds, one_pass)
    if ctx.trace:
        for run, _ in passes:
            ctx.span_groups.append((run.stats["spans"], 1.0 / len(passes)))

    manifest = json.loads((cohort / "cohort.json").read_text())
    rows_ok, means_ok = _check_features(passes[0][1], manifest)
    first_digest = sha256_file(passes[0][1])
    same_across_passes = all(sha256_file(out) == first_digest for _, out in passes)
    same_across_runs = digests.matches(f"extract/seed={ctx.seed}/features.csv", first_digest)
    for subject in sorted(rows_ok):
        ctx.check(rows_ok[subject] and means_ok[subject] and same_across_passes
                  and same_across_runs, f"features of {subject}")

    wall = statistics.median(run.ref_s for run, _ in passes)
    raw = statistics.median(run.wall_s for run, _ in passes)
    n_segments = SUBJECTS * SEGMENTS
    ctx.notes.append(f"extract_segments_per_s {n_segments / wall:.6g} 1/s at reference speed, "
                     f"{n_segments / raw:.6g} 1/s as measured (n={len(passes)} passes)")
    ctx.notes.append(f"features.csv sha256 {first_digest}")
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": max(run.stats["maxrss_kb"] for run, _ in passes) / 1024,
        "accuracy": 1.0 - ctx.failed / max(ctx.attempted, 1),
    }


def _check_features(path, manifest) -> tuple[dict, dict]:
    """Per subject: exact alpha identity on every row; means near `realized`."""
    names = [f"{ch}_{band}" for ch in CHANNELS for band in BANDS]
    sums: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    rows_ok: dict[str, bool] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            subject = row["subject"]
            values = [float(row[n]) for n in names]
            ok = rows_ok.get(subject, True)
            for ci in range(len(CHANNELS)):
                lalpha, halpha, alpha = values[ci * 5 + 2: ci * 5 + 5]
                ok = ok and alpha == lalpha + halpha
            rows_ok[subject] = ok
            acc = sums.setdefault(subject, [0.0] * len(names))
            for k, v in enumerate(values):
                acc[k] += v
            counts[subject] = counts.get(subject, 0) + 1
    means_ok = {}
    for entry in manifest["subjects"]:
        subject = entry["subject_id"]
        realized = [v for channel in entry["realized"] for v in channel]
        n = counts.get(subject, 0)
        rows_ok[subject] = rows_ok.get(subject, False) and n == SEGMENTS
        means_ok[subject] = n > 0 and all(
            abs(total / n - target) / target < TOLERANCE
            for total, target in zip(sums[subject], realized))
    return rows_ok, means_ok
