import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from eegauth import classifiers, service
from eegauth.autoselect import SearchBudget
from eegauth.cli import EXIT_DENY, EXIT_ERROR, EXIT_OK, main
from eegauth.dataset import (
    FEATURES_HEADER,
    load_features_csv,
    read_feature_table,
    save_features_csv,
)


def tree_digest(root: Path) -> dict:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def mini_pipeline(tmp_path_factory):
    """synth-cohort + extract-features once for the whole module."""
    root = tmp_path_factory.mktemp("mini")
    cohort = root / "cohort"
    features = root / "features.csv"
    assert main(["synth-cohort", "--subjects", "4", "--seed", "11",
                 "--out", str(cohort)]) == EXIT_OK
    assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                 "--seed", "3", "--out", str(features)]) == EXIT_OK
    return root, cohort, features


@pytest.fixture()
def no_process_pool(monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


@pytest.fixture()
def pools(monkeypatch):
    """The worker count of each process pool created, in order."""
    import concurrent.futures
    real_pool = concurrent.futures.ProcessPoolExecutor
    sizes = []

    def counted_pool(workers, **kwargs):
        sizes.append(workers)
        return real_pool(workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
    return sizes


def set_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestSynthCohort:
    def test_deterministic_output_tree(self, tmp_path):
        args = ["synth-cohort", "--subjects", "3", "--duration", "10",
                "--seed", "42"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_single_subject_rejected(self, tmp_path):
        assert main(["synth-cohort", "--subjects", "1",
                     "--out", str(tmp_path / "x")]) == EXIT_ERROR

    def test_zero_separability_identical_signatures(self, tmp_path):
        assert main(["synth-cohort", "--subjects", "3", "--duration", "10",
                     "--separability", "0", "--seed", "1",
                     "--out", str(tmp_path / "z")]) == EXIT_OK
        manifest = json.loads((tmp_path / "z" / "cohort.json").read_text())
        targets = [s["targets"] for s in manifest["subjects"]]
        assert targets[0] == targets[1] == targets[2]

    @pytest.mark.parametrize("rate", ["50", "80"])
    def test_rate_at_or_below_twice_the_top_tone_is_error_without_output(
            self, tmp_path, capsys, rate):
        out = tmp_path / "cohort"
        assert main(["synth-cohort", "--subjects", "2", "--rate", rate,
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: sample_rate_hz must exceed 80 Hz") \
            and err.count("\n") == 1, err
        assert not out.exists()

    def test_cohort_independent_of_cpu_count(self, tmp_path, mini_pipeline,
                                             monkeypatch, capsys, pools):
        # 4 subjects: 1, 2, 3 and 4 slices, this process computing the first
        _, cohort, _ = mini_pipeline
        printed, workers = {}, {}
        for cpus in (1, 2, 3, 7):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus-{cpus}"
            assert main(["synth-cohort", "--subjects", "4", "--seed", "11",
                         "--out", str(out)]) == EXIT_OK
            assert tree_digest(out) == tree_digest(cohort), cpus
            printed[cpus] = capsys.readouterr().out.replace(str(out), "OUT")
            workers[cpus] = pools[:]
            pools.clear()
        assert "cohort.json" in tree_digest(cohort)
        assert set(printed.values()) == {"wrote 4 recordings to OUT\n"}
        assert workers == {1: [], 2: [1], 3: [2], 7: [3]}

    def test_worker_death_is_error_without_manifest(self, tmp_path, monkeypatch, capsys):
        from eegauth import synth
        real_write = synth.write_recording_csv
        test_process = os.getpid()

        def dying_write(recording, path):
            # S04 is the last slice's, written in a worker
            if recording.subject_id == "S04" and os.getpid() != test_process:
                os._exit(1)
            return real_write(recording, path)

        monkeypatch.setattr(synth, "write_recording_csv", dying_write)
        set_cpus(monkeypatch, 4)
        out = tmp_path / "cohort"
        assert main(["synth-cohort", "--subjects", "4", "--duration", "8",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: a synth worker process died: ")
        assert err.count("\n") == 1
        assert not (out / "cohort.json").exists()

    @pytest.mark.parametrize("failing", [("S02", "S04"), ("S01", "S03"), ("S03", "S04")])
    def test_first_failing_subject_is_reported(self, tmp_path, monkeypatch, capsys,
                                               failing):
        # a directory in a recording's place fails that subject's write; run
        # serially, the lower-numbered subject fails first
        reported = set()
        for cpus in (1, 2, 4):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus-{cpus}"
            for subject in failing:
                (out / f"{subject}.csv").mkdir(parents=True)
            assert main(["synth-cohort", "--subjects", "4", "--duration", "8",
                         "--out", str(out)]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.count("\n") == 1, err
            reported.add(err.replace(str(out), "OUT"))
            assert not (out / "cohort.json").exists()
        assert reported == {f"error: [Errno 21] Is a directory: "
                            f"'OUT/{failing[0]}.csv'\n"}


class TestExtractFeatures:
    def test_row_counts(self, mini_pipeline):
        _, _, features = mini_pipeline
        rows = load_features_csv(features)
        assert len(rows) == 4 * 60
        subjects = {r.source_subject for r in rows}
        assert subjects == {"S01", "S02", "S03", "S04"}

    def test_single_segment_per_subject(self, tmp_path, mini_pipeline):
        _, cohort, _ = mini_pipeline
        out = tmp_path / "one.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", "1",
                     "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert len(load_features_csv(out)) == 4

    def test_missing_manifest_is_error(self, tmp_path, mini_pipeline):
        _, cohort, _ = mini_pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "S01.csv").write_bytes((cohort / "S01.csv").read_bytes())
        assert main(["extract-features", "--in", str(broken),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_ERROR

    @pytest.mark.parametrize("segments", ["0", "-3"])
    def test_segments_below_one_fail_before_any_read_or_worker(
            self, tmp_path, mini_pipeline, monkeypatch, capsys, no_process_pool, segments):
        import eegauth.cli as cli_mod

        def refuse(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli_mod, "read_recording_csv", refuse)
        set_cpus(monkeypatch, 4)
        _, cohort, _ = mini_pipeline
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", segments,
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error: --segments must be at least 1, got {segments}\n"
        assert not out.exists()

    def test_features_independent_of_cpu_count(self, tmp_path, mini_pipeline,
                                               monkeypatch, capsys, pools):
        # 4 recordings: 1, 2, 3 and 4 slices, this process computing the first
        _, cohort, features = mini_pipeline
        printed, workers = {}, {}
        for cpus in (1, 2, 3, 7):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus-{cpus}.csv"
            assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                         "--seed", "3", "--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == features.read_bytes(), cpus
            printed[cpus] = capsys.readouterr().out.replace(str(out), "OUT")
            workers[cpus] = pools[:]
            pools.clear()
        assert set(printed.values()) == {"wrote 240 instances from 4 subjects to OUT\n"}
        assert workers == {1: [], 2: [1], 3: [2], 7: [3]}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_read_error_reported_before_filter_error(self, tmp_path, mini_pipeline,
                                                     monkeypatch, capsys, cpus):
        # run serially, every recording is read before any is filtered, so
        # the last one's read error wins over the first one's filter error
        _, cohort, _ = mini_pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in cohort.glob("S0*"):
            (broken / path.name).write_bytes(path.read_bytes())
        first, last = broken / "S01.csv", broken / "S04.csv"
        first.write_text("".join(first.read_text().splitlines(keepends=True)[:2001]))
        lines = last.read_text().splitlines(keepends=True)
        lines[100] = lines[100].replace(",", ",x", 1)
        last.write_text("".join(lines))
        set_cpus(monkeypatch, cpus)
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {last}: ") and err.count("\n") == 1, err
        assert not out.exists()
        # alone, the short recording fails in the filter
        last.unlink()
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: recording has 2000 samples; ")
        assert not out.exists()

    def test_worker_death_is_error_without_features(self, tmp_path, mini_pipeline,
                                                    monkeypatch, capsys):
        import eegauth.cli as cli_mod
        real_read = cli_mod.read_recording_csv
        test_process = os.getpid()

        def dying_read(path):
            # S04 is the last slice's, read in a worker
            if Path(path).stem == "S04" and os.getpid() != test_process:
                os._exit(1)
            return real_read(path)

        monkeypatch.setattr(cli_mod, "read_recording_csv", dying_read)
        set_cpus(monkeypatch, 4)
        _, cohort, _ = mini_pipeline
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: a feature worker process died: ")
        assert err.count("\n") == 1
        assert not out.exists()


def scipy_extract(cohort: Path, lo: float, hi: float, segments: int, seed: int,
                  out: Path) -> None:
    """What extract-features writes, built without its kernels: scipy's own
    sosfiltfilt, Welch's psd + band_power per segment and channel, and plain
    csv.writer rows."""
    from scipy.signal import butter, sosfiltfilt

    from eegauth.features import BANDS, band_power, psd
    from eegauth.seeds import derive_seed
    from eegauth.signal import (Recording, filter_settling_samples,
                                random_segment_starts, read_recording_csv,
                                segment_length)
    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for path in sorted(cohort.glob("*.csv")):
            rec = read_recording_csv(path)
            fs = rec.sample_rate_hz
            sos = butter(4, [lo, hi], btype="bandpass", fs=fs, output="sos")
            padlen = 3 * filter_settling_samples(sos)
            filtered = Recording(rec.subject_id, fs, rec.channels,
                                 sosfiltfilt(sos, rec.samples, axis=1, padtype="even",
                                             padlen=padlen))
            starts = random_segment_starts(filtered, segments,
                                           derive_seed(seed, "segments", rec.subject_id))
            L = segment_length(fs)
            for index, start in enumerate(starts):
                values = []
                for channel in filtered.samples[:, start:start + L]:
                    freqs, density = psd(channel, fs)
                    powers = [band_power(freqs, density, band) for band in BANDS[:4]]
                    values += powers + [powers[2] + powers[3]]  # alpha: its halves
                writer.writerow([rec.subject_id, index, "unlabeled"]
                                + [f"{v:.17g}" for v in values])


@pytest.mark.parametrize("band, scipy_signal_loaded", [
    ([], False),
    (["--lo", "1", "--hi", "30"], True),
], ids=["default-band", "other-band"])
def test_extract_features_writes_scipys_features(tmp_path, mini_pipeline, band,
                                                 scipy_signal_loaded):
    # the default band comes from a constant design table, so only other
    # bands import scipy.signal; either way the features are scipy's
    import eegauth
    _, cohort, _ = mini_pipeline
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = ("import sys; from eegauth.cli import main; status = main(sys.argv[1:]); "
            "print('scipy.signal' in sys.modules); sys.exit(status)")
    out = tmp_path / "features.csv"
    done = subprocess.run(
        [sys.executable, "-c", code, "extract-features", "--in", str(cohort),
         "--segments", "60", "--seed", "3", "--out", str(out), *band],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == str(scipy_signal_loaded)

    lo, hi = (1.0, 30.0) if band else (0.5, 40.0)
    reference = tmp_path / "reference.csv"
    scipy_extract(cohort, lo, hi, 60, 3, reference)
    if platform.machine() in ("x86_64", "AMD64"):
        assert out.read_bytes() == reference.read_bytes()
    else:  # off x86_64 the batched rfft is not verified to equal Welch bit for bit
        got, expected = read_feature_table(out), read_feature_table(reference)
        assert got.subjects.tolist() == expected.subjects.tolist()
        assert np.allclose(got.X, expected.X, rtol=1e-9)


class TestEvaluateCohort:
    def run_eval(self, features, out, seed="5"):
        return main(["evaluate-cohort", "--features", str(features),
                     "--budget", "30", "--max-evals", "6", "--folds", "5",
                     "--seed", seed, "--out", str(out)])

    def test_report_outputs(self, mini_pipeline, tmp_path):
        _, _, features = mini_pipeline
        out = tmp_path / "report"
        assert self.run_eval(features, out) == EXIT_OK
        report = json.loads((out / "report.json").read_text())
        assert len(report["users"]) == 4
        assert report["mean"]["accuracy"] >= 0.9  # separable synthetic cohort
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {"accuracy", "fpr", "fnr"}
        lines = (out / "report.csv").read_text().strip().splitlines()
        assert lines[0].startswith("subject,genuine_granted,genuine_denied,")
        assert len(lines) == 1 + 4 + 2  # header + users + MEAN + SD

    def test_reports_byte_identical_across_runs(self, mini_pipeline, tmp_path):
        _, _, features = mini_pipeline
        assert self.run_eval(features, tmp_path / "r1") == EXIT_OK
        assert self.run_eval(features, tmp_path / "r2") == EXIT_OK
        assert tree_digest(tmp_path / "r1") == tree_digest(tmp_path / "r2")

    def test_traces_written_on_request(self, mini_pipeline, tmp_path):
        _, _, features = mini_pipeline
        out = tmp_path / "rep"
        assert main(["evaluate-cohort", "--features", str(features),
                     "--budget", "30", "--max-evals", "4", "--folds", "5",
                     "--seed", "2", "--traces", str(tmp_path / "traces"),
                     "--out", str(out)]) == EXIT_OK
        traces = sorted((tmp_path / "traces").glob("*-trace.csv"))
        assert len(traces) == 4

    def test_failed_user_marks_row_and_exit_code(self, mini_pipeline, tmp_path,
                                                 monkeypatch):
        import eegauth.cli as cli_mod
        from eegauth.errors import NoModelError
        real_select = cli_mod.select_model

        def flaky_select(ds, budget, k_folds, *, seed):
            if ds.owner == "S02":
                raise NoModelError("injected")
            return real_select(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(cli_mod, "select_model", flaky_select)
        _, _, features = mini_pipeline
        out = tmp_path / "partial"
        code = self.run_eval(features, out)
        assert code == 3  # distinct from plain success and plain error
        report = json.loads((out / "report.json").read_text())
        failed = [u for u in report["users"] if u["status"] == "failed"]
        assert [u["subject"] for u in failed] == ["S02"]
        assert len([u for u in report["users"] if u["status"] == "ok"]) == 3

    def test_worker_death_is_error_without_reports(self, mini_pipeline, tmp_path,
                                                   monkeypatch, capsys):
        import eegauth.cli as cli_mod
        real_select = cli_mod.select_model

        def dying_select(ds, budget, k_folds, *, seed):
            if ds.owner == "S02":
                os._exit(1)  # as if the OOM killer took the worker
            return real_select(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(cli_mod, "select_model", dying_select)
        _, _, features = mini_pipeline
        out = tmp_path / "dead"
        assert self.run_eval(features, out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: a search worker process died: ")
        assert not any(out.iterdir())

    def test_worker_error_keeps_message(self, mini_pipeline, tmp_path, monkeypatch,
                                        capsys):
        import eegauth.cli as cli_mod
        from eegauth.errors import ValidationError
        real_select = cli_mod.select_model

        def failing_select(ds, budget, k_folds, *, seed):
            if ds.owner == "S03":
                raise ValidationError("injected: S03 rows are unusable")
            return real_select(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(cli_mod, "select_model", failing_select)
        _, _, features = mini_pipeline
        out = tmp_path / "bad"
        assert self.run_eval(features, out) == EXIT_ERROR
        assert capsys.readouterr().err == "error: injected: S03 rows are unusable\n"
        assert not any(out.iterdir())

    def test_every_user_failing_is_error_without_reports(self, mini_pipeline, tmp_path,
                                                         monkeypatch, capsys):
        import eegauth.cli as cli_mod
        from eegauth.errors import NoModelError

        def no_model(ds, budget, k_folds, *, seed):
            raise NoModelError("injected")

        monkeypatch.setattr(cli_mod, "select_model", no_model)
        _, _, features = mini_pipeline
        out = tmp_path / "none"
        assert self.run_eval(features, out) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "".join(f"{s}: failed (no model within budget)\n"
                                       for s in ("S01", "S02", "S03", "S04"))
        assert captured.err == "error: no user produced a model\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("alpha", ["-0.1", "0", "1", "1.5"])
    def test_alpha_outside_unit_interval_rejected(self, mini_pipeline, tmp_path, capsys,
                                                  no_process_pool, alpha):
        _, _, features = mini_pipeline
        out = tmp_path / "alpha"
        assert main(["evaluate-cohort", "--features", str(features), "--max-evals", "6",
                     "--folds", "5", "--alpha", alpha, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error: --alpha must lie strictly between 0 and 1, got {float(alpha)}\n"
        assert not out.exists()

    def test_alpha_picks_the_test_branch(self, tmp_path):
        # a chance-level cohort, so that no metric column is constant
        cohort, features = tmp_path / "cohort", tmp_path / "features.csv"
        assert main(["synth-cohort", "--subjects", "4", "--duration", "20",
                     "--separability", "0", "--jitter", "0", "--seed", "3",
                     "--out", str(cohort)]) == EXIT_OK
        assert main(["extract-features", "--in", str(cohort), "--segments", "80",
                     "--seed", "1", "--out", str(features)]) == EXIT_OK
        out = tmp_path / "alpha"
        assert main(["evaluate-cohort", "--features", str(features), "--max-evals", "6",
                     "--folds", "5", "--alpha", "0.05", "--out", str(out)]) == EXIT_OK
        stats = json.loads((out / "stats.json").read_text())
        assert set(stats) == {"accuracy", "fpr", "fnr"}
        for result in stats.values():
            assert result["branch"] == ("t" if result["shapiro_p"] > 0.05 else "wilcoxon")

    @pytest.mark.parametrize("option,message", [
        ("--budget", "wall_clock_s must be positive"),
        ("--max-evals", "max_evaluations must be >= 1 when set"),
    ])
    def test_bad_budget_fails_before_any_worker(self, mini_pipeline, tmp_path, capsys,
                                                no_process_pool, option, message):
        _, _, features = mini_pipeline
        out = tmp_path / "budget"
        assert main(["evaluate-cohort", "--features", str(features), "--folds", "5",
                     option, "0", "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


TIMING_COLUMNS = ("elapsed_s", "fit_s", "score_s")


def _untimed_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(set(TIMING_COLUMNS) <= set(row) for row in rows)
    return [{k: v for k, v in row.items() if k not in TIMING_COLUMNS} for row in rows]


def test_reports_independent_of_cpu_count(mini_pipeline, tmp_path, monkeypatch, capsys):
    # two twin pairs (S01/S01t, S02/S02t) keep those users' searches unsaturated
    from eegauth.autoselect import select_model
    from eegauth.dataset import FeatureTable, assemble_user_dataset, write_feature_table
    from eegauth.evaluation import ConfusionCounts, METRIC_COLUMNS, metrics
    from eegauth.seeds import derive_seed

    _, _, features = mini_pipeline
    base = read_feature_table(features)
    table = FeatureTable.concatenate(
        [base] + [FeatureTable.for_subject(s + "t", base.X[base.subjects == s])
                  for s in ("S01", "S02")])
    twins = tmp_path / "twins.csv"
    write_feature_table(table, twins)
    seed, max_evals, folds = 5, 6, 5

    runs = {}
    for cpus in (1, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
        out = tmp_path / f"cpus-{cpus}"
        assert main(["evaluate-cohort", "--features", str(twins), "--budget", "600",
                     "--max-evals", str(max_evals), "--folds", str(folds),
                     "--seed", str(seed), "--traces", str(out / "traces"),
                     "--out", str(out)]) == EXIT_OK
        runs[cpus] = out, capsys.readouterr().out
    (one, one_printed), (four, four_printed) = runs[1], runs[4]
    for name in ("report.csv", "report.json", "stats.json"):
        assert (one / name).read_bytes() == (four / name).read_bytes(), name
    assert one_printed == four_printed

    # the same searches, serial and in this process
    subjects = sorted(set(table.subjects.tolist()))
    users = json.loads((one / "report.json").read_text())["users"]
    printed = one_printed.splitlines()
    assert [u["subject"] for u in users] == subjects
    assert len(printed) == len(subjects) + 1
    for subject, user, line in zip(subjects, users, printed):
        own = table.subjects == subject
        user_seed = derive_seed(seed, "user", subject)
        ds = assemble_user_dataset(subject, table.X[own], table.rows(~own), user_seed)
        model, trace = select_model(ds, SearchBudget(600.0, max_evals),
                                    k_folds=folds, seed=user_seed)
        counts = ConfusionCounts.from_predictions(ds.y, trace.predictions)
        report = metrics(counts)
        expected = {"subject": subject, "status": "ok",
                    "genuine_granted": counts.genuine_granted,
                    "genuine_denied": counts.genuine_denied,
                    "impostor_granted": counts.impostor_granted,
                    "impostor_denied": counts.impostor_denied,
                    "algorithm": model.algorithm, "cv_accuracy": model.cv_accuracy}
        expected.update({k: getattr(report, k) for k in METRIC_COLUMNS})
        assert user == expected
        assert line == (f"{subject}: accuracy {report.accuracy:.3f} "
                        f"kappa {report.kappa:.3f} ({model.algorithm})")
        reference = tmp_path / f"{subject}-reference.csv"
        trace.write_csv(reference)
        name = f"{subject}-trace.csv"
        assert _untimed_rows(one / "traces" / name) == _untimed_rows(reference)
        assert _untimed_rows(four / "traces" / name) == _untimed_rows(reference)
    assert any(u["cv_accuracy"] < 1.0 for u in users)  # some search ran unsaturated


class TestServeEnrollAuthenticate:
    @pytest.fixture()
    def running_server(self, tmp_path, mini_pipeline):
        budget = SearchBudget(wall_clock_s=60.0, max_evaluations=6)
        server = service.make_server(tmp_path / "store", port=0, budget=budget,
                                     enroll_count=50, k_folds=5)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address
        yield f"http://{host}:{port}"
        server.shutdown()
        server.server_close()

    def test_full_protocol_via_cli(self, running_server, mini_pipeline, tmp_path,
                                   capsys):
        _, _, features = mini_pipeline
        # bootstrap the pool with three users, then enroll the target
        for user in ("S02", "S03", "S04"):
            code = main(["enroll", "--server", running_server, "--user", user,
                         "--features", str(features), "--count", "50",
                         "--out", str(tmp_path / f"{user}.json")])
            if user == "S02":
                assert code == EXIT_ERROR  # pool still empty: unavailable
            else:
                assert code == EXIT_OK
        model_path = tmp_path / "S01-model.json"
        assert main(["enroll", "--server", running_server, "--user", "S01",
                     "--features", str(features), "--count", "50",
                     "--nonce", "n1", "--out", str(model_path)]) == EXIT_OK
        model = classifiers.deserialize(model_path.read_bytes())
        assert model.cv_accuracy >= 0.9

        # genuine session grants (exit 0)
        code = main(["authenticate", "--model", str(model_path),
                     "--features", str(features), "--n", "50"])
        assert code == EXIT_OK
        decision = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert decision["outcome"] == "grant"

    def test_impostor_session_denied(self, running_server, mini_pipeline, tmp_path,
                                     capsys):
        # store every subject first (the first call only seeds the pool), so
        # the target's model has seen impostors from each enrolled user
        _, _, features = mini_pipeline
        rows = load_features_csv(features)
        for user in ("S02", "S03", "S04"):
            main(["enroll", "--server", running_server, "--user", user,
                  "--features", str(features), "--count", "50"])
        model_path = tmp_path / "model.json"
        assert main(["enroll", "--server", running_server, "--user", "S01",
                     "--features", str(features), "--count", "50",
                     "--out", str(model_path)]) == EXIT_OK
        impostor_csv = tmp_path / "impostor.csv"
        save_features_csv([r for r in rows if r.source_subject == "S04"],
                          impostor_csv)
        code = main(["authenticate", "--model", str(model_path),
                     "--features", str(impostor_csv), "--n", "50"])
        assert code == EXIT_DENY
        decision = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert decision["outcome"] == "deny"

    def test_fresh_session_still_granted(self, running_server, mini_pipeline,
                                         tmp_path, capsys):
        # authenticate with segments the enrollment never saw (new segment seed)
        root, cohort, features = mini_pipeline
        for user in ("S02", "S03", "S04"):
            main(["enroll", "--server", running_server, "--user", user,
                  "--features", str(features), "--count", "50"])
        model_path = tmp_path / "model.json"
        assert main(["enroll", "--server", running_server, "--user", "S01",
                     "--features", str(features), "--count", "50",
                     "--out", str(model_path)]) == EXIT_OK
        fresh = tmp_path / "fresh.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", "50",
                     "--seed", "99", "--out", str(fresh)]) == EXIT_OK
        s01_rows = [r for r in load_features_csv(fresh) if r.source_subject == "S01"]
        s01_csv = tmp_path / "s01-fresh.csv"
        save_features_csv(s01_rows, s01_csv)
        code = main(["authenticate", "--model", str(model_path),
                     "--features", str(s01_csv), "--n", "50"])
        assert code == EXIT_OK
        decision = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert decision["outcome"] == "grant"

    def test_empty_features_file_errors(self, tmp_path, mini_pipeline):
        _, _, features = mini_pipeline
        model_path = tmp_path / "m.json"
        # any valid model file works for this check
        rows = load_features_csv(features)
        from conftest import user_dataset
        table = {}
        for row in rows:
            table.setdefault(row.source_subject, []).append(row)
        from eegauth.autoselect import select_model
        ds = user_dataset(table, "S01", seed=1)
        model, _ = select_model(ds, SearchBudget(30.0, 3), k_folds=5, seed=1)
        model_path.write_bytes(classifiers.serialize(model))

        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(FEATURES_HEADER) + "\n")
        assert main(["authenticate", "--model", str(model_path),
                     "--features", str(empty)]) == EXIT_ERROR


@pytest.mark.parametrize("n", ["0", "-55"])
def test_authenticate_rejects_n_below_one(tmp_path, mini_pipeline, capsys, n):
    # on a 60-row file, --n -55 scored the first 5 rows
    _, _, features = mini_pipeline
    table = read_feature_table(features)
    model = classifiers.train("lda", classifiers.default_params("lda"), table.X,
                              (table.subjects == "S01").astype(float), 0)
    model_path = tmp_path / "model.json"
    model_path.write_bytes(classifiers.serialize(model))
    assert main(["authenticate", "--model", str(model_path), "--features", str(features),
                 "--n", n]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["authenticate", "--model", "x"],
    ["synth-cohort", "--subjects", "abc", "--out", "cohort"],
], ids=["no-command", "unknown-command", "missing-option", "bad-value"])
def test_usage_error_exits_1_not_deny(tmp_path, capsys, monkeypatch, argv):
    # argparse exits 2 on a usage error, and 2 means access denied
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "usage: eegauth" in captured.err and not captured.out
    assert not list(tmp_path.iterdir())


def test_help_exits_0(capsys):
    assert main(["--help"]) == EXIT_OK
    assert main(["authenticate", "--help"]) == EXIT_OK
    assert "usage: eegauth authenticate" in capsys.readouterr().out


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subjects": 3, "duration": 10.0, "seed": 7}))
        out = tmp_path / "cohort"
        assert main(["--config", str(config), "synth-cohort",
                     "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "cohort.json").read_text())
        assert manifest["n_subjects"] == 3
        assert manifest["seed"] == 7

    def test_config_equals_form_supplies_defaults(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subjects": 2, "duration": 10.0, "seed": 7}))
        out = tmp_path / "cohort"
        assert main([f"--config={config}", "synth-cohort", "--out", str(out)]) == EXIT_OK
        manifest = json.loads((out / "cohort.json").read_text())
        assert manifest["n_subjects"] == 2
        assert manifest["seed"] == 7

    def test_abbreviated_config_rejected(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subjects": 2, "duration": 10.0}))
        assert main(["--conf", str(config), "synth-cohort",
                     "--out", str(tmp_path / "cohort")]) == EXIT_ERROR
        assert not (tmp_path / "cohort").exists()

    def test_missing_config_value_errors(self, capsys):
        assert main(["--config"]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("config", [{"subject": 2}, {"duration": 10.0, "subject": 2},
                                        {"bogus-option": 1}])
    def test_unknown_config_key_errors(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["--config", str(path), "synth-cohort",
                     "--out", str(tmp_path / "cohort")]) == EXIT_ERROR
        err = capsys.readouterr().err
        unknown = next(key for key in config if key != "duration")
        assert err.startswith("error: ") and repr(unknown) in err
        assert not (tmp_path / "cohort").exists()

    def test_config_key_of_another_command_is_kept(self, tmp_path):
        # "budget" is an option of evaluate-cohort and serve, not synth-cohort
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"subjects": 2, "duration": 10.0, "budget": 5.0}))
        out = tmp_path / "cohort"
        assert main(["--config", str(config), "synth-cohort", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "cohort.json").read_text())["n_subjects"] == 2

    def test_invalid_config_json_errors(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"subjects": 3,')
        assert main(["--config", str(config), "synth-cohort",
                     "--out", str(tmp_path / "cohort")]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config.json" in err


@pytest.mark.parametrize("option", [["--workers", "0"], ["--folds", "1"]])
def test_serve_rejects_unusable_options(tmp_path, option):
    # in a subprocess: a server that starts anyway would serve forever
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "eegauth.cli", "serve", "--store", str(tmp_path / "store"),
         "--port", "0", *option], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error: ")
    assert not (tmp_path / "store").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy.special and scipy.signal are imported by the functions that use
    # them, so that every command but the ones that filter or test pays nothing
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = ("import sys, eegauth.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about 1 s to import; no command needs it at start-up
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = "import sys, eegauth.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_process_pool_unloaded():
    # evaluate-cohort and extract-features import them when they start workers
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = ("import sys, eegauth.cli; sys.exit('multiprocessing' in sys.modules "
            "or 'concurrent.futures.process' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_and_extract_leave_http_stack_unloaded(tmp_path, mini_pipeline):
    # service, urllib and synth are imported by the commands that use them, so
    # neither the import nor extract-features pays for HTTP or TLS
    import eegauth
    _, cohort, _ = mini_pipeline
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = (
        "import json, sys, eegauth.cli\n"
        "names = ('eegauth.service', 'http.server', 'http.client', 'urllib.request', 'ssl')\n"
        "imported = [m for m in names if m in sys.modules]\n"
        "status = eegauth.cli.main(sys.argv[1:])\n"
        "print(json.dumps([imported, [m for m in names if m in sys.modules]]))\n"
        "sys.exit(status)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, "extract-features", "--in", str(cohort),
         "--segments", "5", "--seed", "3", "--out", str(tmp_path / "features.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[], []]
