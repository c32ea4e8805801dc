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
from eegauth.dataset import FEATURES_HEADER, read_feature_table, write_feature_table

from scipy_reference import scipy_extract


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


def out_dir_with_neighbour(tmp_path) -> Path:
    """A directory for --out that already holds another file."""
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    (out_dir / "neighbour.csv").write_text("kept\n")
    return out_dir


def listing(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in directory.iterdir()}


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

    @pytest.mark.parametrize("option, value", [
        ("--duration", "nan"), ("--duration", "inf"), ("--rate", "inf"),
        ("--separability", "nan"), ("--separability", "inf"),
        ("--noise-floor", "nan"), ("--noise-floor", "inf"),
    ])
    def test_non_finite_value_is_error_without_output(self, tmp_path, capsys, option,
                                                      value):
        out = tmp_path / "cohort"
        assert main(["synth-cohort", "--subjects", "2", option, value,
                     "--out", str(out)]) == EXIT_ERROR
        name = {"--duration": "duration_s", "--rate": "sample_rate_hz",
                "--separability": "separability", "--noise-floor": "noise_floor"}[option]
        assert capsys.readouterr().err == f"error: {name} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["1e308", "1e300"])
    def test_sample_count_beyond_an_array_is_error_without_output(self, tmp_path, capsys,
                                                                  rate):
        # 1e308 Hz x 10 s overflows to inf; 1e300 Hz x 10 s is no array dimension
        out = tmp_path / "cohort"
        assert main(["synth-cohort", "--subjects", "2", "--rate", rate, "--duration", "10",
                     "--out", str(out)]) == EXIT_ERROR
        samples = f"{10 * float(rate):g}"
        assert capsys.readouterr().err == (
            f"error: duration_s * sample_rate_hz is {samples} samples, more than an "
            f"array can hold\n")
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
        table = read_feature_table(features)
        assert len(table) == 4 * 60
        assert set(table.subjects.tolist()) == {"S01", "S02", "S03", "S04"}

    def test_single_segment_per_subject(self, tmp_path, mini_pipeline):
        _, cohort, _ = mini_pipeline
        out = tmp_path / "one.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", "1",
                     "--seed", "0", "--out", str(out)]) == EXIT_OK
        assert len(read_feature_table(out)) == 4

    def test_missing_manifest_is_error(self, tmp_path, mini_pipeline):
        _, cohort, _ = mini_pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "S01.csv").write_bytes((cohort / "S01.csv").read_bytes())
        assert main(["extract-features", "--in", str(broken),
                     "--out", str(tmp_path / "f.csv")]) == EXIT_ERROR

    @pytest.mark.parametrize("rate, message", [
        ("Infinity", "sample_rate_hz must be finite and positive, got inf"),
        ("1e400", "sample_rate_hz must be finite and positive, got inf"),
        ("NaN", "sample_rate_hz must be finite and positive, got nan"),
        ("1" + "0" * 400, "int too large to convert to float"),
    ], ids=["Infinity", "1e400", "NaN", "huge-int"])
    def test_non_finite_rate_is_error_without_features(self, tmp_path, mini_pipeline,
                                                       capsys, rate, message):
        _, cohort, _ = mini_pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in cohort.glob("S0*"):
            (broken / path.name).write_bytes(path.read_bytes())
        manifest = broken / "S02.json"
        text = manifest.read_text()
        assert '"sample_rate_hz": 250.0' in text
        manifest.write_text(text.replace('"sample_rate_hz": 250.0',
                                         f'"sample_rate_hz": {rate}'))
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(manifest) in err and message in err, err
        assert err.count("\n") == 1, err
        assert not out.exists()

    def test_mixed_sample_rates_are_error_without_features(self, tmp_path, mini_pipeline,
                                                          capsys):
        from eegauth.signal import CHANNELS, Recording, write_recording_csv

        _, cohort, _ = mini_pipeline
        mixed = tmp_path / "mixed"
        mixed.mkdir()
        for path in cohort.glob("S0[12].*"):
            (mixed / path.name).write_bytes(path.read_bytes())
        samples = np.random.default_rng(0).normal(size=(3, 15000))
        write_recording_csv(Recording("S03", 500.0, CHANNELS, samples), mixed / "S03.csv")
        out = tmp_path / "f.csv"
        assert main(["extract-features", "--in", str(mixed), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == (f"error: recordings of mixed sample rates in "
                                           f"{mixed}: S01.csv at 250 Hz, S03.csv at 500 Hz\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["mixed"]

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
        # the run leaves --out's directory as it was, but for --out itself,
        # which has the mode open(path, "w") gives
        _, cohort, features = mini_pipeline
        out_dir = out_dir_with_neighbour(tmp_path)
        with open(tmp_path / "probe", "w"):
            pass
        mode = (tmp_path / "probe").stat().st_mode
        printed, workers = {}, {}
        for cpus in (1, 2, 3, 7):
            set_cpus(monkeypatch, cpus)
            out = out_dir / f"cpus-{cpus}.csv"
            before = listing(out_dir)
            assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                         "--seed", "3", "--out", str(out)]) == EXIT_OK
            assert out.read_bytes() == features.read_bytes(), cpus
            assert listing(out_dir) == {**before, out.name: features.read_bytes()}
            assert out.stat().st_mode == mode, cpus
            printed[cpus] = capsys.readouterr().out.replace(str(out), "OUT")
            workers[cpus] = pools[:]
            pools.clear()
        assert set(printed.values()) == {"wrote 240 instances from 4 subjects to OUT\n"}
        assert workers == {1: [], 2: [1], 3: [2], 7: [3]}

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_first_bad_recording_in_path_order_is_reported(self, tmp_path, mini_pipeline,
                                                            monkeypatch, capsys, cpus):
        # each recording is read, filtered and featurized before the next, so
        # the first bad one in path order is reported, whatever its stage
        _, cohort, _ = mini_pipeline
        broken = tmp_path / "broken"
        broken.mkdir()
        for path in cohort.glob("S0*"):
            (broken / path.name).write_bytes(path.read_bytes())
        short, unreadable = broken / "S02.csv", broken / "S04.csv"
        short.write_text("".join(short.read_text().splitlines(keepends=True)[:2001]))
        lines = unreadable.read_text().splitlines(keepends=True)
        lines[100] = lines[100].replace(",", ",x", 1)
        unreadable.write_text("".join(lines))
        set_cpus(monkeypatch, cpus)
        # a failed run leaves --out's directory, an existing --out included,
        # byte for byte as it was
        out_dir = out_dir_with_neighbour(tmp_path)
        out = out_dir / "f.csv"
        before = listing(out_dir)
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: {short}: recording has 2000 samples; band [0.5, 40.0] Hz needs "
            f"more than 4383 for reflection padding\n")
        assert listing(out_dir) == before
        # a read error, named once, when it comes first
        short.rename(broken / "S05.csv")
        short.with_suffix(".json").rename(broken / "S05.json")
        out.write_text("an earlier run's features\n")
        before = listing(out_dir)
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {unreadable}: ") and err.count("\n") == 1, err
        assert err.count(str(unreadable)) == 1, err
        assert listing(out_dir) == before
        # the first slice fails, this process's, while the workers write theirs
        first = broken / "S01.csv"
        first.write_text("".join(first.read_text().splitlines(keepends=True)[:2001]))
        assert main(["extract-features", "--in", str(broken), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {first}: recording has 2000 samples") \
            and err.count("\n") == 1, err
        assert listing(out_dir) == before

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
        out_dir = out_dir_with_neighbour(tmp_path)
        out = out_dir / "f.csv"
        for existing in (False, True):
            if existing:
                out.write_text("an earlier run's features\n")
            before = listing(out_dir)
            assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                         "--out", str(out)]) == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error: a feature worker process died: ")
            assert err.count("\n") == 1
            assert listing(out_dir) == before

    def test_out_in_missing_directory_fails_before_any_read_or_worker(
            self, tmp_path, mini_pipeline, monkeypatch, capsys, no_process_pool):
        import eegauth.cli as cli_mod

        def refuse(path):
            raise AssertionError(f"{path} was read")

        monkeypatch.setattr(cli_mod, "read_recording_csv", refuse)
        set_cpus(monkeypatch, 4)
        _, cohort, _ = mini_pipeline
        out = tmp_path / "missing" / "f.csv"
        assert main(["extract-features", "--in", str(cohort), "--segments", "60",
                     "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == \
            f"error: cannot write {out}: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_parent_peak_memory_does_not_grow_with_the_cohort(self, tmp_path,
                                                              monkeypatch):
        # the parent holds one recording's rows at a time, whatever the
        # number of recordings: its peak on 16 subjects is that on 4
        import eegauth
        set_cpus(monkeypatch, 2)
        cohorts = {16: tmp_path / "cohort16", 4: tmp_path / "cohort4"}
        assert main(["synth-cohort", "--subjects", "16", "--seed", "5",
                     "--out", str(cohorts[16])]) == EXIT_OK
        cohorts[4].mkdir()
        for path in sorted(cohorts[16].glob("S*"))[:8]:  # 4 CSVs and their sidecars
            os.link(path, cohorts[4] / path.name)
        env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
        # two slices, as on the benchmark's 2 CPUs, whatever this host has.
        # The peak is VmHWM: ru_maxrss keeps this process's larger peak
        # across the exec
        code = ("import os, sys\n"
                "os.sched_getaffinity = lambda pid: {0, 1}\n"
                "from eegauth.cli import main\n"
                "status = main(sys.argv[1:])\n"
                "with open('/proc/self/status') as fh:\n"
                "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))\n"
                "sys.exit(status)\n")
        peak_kb = {}
        for n, cohort in cohorts.items():
            done = subprocess.run(
                [sys.executable, "-c", code, "extract-features", "--in", str(cohort),
                 "--segments", "500", "--out", str(tmp_path / f"features{n}.csv")],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == EXIT_OK, done.stderr
            peak_kb[n] = int(done.stdout.splitlines()[-1])
        assert abs(peak_kb[16] - peak_kb[4]) <= 2 * 1024, peak_kb


@pytest.mark.parametrize("band", [[], ["--lo", "1", "--hi", "30"]],
                         ids=["default-band", "other-band"])
def test_extract_features_writes_scipys_features(tmp_path, mini_pipeline, band):
    # every band is designed in floats, so none imports scipy.signal; the
    # features are scipy's within 1e-12 relative, since scipy's own design
    # rounds by numpy's SIMD level and LAPACK's kernel
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
    assert done.stdout.splitlines()[-1] == "False"

    lo, hi = (1.0, 30.0) if band else (0.5, 40.0)
    reference = tmp_path / "reference.csv"
    scipy_extract(cohort, lo, hi, 60, 3, reference)
    got, expected = read_feature_table(out), read_feature_table(reference)
    assert got.subjects.tolist() == expected.subjects.tolist()
    assert got.segment_index.tolist() == expected.segment_index.tolist()
    # off x86_64 the batched rfft is not verified to equal Welch bit for bit
    rtol = 1e-12 if platform.machine() in ("x86_64", "AMD64") else 1e-9
    assert np.allclose(got.X, expected.X, rtol=rtol, atol=0)


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
        from eegauth import autoselect
        from eegauth.errors import NoModelError
        real_search = autoselect.search

        def flaky_search(ds, budget, k_folds, *, seed):
            if ds.owner == "S02":
                raise NoModelError("injected")
            return real_search(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(autoselect, "search", flaky_search)
        _, _, features = mini_pipeline
        out = tmp_path / "partial"
        code = self.run_eval(features, out)
        assert code == 3  # distinct from plain success and plain error
        report = json.loads((out / "report.json").read_text())
        failed = [u for u in report["users"] if u["status"] == "failed"]
        assert [u["subject"] for u in failed] == ["S02"]
        assert len([u for u in report["users"] if u["status"] == "ok"]) == 3

    def test_search_fits_no_refit(self, mini_pipeline, tmp_path, monkeypatch):
        # the report needs the winner's name, score and held-out predictions
        # only, so a user's search fits one model per fold it runs and none
        # on all rows
        from eegauth import cli
        _, _, features = mini_pipeline
        args = cli.build_parser().parse_args([
            "evaluate-cohort", "--features", str(features), "--max-evals", "4",
            "--folds", "5", "--seed", "2", "--out", str(tmp_path / "unused")])
        budget = SearchBudget(30.0, args.max_evals)
        monkeypatch.setattr(cli, "_search_state", (read_feature_table(features), budget, args))
        fits = []
        real_train = classifiers.train
        monkeypatch.setattr(classifiers, "train",
                            lambda *a, **kw: fits.append(a[0]) or real_train(*a, **kw))
        algorithm, cv_accuracy, _, trace = cli._search_user("S01")
        assert len(fits) == sum(entry.folds_run for entry in trace.entries) > 0
        assert (algorithm, cv_accuracy) == (trace.best().algorithm, trace.best().cv_accuracy)

    def test_worker_death_is_error_without_reports(self, mini_pipeline, tmp_path,
                                                   monkeypatch, capsys):
        from eegauth import autoselect
        real_search = autoselect.search

        def dying_search(ds, budget, k_folds, *, seed):
            if ds.owner == "S02":
                os._exit(1)  # as if the OOM killer took the worker
            return real_search(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(autoselect, "search", dying_search)
        _, _, features = mini_pipeline
        out = tmp_path / "dead"
        assert self.run_eval(features, out) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: a search worker process died: ")
        assert not any(out.iterdir())

    def test_worker_error_keeps_message(self, mini_pipeline, tmp_path, monkeypatch,
                                        capsys):
        from eegauth import autoselect
        from eegauth.errors import ValidationError
        real_search = autoselect.search

        def failing_search(ds, budget, k_folds, *, seed):
            if ds.owner == "S03":
                raise ValidationError("injected: S03 rows are unusable")
            return real_search(ds, budget, k_folds=k_folds, seed=seed)

        monkeypatch.setattr(autoselect, "search", failing_search)
        _, _, features = mini_pipeline
        out = tmp_path / "bad"
        assert self.run_eval(features, out) == EXIT_ERROR
        assert capsys.readouterr().err == "error: injected: S03 rows are unusable\n"
        assert not any(out.iterdir())

    def test_every_user_failing_is_error_without_reports(self, mini_pipeline, tmp_path,
                                                         monkeypatch, capsys):
        from eegauth import autoselect
        from eegauth.errors import NoModelError

        def no_model(ds, budget, k_folds, *, seed):
            raise NoModelError("injected")

        monkeypatch.setattr(autoselect, "search", no_model)
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

    @pytest.mark.parametrize("option,value,message", [
        pytest.param("--budget", "0", "wall_clock_s must be positive",
                     id="--budget-wall_clock_s must be positive"),
        pytest.param("--max-evals", "0", "max_evaluations must be >= 1 when set",
                     id="--max-evals-max_evaluations must be >= 1 when set"),
        # a NaN deadline is never reached: the search would never stop
        ("--budget", "nan", "wall_clock_s must be finite, got nan"),
        ("--budget", "inf", "wall_clock_s must be finite, got inf"),
        # the later --folds wins over the test's --folds 5
        ("--folds", "1", "--folds must be at least 2, got 1"),
    ])
    def test_bad_budget_fails_before_any_worker(self, mini_pipeline, tmp_path, capsys,
                                                no_process_pool, option, value, message):
        _, _, features = mini_pipeline
        out = tmp_path / "budget"
        assert main(["evaluate-cohort", "--features", str(features), "--folds", "5",
                     option, value, "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("rows,folds,message", [
        # each user's classes are split into --folds folds of their rows
        ({"S01": 8, "S02": 8, "S03": 8}, "9", "--folds 9 is more than the 8 rows of subject S01"),
        ({"S01": 10, "S02": 10, "S03": 7}, "8", "--folds 8 is more than the 7 rows of subject S03"),
        # a user's impostor rows are drawn from the other subjects' rows
        ({"S01": 30, "S02": 8, "S03": 8}, "5", "subject S01 has 30 rows, more than the other "
                                              "subjects' 16"),
    ], ids=["folds-above-every-subject", "folds-above-one-subject", "too-few-impostors"])
    def test_table_too_small_fails_before_any_worker(self, mini_pipeline, tmp_path, capsys,
                                                     no_process_pool, rows, folds, message):
        from eegauth.dataset import FeatureTable

        _, _, features = mini_pipeline
        base = read_feature_table(features)
        small = tmp_path / "small.csv"
        write_feature_table(FeatureTable.concatenate(
            FeatureTable.for_subject(subject, base.X[base.subjects == subject][:n])
            for subject, n in rows.items()), small)
        out = tmp_path / "rep"
        assert main(["evaluate-cohort", "--features", str(small), "--folds", folds,
                     "--max-evals", "2", "--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_repeated_row_key_fails_before_any_worker(self, mini_pipeline, tmp_path, capsys,
                                                      no_process_pool):
        from eegauth.dataset import FeatureTable

        _, _, features = mini_pipeline
        base = read_feature_table(features)
        table = FeatureTable.concatenate(
            FeatureTable.for_subject(subject, base.X[base.subjects == subject][:20])
            for subject in ("S01", "S02", "S03"))
        twice = tmp_path / "twice.csv"
        write_feature_table(FeatureTable.concatenate([table, table]), twice)
        out = tmp_path / "rep"
        assert main(["evaluate-cohort", "--features", str(twice), "--folds", "5",
                     "--max-evals", "2", "--out", str(out)]) == EXIT_ERROR
        # the header is line 1, so the 61st row is line 62
        assert capsys.readouterr().err == \
            f"error: {twice}:62: subject S01 segment_index 0 repeats line 2\n"
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


def run_on_cpus(cpus: set, *argv) -> str:
    """Run the CLI in a fresh process confined to `cpus`; the affinity is set
    before eegauth, and with it numpy and OpenBLAS, is imported."""
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = (f"import os, sys; os.sched_setaffinity(0, {sorted(cpus)}); "
            "from eegauth.cli import main; sys.exit(main(sys.argv[1:]))")
    done = subprocess.run([sys.executable, "-c", code, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    return done.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity (Linux)")
def test_outputs_independent_of_usable_cpus(tmp_path):
    # the real process split, unfaked: synth-cohort, extract-features and
    # evaluate-cohort on one CPU and on every CPU this process may use.
    # Zero separability and jitter put every user at chance, so no search
    # saturates.
    every_cpu = os.sched_getaffinity(0)
    if len(every_cpu) < 2:
        pytest.skip("one usable CPU: no second worker count to compare with")
    sides = {}
    for name, cpus in (("one-cpu", {min(every_cpu)}), ("all-cpus", every_cpu)):
        work = tmp_path / name
        printed = run_on_cpus(
            cpus, "synth-cohort", "--subjects", "4", "--duration", "20",
            "--separability", "0", "--jitter", "0", "--seed", "3",
            "--out", work / "cohort")
        printed += run_on_cpus(
            cpus, "extract-features", "--in", work / "cohort", "--segments", "80",
            "--seed", "1", "--out", work / "features.csv")
        printed += run_on_cpus(
            cpus, "evaluate-cohort", "--features", work / "features.csv",
            "--max-evals", "6", "--folds", "5", "--seed", "1",
            "--traces", work / "report" / "traces", "--out", work / "report")
        sides[name] = work, printed.replace(str(work), "WORK")
    (one, one_printed), (every, every_printed) = sides["one-cpu"], sides["all-cpus"]
    assert one_printed == every_printed
    assert tree_digest(one / "cohort") == tree_digest(every / "cohort")
    assert (one / "features.csv").read_bytes() == (every / "features.csv").read_bytes()
    for name in ("report.csv", "report.json", "stats.json"):
        assert (one / "report" / name).read_bytes() == \
            (every / "report" / name).read_bytes(), name
    traces = [f"S0{i}-trace.csv" for i in range(1, 5)]
    for side in (one, every):
        assert sorted(p.name for p in (side / "report" / "traces").iterdir()) == traces
    for name in traces:
        assert _untimed_rows(one / "report" / "traces" / name) == \
            _untimed_rows(every / "report" / "traces" / name), name


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
        table = read_feature_table(features)
        for user in ("S02", "S03", "S04"):
            main(["enroll", "--server", running_server, "--user", user,
                  "--features", str(features), "--count", "50"])
        model_path = tmp_path / "model.json"
        assert main(["enroll", "--server", running_server, "--user", "S01",
                     "--features", str(features), "--count", "50",
                     "--out", str(model_path)]) == EXIT_OK
        impostor_csv = tmp_path / "impostor.csv"
        write_feature_table(table.rows(table.subjects == "S04"), impostor_csv)
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
        fresh_table = read_feature_table(fresh)
        s01_csv = tmp_path / "s01-fresh.csv"
        write_feature_table(fresh_table.rows(fresh_table.subjects == "S01"), s01_csv)
        code = main(["authenticate", "--model", str(model_path),
                     "--features", str(s01_csv), "--n", "50"])
        assert code == EXIT_OK
        decision = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert decision["outcome"] == "grant"

    def test_empty_features_file_errors(self, tmp_path, mini_pipeline):
        _, _, features = mini_pipeline
        model_path = tmp_path / "m.json"
        # any valid model file works for this check
        from conftest import user_dataset
        from eegauth.autoselect import select_model
        ds = user_dataset(read_feature_table(features), "S01", seed=1)
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


@pytest.fixture()
def stub_server():
    """Start an HTTP server in this process that answers every POST with 200
    and the given body; returns its URL."""
    import http.server
    servers = []

    def start(body: bytes) -> str:
        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = http.server.HTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        host, port = server.server_address
        return f"http://{host}:{port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


def _lda_envelope(features: Path) -> dict:
    table = read_feature_table(features)
    model = classifiers.train("lda", classifiers.default_params("lda"), table.X,
                              (table.subjects == "S01").astype(float), 0)
    return json.loads(classifiers.serialize(model))


@pytest.mark.parametrize("reply, message", [
    ("not json", "server reply is not JSON: "),
    ("not utf-8", "server reply is not JSON: "),
    ("[]", "server reply is not an enrollment: TypeError("),
    ("no-model", "server reply is not an enrollment: KeyError('model')"),
    ("no-summary", "server reply is not an enrollment: KeyError('summary')"),
    ("bare-summary", "server reply is not an enrollment: KeyError('algorithm')"),
], ids=["not-json", "not-utf8", "list", "no-model", "no-summary", "bare-summary"])
def test_enroll_rejects_malformed_reply(tmp_path, mini_pipeline, stub_server, capsys,
                                        reply, message):
    _, _, features = mini_pipeline
    summary = {"algorithm": "lda", "cv_accuracy": 1.0, "evaluations": 1,
               "elapsed_s": 0.1}
    body = {
        "not json": b"<html>ok</html>",
        "not utf-8": b"\xff\xfe{}",
        "[]": b"[]",
        "no-model": json.dumps({"summary": summary}).encode(),
        "no-summary": json.dumps({"model": _lda_envelope(features)}).encode(),
        "bare-summary": json.dumps({"model": _lda_envelope(features),
                                    "summary": {}}).encode(),
    }[reply]
    model_path = tmp_path / "model.json"
    assert main(["enroll", "--server", stub_server(body), "--user", "S01",
                 "--features", str(features), "--count", "50",
                 "--out", str(model_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}"), captured.err
    assert captured.err.count("\n") == 1 and not captured.out
    assert not model_path.exists()


@pytest.mark.parametrize("count", ["0", "-1"])
def test_enroll_count_below_one_fails_before_any_read_or_post(tmp_path, monkeypatch,
                                                              capsys, count):
    import eegauth.cli as cli_mod

    def refuse(*args):
        raise AssertionError(f"called with {args}")

    monkeypatch.setattr(cli_mod, "read_feature_table", refuse)
    monkeypatch.setattr(cli_mod, "_post_json", refuse)
    model_path = tmp_path / "model.json"
    assert main(["enroll", "--server", "http://127.0.0.1:9", "--user", "S01",
                 "--features", str(tmp_path / "features.csv"), "--count", count,
                 "--out", str(model_path)]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: --count must be at least 1, got {count}\n"
    assert not captured.out and not model_path.exists()


def test_enroll_prints_a_well_formed_reply(tmp_path, mini_pipeline, stub_server, capsys):
    # the stub itself is sound: a full reply enrolls
    _, _, features = mini_pipeline
    envelope = _lda_envelope(features)
    body = json.dumps({"model": envelope, "summary": {
        "algorithm": "lda", "cv_accuracy": 1.0, "evaluations": 1,
        "elapsed_s": 0.1}}).encode()
    model_path = tmp_path / "model.json"
    assert main(["enroll", "--server", stub_server(body), "--user", "S01",
                 "--features", str(features), "--count", "50",
                 "--out", str(model_path)]) == EXIT_OK
    assert capsys.readouterr().out == \
        f"enrolled S01: lda cv_accuracy 1.0000 (1 evaluations, 0.1s) -> {model_path}\n"
    assert json.loads(model_path.read_bytes()) == envelope


@pytest.mark.parametrize("port", ["99999", "65536", "-1"])
def test_serve_rejects_port_out_of_range(tmp_path, capsys, port):
    store = tmp_path / "store"
    assert main(["serve", "--store", str(store), "--port", port]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: port must lie in [0, 65535], got {port}\n"
    assert not captured.out and not store.exists()


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["authenticate", "--model", "x"],
    ["synth-cohort", "--subjects", "abc", "--out", "cohort"],
    ["--config", "c.json", "synth-cohort", "--out", "cohort"],
    ["synth-cohort", "--config", "c.json", "--out", "cohort"],
], ids=["no-command", "unknown-command", "missing-option", "bad-value", "config",
        "synth-cohort-config"])
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


@pytest.mark.parametrize("option", [
    ["--workers", "0"], ["--folds", "1"], ["--enroll-count", "5", "--folds", "10"],
    ["--enroll-count", "0"], ["--enroll-count", "-1"], ["--budget", "nan"],
    ["--budget", "inf"],
])
def test_serve_rejects_unusable_options(tmp_path, option):
    # in a subprocess: a server that starts anyway would serve forever
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "eegauth.cli", "serve", "--store", str(tmp_path / "store"),
         "--port", "0", *option], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_ERROR
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1, done.stderr
    assert not (tmp_path / "store").exists()


# Prints the OpenBLAS thread count of this process before anything sets it,
# of each of a forked pool's workers, of this process after the pool, and of
# `serve` once it builds its server (the server is never started).  None
# where numpy links no OpenBLAS this can find.
BLAS_THREADS = """
import ctypes, json, sys
from eegauth import cli, service

def blas_threads():
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None

counts = {"start": blas_threads()}
with cli._forked_pool(2, "probe") as pool:
    counts["workers"] = [future.result()
                         for future in [pool.submit(blas_threads) for _ in range(4)]]
counts["after_pool"] = blas_threads()

def built(*args, **kwargs):
    counts["serve"] = blas_threads()
    print(json.dumps(counts))
    raise SystemExit(0)

service.make_server = built
cli.main(sys.argv[1:])
"""


def test_busy_processes_use_one_blas_thread(tmp_path):
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.pop("OMP_NUM_THREADS", None)
    done = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS, "serve", "--store", str(tmp_path / "store"),
         "--port", "0"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    if counts["start"] is None:
        pytest.skip("numpy links no OpenBLAS found through /proc/self/maps")
    assert counts["workers"] == [1] * 4
    assert counts["serve"] == 1
    # only the workers are set: the process that forked them keeps its count
    assert counts["after_pool"] == counts["start"]


# Prints how many malloc heaps (arenas) glibc's malloc_info lists after 4
# threads each held 1 MB at once: in `serve` once it builds its server (the
# server is never started), or, with the argument "alone", in a process that
# sets no arena rule.
MALLOC_HEAPS = """
import ctypes, json, os, sys, tempfile, threading
from eegauth import cli, service

libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
libc.fopen.restype = ctypes.c_void_p
libc.fopen.argtypes = [ctypes.c_char_p, ctypes.c_char_p]
libc.fclose.argtypes = [ctypes.c_void_p]
libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]

def heaps_after_threads():
    together = threading.Barrier(4)
    def allocate():
        block = libc.malloc(1 << 20)
        together.wait()
        libc.free(block)
    threads = [threading.Thread(target=allocate) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "malloc.xml").encode()
        out = libc.fopen(path, b"w")
        libc.malloc_info(0, out)
        libc.fclose(out)
        with open(path) as fh:
            return fh.read().count("<heap nr=")

def built(*args, **kwargs):
    print(json.dumps(heaps_after_threads()))
    raise SystemExit(0)

if sys.argv[1:] == ["alone"]:
    print(json.dumps(heaps_after_threads()))
else:
    service.make_server = built
    cli.main(sys.argv[1:])
"""


def test_serve_allocates_from_one_malloc_arena(tmp_path):
    import ctypes
    libc = ctypes.CDLL(None)
    if not (platform.libc_ver()[0] == "glibc" and hasattr(libc, "mallopt")
            and hasattr(libc, "malloc_info")):
        pytest.skip("the arena rule needs glibc's mallopt")
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    env.pop("MALLOC_ARENA_MAX", None)
    heaps = {}
    for name, argv in (("alone", ["alone"]),
                       ("serve", ["serve", "--store", str(tmp_path / "store"),
                                  "--port", "0"])):
        done = subprocess.run([sys.executable, "-c", MALLOC_HEAPS, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        heaps[name] = json.loads(done.stdout.splitlines()[-1])
    # without the rule the threads take arenas of their own; `serve` set it
    # before it built its server
    assert heaps["alone"] > 1
    assert heaps["serve"] == 1


def test_synth_and_extract_leave_model_side_unloaded(tmp_path):
    # the model side is imported by the commands that fit or score models
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = (
        "import json, sys, eegauth.cli\n"
        "cohort, features = sys.argv[1:]\n"
        "codes = [eegauth.cli.main(['synth-cohort', '--subjects', '2', '--duration', '20',\n"
        "                           '--seed', '1', '--out', cohort]),\n"
        "         eegauth.cli.main(['extract-features', '--in', cohort, '--segments', '5',\n"
        "                           '--out', features])]\n"
        "names = ('eegauth.classifiers', 'eegauth.autoselect', 'eegauth.evaluation')\n"
        "print(json.dumps([codes, [m for m in names if m in sys.modules]]))\n")
    done = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "cohort"), str(tmp_path / "features.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [[EXIT_OK, EXIT_OK], []]


def test_cli_import_leaves_scipy_unloaded():
    # scipy.signal is imported by the functions that design a filter band, so
    # that no other command pays for it
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = ("import sys, eegauth.cli; "
            "sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_cli_import_leaves_statistics_unloaded():
    # the Shapiro-Wilk test imports it; no other command needs it
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = "import sys, eegauth.cli; sys.exit('statistics' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_evaluate_cohort_leaves_scipy_unloaded(mini_pipeline, tmp_path):
    # the statistical tests are computed with the standard library; two twin
    # pairs keep the metric columns from being constant, so that they run
    import eegauth
    from eegauth.dataset import FeatureTable

    _, _, features = mini_pipeline
    base = read_feature_table(features)
    features = tmp_path / "twins.csv"
    write_feature_table(FeatureTable.concatenate(
        [base] + [FeatureTable.for_subject(s + "t", base.X[base.subjects == s])
                  for s in ("S01", "S02")]), features)
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = ("import sys; from eegauth.cli import main; status = main(sys.argv[1:]); "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))); "
            "sys.exit(status)")
    out = tmp_path / "rep"
    done = subprocess.run(
        [sys.executable, "-c", code, "evaluate-cohort", "--features", str(features),
         "--max-evals", "2", "--folds", "5", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    stats = json.loads((out / "stats.json").read_text())
    assert "p" in stats["accuracy"] and "shapiro_p" in stats["accuracy"], stats


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
