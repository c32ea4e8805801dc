import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

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

        def flaky_select(ds, budget, k_folds):
            if ds.owner == "S02":
                raise NoModelError("injected")
            return real_select(ds, budget, k_folds=k_folds)

        monkeypatch.setattr(cli_mod, "select_model", flaky_select)
        _, _, features = mini_pipeline
        out = tmp_path / "partial"
        code = self.run_eval(features, out)
        assert code == 3  # distinct from plain success and plain error
        report = json.loads((out / "report.json").read_text())
        failed = [u for u in report["users"] if u["status"] == "failed"]
        assert [u["subject"] for u in failed] == ["S02"]
        assert len([u for u in report["users"] if u["status"] == "ok"]) == 3


class TestServeEnrollAuthenticate:
    @pytest.fixture()
    def running_server(self, tmp_path, mini_pipeline):
        budget = SearchBudget(wall_clock_s=60.0, max_evaluations=6, seed=0)
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
        model, _ = select_model(ds, SearchBudget(30.0, 3, seed=1), k_folds=5)
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
    # scipy.signal costs ~0.5 s to import; commands that do not filter skip it
    import eegauth
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    code = "import sys, eegauth.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
