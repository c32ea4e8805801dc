"""The names the benchmark in perfbench/ takes from eegauth still exist.

perfbench/ is not an installed package; its tracer uses only the standard
library, so it is loaded straight from its file.  A function deleted or
renamed in eegauth without the matching benchmark change fails here rather
than in a traced benchmark run.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegauth.dataset import FeatureTable, load_features_csv, write_feature_table

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("module_name", tracing.MODULES)
def test_traced_module_imports(module_name):
    importlib.import_module(f"eegauth.{module_name}")


@pytest.mark.parametrize("module_name, attr",
                         [(module_name, attr) for module_name, attr, _ in tracing.TARGETS],
                         ids=[f"{module_name}.{attr}" for module_name, attr, _ in tracing.TARGETS])
def test_trace_target_resolves(module_name, attr):
    found = importlib.import_module(f"eegauth.{module_name}")
    for part in attr.split("."):
        found = getattr(found, part)
    assert callable(found)


def test_traced_synth_cohort_sees_the_parents_slice(tmp_path):
    # synth-cohort enters synth.write_cohort in the parent for the first
    # slice; a worker's spans stay in the worker
    import eegauth
    code = (
        "import json, os, sys\n"
        f"sys.path.insert(0, {str(TRACING.parent)!r})\n"
        "import tracing\n"
        "from eegauth.cli import main\n"
        "calls = []\n"
        "class Recorder(tracing.Recorder):\n"
        "    def call(self, name, fn, args, kwargs, detail=None):\n"
        "        calls.append([name, list(args[2])])\n"
        "        return super().call(name, fn, args, kwargs, detail)\n"
        "recorder = Recorder()\n"
        "tracing.install(recorder)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "status = main(sys.argv[1:])\n"
        "print(json.dumps([calls, [span[2] for span in recorder.spans]]))\n"
        "sys.exit(status)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code, "synth-cohort", "--subjects", "4", "--duration", "8",
         "--out", str(tmp_path / "cohort")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    calls, spans = json.loads(done.stdout.splitlines()[-1])
    assert calls == [["synth.write_cohort", [0, 1]]]
    assert spans == ["synth.write_cohort"]
    assert (tmp_path / "cohort" / "S04.csv").exists()


def test_loaded_rows_expose_what_serve_reads(tmp_path):
    # perfbench/serve.py groups load_features_csv rows by .source_subject and
    # stacks their .features
    X = np.arange(4 * 15, dtype=float).reshape(4, 15)
    table = FeatureTable.concatenate([FeatureTable.for_subject("S01", X[:3]),
                                      FeatureTable.for_subject("S02", X[3:])])
    write_feature_table(table, tmp_path / "features.csv")
    rows: dict[str, list] = {}
    for instance in load_features_csv(tmp_path / "features.csv"):
        rows.setdefault(instance.source_subject, []).append(instance.features)
    assert sorted(rows) == ["S01", "S02"]
    assert np.array_equal(np.stack(rows["S01"]), X[:3])
    assert np.array_equal(np.stack(rows["S02"]), X[3:])
