"""Golden outputs, pinned by SHA-256 in golden_digests.json.

A change that claims to leave outputs byte-identical must pass this test
without edits to the digest file; one that moves an output on purpose edits
the file and names each moved digest.  Covered are outputs that do not
depend on the BLAS kernel:

- the `synth-cohort` tree of a small cohort (`cohort.json` and each
  recording's CSV and JSON sidecar), as one digest of its files' names and
  digests;
- the feature CSV of that cohort, for the default band and for 1-30 Hz;
- `report.*` and `stats.json` of `evaluate-cohort --max-evals 6 --folds 5`
  on a saturated separable cohort, where only kNN runs folds;
- `serialize()` of the default kNN, Gaussian NB, decision-tree and
  random-forest models on one user's dataset;
- the body of one user's enrollment response against a store of the
  others, under a one-evaluation budget, so the default kNN wins, without
  its `elapsed_s` timing.

Logistic regression, LDA and the reports of a cohort at chance go through
matrix products whose last bits depend on the kernel, and are not covered.

The outputs also depend on the SIMD code numpy runs: its float64 `exp`,
`log` and `arctan2` round differently under AVX-512, AVX2 and its baseline
code, and the cohort's targets and Gaussian NB's model go through them.  So
the file holds one digest set per x86-64 level numpy dispatches to, and
`test_golden_outputs_under_level` recomputes the set under every level the
host runs, with NPY_DISABLE_CPU_FEATURES naming the targets above it.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegauth import classifiers, service
from eegauth.autoselect import SearchBudget
from eegauth.cli import EXIT_OK, main
from eegauth.dataset import assemble_user_dataset, read_feature_table

DIGESTS = Path(__file__).with_name("golden_digests.json")

MODELS = ("knn", "gaussian_nb", "decision_tree", "random_forest")

# numpy's x86-64 dispatch levels, highest first, each with the name of its
# dispatch target: numpy 2.4 groups its targets by level, earlier numpy 2
# releases name the AVX-512 (Skylake) and AVX2 targets instead
LEVEL_TARGETS = {"X86_V4": ("X86_V4", "AVX512_SKX"), "X86_V3": ("X86_V3", "AVX2")}
LEVELS = (*LEVEL_TARGETS, "baseline")

pytestmark = [
    pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                       reason="the digests were computed on x86_64; the rfft is not "
                              "verified to round alike elsewhere"),
    pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                       reason="the digests were computed with numpy 2; numpy 1 is not "
                              "verified to give the same bytes"),
]


def cpu_features() -> tuple[dict, list]:
    """numpy's {feature: enabled} map and its dispatch targets, lowest first."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return __cpu_features__, list(__cpu_dispatch__)


def level_target(level: str, names) -> str:
    return next(name for name in LEVEL_TARGETS[level] if name in names)


def dispatch_level() -> str:
    """The highest level whose dispatch target this numpy process runs."""
    features, _ = cpu_features()
    for level in LEVEL_TARGETS:
        if features.get(level_target(level, features)):
            return level
    return "baseline"


def disabled_above(level: str) -> list[str]:
    """The enabled dispatch targets above `level`: disabling them makes
    numpy run `level`'s code."""
    features, dispatch = cpu_features()
    start = 0 if level == "baseline" else dispatch.index(level_target(level, dispatch)) + 1
    return [name for name in dispatch[start:] if features[name]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(work: Path) -> dict:
    """name -> SHA-256 of every golden output, made under `work`."""
    cohort = work / "cohort"
    assert main(["synth-cohort", "--subjects", "4", "--duration", "20",
                 "--seed", "11", "--out", str(cohort)]) == EXIT_OK
    tree = "".join(f"{path.name} {sha256(path.read_bytes())}\n"
                   for path in sorted(cohort.iterdir()))
    digests = {"cohort-tree": sha256(tree.encode())}
    for name, band in (("features-default-band.csv", []),
                       ("features-1-30hz.csv", ["--lo", "1", "--hi", "30"])):
        assert main(["extract-features", "--in", str(cohort), "--segments", "40",
                     "--seed", "3", "--out", str(work / name), *band]) == EXIT_OK
        digests[name] = sha256((work / name).read_bytes())

    features = work / "features-default-band.csv"
    report = work / "report"
    assert main(["evaluate-cohort", "--features", str(features), "--max-evals", "6",
                 "--folds", "5", "--seed", "5", "--out", str(report)]) == EXIT_OK
    for name in ("report.csv", "report.json", "stats.json"):
        digests[name] = sha256((report / name).read_bytes())

    table = read_feature_table(features)
    own = table.subjects == "S01"
    ds = assemble_user_dataset("S01", table.X[own], table.rows(~own), seed=2)
    for algorithm in MODELS:
        model = classifiers.train(algorithm, classifiers.default_params(algorithm),
                                  ds.X, ds.y, seed=4)
        digests[f"model-{algorithm}.json"] = sha256(classifiers.serialize(model))

    store = service.FeatureStore(work / "store")
    for user in sorted(set(table.subjects[~own].tolist())):
        store.put_user(user, table.X[table.subjects == user])
    response, _ = service.enroll(service.EnrollRequest("S01", table.X[own], "golden"),
                                 store, SearchBudget(1000, max_evaluations=1),
                                 k_folds=5, enroll_count=int(own.sum()))
    body = response.to_dict()
    del body["summary"]["elapsed_s"]
    digests["enroll-response.json"] = sha256(json.dumps(body, sort_keys=True).encode())
    return digests


def test_golden_outputs_unchanged(tmp_path):
    assert golden_digests(tmp_path) == json.loads(DIGESTS.read_text())[dispatch_level()]


# prints this process's dispatch level and its golden digests as JSON
LEVEL_DIGESTS = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from test_golden_digests import dispatch_level, golden_digests
with tempfile.TemporaryDirectory() as work:
    digests = golden_digests(Path(work))
print(json.dumps({"level": dispatch_level(), "digests": digests}))
"""


@pytest.mark.parametrize("level", LEVELS)
def test_golden_outputs_under_level(level):
    if LEVELS.index(dispatch_level()) > LEVELS.index(level):
        pytest.skip(f"this host runs numpy's {dispatch_level()} code, below {level}")
    import eegauth
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled_above(level)),
           "PYTHONPATH": str(Path(eegauth.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", LEVEL_DIGESTS, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    ran = json.loads(done.stdout.strip().splitlines()[-1])
    assert ran["level"] == level
    assert ran["digests"] == json.loads(DIGESTS.read_text())[level]
