"""Golden outputs, pinned by SHA-256 in golden_digests.json.

A change that claims to leave outputs byte-identical must pass this test
without edits to the digest file; one that moves an output on purpose edits
the file and names each moved digest.  Covered are outputs that do not
depend on the BLAS kernel; `test_blas_kernels.py::test_golden_outputs_under_kernel`
recomputes them under OpenBLAS's Haswell and Nehalem kernels:

- the `synth-cohort` tree of a small cohort (`cohort.json` and each
  recording's CSV and JSON sidecar), as one digest of its files' names and
  digests;
- the feature CSV of that cohort, for the default band and for 1-30 Hz, and
  the 1-30 Hz feature CSV of a small cohort sampled at 256 Hz;
- `report.*` and `stats.json` of `evaluate-cohort --max-evals 6 --folds 5`
  on a saturated separable cohort, where only kNN runs folds;
- `serialize()` of the default kNN, Gaussian NB, decision-tree and
  random-forest models on one user's dataset;
- the body of one user's enrollment response against a store of the
  others, under a one-evaluation budget, so the default kNN wins, without
  its `elapsed_s` timing.

Logistic regression, LDA and the reports of a cohort at chance go through
matrix products whose last bits depend on the kernel, and are not covered.

numpy's float64 `exp`, `log` and `tan` and its complex `abs`, product and
square round differently under its AVX-512, AVX2 and baseline code, so no
golden output goes through them: the cohort's targets and the searched
log-uniform parameters use `math.exp` and `math.log`, the synthesizer
computes complex magnitudes and products from their parts, and the filter is
designed with `math` and `cmath`.  So the file holds one digest set, and
`test_golden_outputs_under_level` recomputes it under every x86-64 level the
host runs, with NPY_DISABLE_CPU_FEATURES naming the targets above it.
`test_draws_equal_under_every_level` compares more draws than the golden
cohort makes.  `math.exp` is the C library's, so the set binds on x86-64
with glibc and numpy 2.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import LEVELS, dispatch_level, host_levels, run_under_level
from eegauth import classifiers, service
from eegauth.autoselect import SearchBudget
from eegauth.cli import EXIT_OK, main
from eegauth.dataset import assemble_user_dataset, read_feature_table

DIGESTS = Path(__file__).with_name("golden_digests.json")

MODELS = ("knn", "gaussian_nb", "decision_tree", "random_forest")

pytestmark = [
    pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                       reason="the digests were computed on x86_64; the rfft is not "
                              "verified to round alike elsewhere"),
    pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                       reason="the digests were computed with numpy 2; numpy 1 is not "
                              "verified to give the same bytes"),
]


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
    # a second rate, so that the filter design is pinned off the default one
    cohort256 = work / "cohort-256hz"
    name = "features-256hz-1-30hz.csv"
    assert main(["synth-cohort", "--subjects", "2", "--duration", "20", "--rate", "256",
                 "--seed", "11", "--out", str(cohort256)]) == EXIT_OK
    assert main(["extract-features", "--in", str(cohort256), "--segments", "20",
                 "--seed", "3", "--lo", "1", "--hi", "30", "--out", str(work / name)]) == EXIT_OK
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
    assert golden_digests(tmp_path) == json.loads(DIGESTS.read_text())


# prints this process's dispatch level and its golden digests as JSON
LEVEL_DIGESTS = """
import json, tempfile
from pathlib import Path
from conftest import dispatch_level
from test_golden_digests import golden_digests
with tempfile.TemporaryDirectory() as work:
    digests = golden_digests(Path(work))
print(json.dumps({"level": dispatch_level(), "digests": digests}))
"""


@pytest.mark.parametrize("level", LEVELS)
def test_golden_outputs_under_level(level):
    if level not in host_levels():
        pytest.skip(f"this host runs numpy's {dispatch_level()} code, below {level}")
    ran = run_under_level(level, LEVEL_DIGESTS)
    assert ran["level"] == level
    assert ran["digests"] == json.loads(DIGESTS.read_text())


# prints, over more draws than the golden cohort makes, what the synthesizer
# and the search draw through exp, log and complex arithmetic: the
# signatures and samples of a 15-subject cohort, and 200 draws of each
# log-uniform parameter
LEVEL_DRAWS = """
import hashlib, json
import numpy as np
from eegauth.classifiers import PARAM_SPACES
from eegauth.synth import CohortSpec, make_cohort
cohort = make_cohort(CohortSpec(n_subjects=15, duration_s=4.0, seed=1))
spaces = (PARAM_SPACES["logistic_regression"]["l2"], PARAM_SPACES["gaussian_nb"]["var_smoothing"])
rng = np.random.default_rng(0)
print(json.dumps({
    "signatures": [[s.targets.tolist(), s.realized.tolist()] for s, _ in cohort],
    "samples": hashlib.sha256(b"".join(r.samples.tobytes() for _, r in cohort)).hexdigest(),
    "params": [space.sample(rng) for _ in range(200) for space in spaces]}))
"""


def test_draws_equal_under_every_level():
    draws = {level: run_under_level(level, LEVEL_DRAWS) for level in host_levels()}
    assert all(d == draws["baseline"] for d in draws.values()), draws
