"""Golden outputs, pinned by SHA-256 in golden_digests.json.

A change that claims to leave outputs byte-identical must pass this test
without edits to the digest file; one that moves an output on purpose edits
the file and names each moved digest.  Covered are outputs that do not
depend on the BLAS kernel:

- the feature CSV of a small cohort, for the default band and for 1-30 Hz;
- `report.*` and `stats.json` of `evaluate-cohort --max-evals 6 --folds 5`
  on a saturated separable cohort, where only kNN runs folds;
- `serialize()` of the default kNN, Gaussian NB, decision-tree and
  random-forest models on one user's dataset.

Logistic regression, LDA and the reports of a cohort at chance go through
matrix products whose last bits depend on the kernel, and are not covered.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from eegauth import classifiers
from eegauth.cli import EXIT_OK, main
from eegauth.dataset import assemble_user_dataset, read_feature_table

DIGESTS = Path(__file__).with_name("golden_digests.json")

MODELS = ("knn", "gaussian_nb", "decision_tree", "random_forest")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_digests(work: Path) -> dict:
    """name -> SHA-256 of every golden output, made under `work`."""
    cohort = work / "cohort"
    assert main(["synth-cohort", "--subjects", "4", "--duration", "20",
                 "--seed", "11", "--out", str(cohort)]) == EXIT_OK
    digests = {}
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
    return digests


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the digests were computed on x86_64; the rfft is not "
                           "verified to round alike elsewhere")
@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2,
                    reason="the digests were computed with numpy 2; numpy 1 is not "
                           "verified to give the same bytes")
def test_golden_outputs_unchanged(tmp_path):
    assert golden_digests(tmp_path) == json.loads(DIGESTS.read_text())
