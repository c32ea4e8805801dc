"""The names the benchmark in perfbench/ takes from eegauth still exist.

perfbench/ is not an installed package; its tracer uses only the standard
library, so it is loaded straight from its file.  A function deleted or
renamed in eegauth without the matching benchmark change fails here rather
than in a traced benchmark run.
"""

import importlib
import importlib.util
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
