import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eegauth.dataset import FeatureTable, assemble_user_dataset
from eegauth.features import segment_features
from eegauth.seeds import derive_seed
from eegauth.signal import bandpass_filter, random_segment_starts
from eegauth.synth import CohortSpec, make_cohort


def recordings_feature_table(recordings, n_segments: int, seed: int) -> FeatureTable:
    """n_segments random segments of each recording, featurized, as
    extract-features computes them with --seed seed."""
    tables = []
    for rec in recordings:
        starts = random_segment_starts(rec, n_segments,
                                       derive_seed(seed, "segments", rec.subject_id))
        tables.append(FeatureTable.for_subject(rec.subject_id,
                                               segment_features(rec, starts)))
    return FeatureTable.concatenate(tables)


def cohort_feature_table(spec: CohortSpec, n_segments: int,
                         filtered: bool = True) -> FeatureTable:
    """The features of every recording in the cohort, segments drawn with
    the cohort's seed."""
    recordings = [recording for _, recording in make_cohort(spec)]
    if filtered:
        recordings = [bandpass_filter(recording) for recording in recordings]
    return recordings_feature_table(recordings, n_segments, spec.seed)


def subject_rows(table: FeatureTable, subject: str) -> np.ndarray:
    """The feature rows of one subject, in order."""
    return table.X[table.subjects == subject]


def table_subjects(table: FeatureTable) -> list[str]:
    return sorted(set(table.subjects.tolist()))


def user_dataset(table: FeatureTable, owner: str, seed: int = 0):
    """The owner's balanced dataset, as evaluate-cohort assembles it."""
    own = table.subjects == owner
    return assemble_user_dataset(owner, table.X[own], table.rows(~own), seed)


@pytest.fixture(scope="session")
def small_separable_table():
    """6 subjects x 120 segments at default separability; quick to build."""
    spec = CohortSpec(n_subjects=6, seed=42)
    return cohort_feature_table(spec, 120)


@pytest.fixture(scope="session")
def small_chance_table():
    """5 clone subjects (zero separability, zero jitter): no identity signal."""
    spec = CohortSpec(n_subjects=5, seed=9, separability=0.0, intra_jitter=0.0)
    return cohort_feature_table(spec, 100)


@pytest.fixture(scope="session")
def separable_dataset(small_separable_table):
    return user_dataset(small_separable_table, "S01", seed=5)


# numpy's x86-64 dispatch levels, highest first, each with the name of its
# dispatch target: numpy 2.4 groups its targets by level, earlier numpy 2
# releases name the AVX-512 (Skylake) and AVX2 targets instead
LEVEL_TARGETS = {"X86_V4": ("X86_V4", "AVX512_SKX"), "X86_V3": ("X86_V3", "AVX2")}
LEVELS = (*LEVEL_TARGETS, "baseline")


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


def host_levels() -> tuple[str, ...]:
    """The levels this host can run: its own and every one below it."""
    return LEVELS[LEVELS.index(dispatch_level()):]


def disabled_above(level: str) -> list[str]:
    """The enabled dispatch targets above `level`: disabling them makes
    numpy run `level`'s code."""
    features, dispatch = cpu_features()
    start = 0 if level == "baseline" else dispatch.index(level_target(level, dispatch)) + 1
    return [name for name in dispatch[start:] if features[name]]


def run_under_level(level: str, code: str):
    """The JSON that python `code` prints last, run in a process where numpy
    runs `level`'s SIMD code and eegauth and the test modules import."""
    import eegauth
    path = (str(Path(eegauth.__file__).parents[1]), str(Path(__file__).parent))
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(disabled_above(level)),
           "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    return json.loads(done.stdout.strip().splitlines()[-1])
