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
