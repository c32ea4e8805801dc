import numpy as np
import pytest

from eegauth.dataset import FeatureTable, Instance, LABEL_UNLABELED, assemble_user_dataset
from eegauth.features import extract_features
from eegauth.seeds import derive_seed
from eegauth.signal import bandpass_filter, random_segments
from eegauth.synth import CohortSpec, make_cohort


def cohort_feature_table(spec: CohortSpec, n_segments: int,
                         filtered: bool = True) -> dict[str, list[Instance]]:
    """subject_id -> extracted instances for every recording in the cohort."""
    table = {}
    cohort = make_cohort(spec)
    recordings = [recording for _, recording in cohort]
    if filtered:
        recordings = bandpass_filter(recordings)
    for (signature, _), rec in zip(cohort, recordings):
        seed = derive_seed(spec.seed, "segments", signature.subject_id)
        segments = random_segments(rec, n_segments, seed)
        table[signature.subject_id] = [
            Instance(extract_features(seg), LABEL_UNLABELED,
                     signature.subject_id, idx)
            for idx, seg in enumerate(segments)
        ]
    return table


def user_dataset(table: dict, owner: str, seed: int = 0):
    pool = FeatureTable.from_instances(inst for subject, rows in table.items()
                                       if subject != owner for inst in rows)
    own = np.stack([inst.features for inst in table[owner]])
    return assemble_user_dataset(owner, own, pool, seed)


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
