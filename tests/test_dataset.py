import numpy as np
import pytest

from eegauth.dataset import (
    FEATURES_HEADER,
    Instance,
    LABEL_GENUINE,
    LABEL_UNLABELED,
    UserDataset,
    assemble_user_dataset,
    dataset_manifest,
    load_features_csv,
    save_features_csv,
    stratified_kfold,
)
from eegauth.errors import (
    ContaminationError,
    InsufficientPoolError,
    ParseError,
    SplitError,
    ValidationError,
)


def make_instances(subject, count, seed=0, label=LABEL_UNLABELED):
    rng = np.random.default_rng(seed)
    return [Instance(rng.exponential(5.0, 15), label, subject, i)
            for i in range(count)]


def make_pool(subjects, per_subject, seed=1):
    pool = []
    for si, subject in enumerate(subjects):
        pool.extend(make_instances(subject, per_subject, seed=seed + si))
    return pool


def as_dataset(owner, genuine, impostor):
    """UserDataset built straight from arrays of the given rows."""
    rows = genuine + impostor
    return UserDataset(owner, np.stack([i.features for i in rows]),
                       np.repeat([1.0, 0.0], [len(genuine), len(impostor)]),
                       [i.source_subject for i in rows],
                       [i.segment_index for i in rows])


def impostor_keys(ds):
    impostor = ds.y == 0.0
    return list(zip(ds.subjects[impostor].tolist(),
                    ds.segment_index[impostor].tolist()))


class TestInstance:
    def test_feature_length_enforced(self):
        with pytest.raises(ValidationError):
            Instance(np.ones(14), LABEL_GENUINE, "a", 0)

    def test_negative_feature_named(self):
        values = np.ones(15)
        values[7] = -0.5
        with pytest.raises(ValidationError, match="Cz_lalpha"):
            Instance(values, LABEL_GENUINE, "a", 0)

    def test_non_finite_rejected(self):
        values = np.ones(15)
        values[3] = np.nan
        with pytest.raises(ValidationError):
            Instance(values, LABEL_GENUINE, "a", 0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValidationError):
            Instance(np.ones(15), "maybe", "a", 0)


class TestAssembleUserDataset:
    def test_balanced_thousand_from_fifteen_subjects(self):
        own = make_instances("u01", 500)
        pool = make_pool([f"u{i:02d}" for i in range(2, 16)], 500)
        assert len(pool) == 7000
        ds = assemble_user_dataset("u01", own, pool, seed=4)
        assert ds.X.shape == (1000, 15)
        assert ds.y.dtype == np.float64
        assert int((ds.y == 1.0).sum()) == 500
        assert int((ds.y == 0.0).sum()) == 500

    def test_rows_are_own_then_canonical_impostors(self):
        own = make_instances("a", 20)
        pool = make_pool(["c", "b"], 20)
        ds = assemble_user_dataset("a", own, pool, seed=3)
        assert np.array_equal(ds.X[:20], np.stack([i.features for i in own]))
        assert np.array_equal(ds.y, np.repeat([1.0, 0.0], 20))
        assert ds.subjects[:20].tolist() == ["a"] * 20
        assert ds.segment_index[:20].tolist() == list(range(20))
        keys = impostor_keys(ds)
        assert keys == sorted(keys)  # drawn in canonical pool order
        by_key = {(i.source_subject, i.segment_index): i.features for i in pool}
        for row, key in zip(ds.X[20:], keys):
            assert np.array_equal(row, by_key[key])

    def test_two_subject_cohort_forced_source(self):
        own = make_instances("a", 50)
        pool = make_instances("b", 60)
        ds = assemble_user_dataset("a", own, pool, seed=1)
        assert ds.subjects[ds.y == 0.0].tolist() == ["b"] * 50

    def test_pool_below_required_size(self):
        own = make_instances("a", 500)
        pool = make_instances("b", 499)
        with pytest.raises(InsufficientPoolError):
            assemble_user_dataset("a", own, pool, seed=0)

    def test_owner_in_pool_rejected(self):
        own = make_instances("a", 10)
        pool = make_instances("b", 9) + make_instances("a", 1, seed=99)
        with pytest.raises(ContaminationError):
            assemble_user_dataset("a", own, pool, seed=0)

    def test_impostors_unique(self):
        own = make_instances("a", 100)
        pool = make_pool(["b", "c", "d"], 50)
        ds = assemble_user_dataset("a", own, pool, seed=7)
        keys = impostor_keys(ds)
        assert len(set(keys)) == len(keys) == 100

    def test_sampling_order_independent(self):
        own = make_instances("a", 40)
        pool = make_pool(["b", "c"], 40)
        ds1 = assemble_user_dataset("a", own, pool, seed=11)
        ds2 = assemble_user_dataset("a", own, list(reversed(pool)), seed=11)
        assert impostor_keys(ds1) == impostor_keys(ds2)
        assert np.array_equal(ds1.X, ds2.X)

    def test_deterministic_per_seed(self):
        own = make_instances("a", 40)
        pool = make_pool(["b", "c"], 40)
        one = assemble_user_dataset("a", own, pool, seed=5)
        two = assemble_user_dataset("a", own, pool, seed=5)
        other = assemble_user_dataset("a", own, pool, seed=6)
        assert impostor_keys(one) == impostor_keys(two)
        assert impostor_keys(one) != impostor_keys(other)

    def test_manifest_audits_sources(self):
        own = make_instances("a", 30)
        pool = make_pool(["c", "b"], 30)
        ds = assemble_user_dataset("a", own, pool, seed=5)
        manifest = dataset_manifest(ds, seed=5)
        assert manifest["owner"] == "a"
        assert manifest["seed"] == 5
        assert "a" not in manifest["impostor_sources"]
        assert manifest["impostor_sources"] == sorted(manifest["impostor_sources"])


class TestUserDatasetInvariants:
    def test_class_balance_required(self):
        genuine = make_instances("a", 3)
        impostor = make_instances("b", 2)
        with pytest.raises(ValidationError, match="class counts differ"):
            as_dataset("a", genuine, impostor)

    def test_impostor_owned_by_owner_rejected(self):
        genuine = make_instances("a", 2)
        impostor = make_instances("a", 2, seed=3)
        with pytest.raises(ContaminationError):
            as_dataset("a", genuine, impostor)

    def test_genuine_owned_by_other_rejected(self):
        genuine = make_instances("b", 2)
        impostor = make_instances("c", 2)
        with pytest.raises(ValidationError, match="not owned"):
            as_dataset("a", genuine, impostor)

    def test_duplicate_impostor_rejected(self):
        genuine = make_instances("a", 2)
        impostor = make_instances("b", 1) * 2
        with pytest.raises(ValidationError, match="duplicate"):
            as_dataset("a", genuine, impostor)

    def test_labels_must_be_genuine_or_impostor(self):
        ds = as_dataset("a", make_instances("a", 2), make_instances("b", 2))
        with pytest.raises(ValidationError, match="genuine or impostor"):
            UserDataset("a", ds.X, [1.0, 0.5, 0.0, 0.0], ds.subjects,
                        ds.segment_index)

    def test_row_counts_must_agree(self):
        ds = as_dataset("a", make_instances("a", 2), make_instances("b", 2))
        with pytest.raises(ValidationError, match="rows"):
            UserDataset("a", ds.X[:3], ds.y, ds.subjects, ds.segment_index)
        with pytest.raises(ValidationError, match="rows"):
            UserDataset("a", ds.X[:, :14], ds.y, ds.subjects, ds.segment_index)
        with pytest.raises(ValidationError, match="rows"):
            UserDataset("a", ds.X, ds.y, ds.subjects[:3], ds.segment_index)


class TestStratifiedKfold:
    def make_ds(self, n_per_class=500):
        own = make_instances("a", n_per_class)
        pool = make_instances("b", n_per_class)
        return assemble_user_dataset("a", own, pool, seed=2)

    def test_ten_folds_exact_split(self):
        ds = self.make_ds(500)
        split = stratified_kfold(ds, 10, seed=1)
        for fold in split.folds:
            assert len(fold) == 100
            assert (ds.y[fold] == 1.0).sum() == 50

    def test_three_folds_near_balance(self):
        ds = self.make_ds(500)
        split = stratified_kfold(ds, 3, seed=1)
        for fold in split.folds:
            genuine = (ds.y[fold] == 1.0).sum()
            impostor = (ds.y[fold] == 0.0).sum()
            assert abs(int(genuine) - 500 / 3) < 1
            assert abs(int(genuine) - int(impostor)) <= 1

    def test_folds_partition_indices(self):
        ds = self.make_ds(50)
        split = stratified_kfold(ds, 7, seed=3)
        merged = np.concatenate(split.folds)
        assert sorted(merged.tolist()) == list(range(100))

    def test_deterministic(self):
        ds = self.make_ds(50)
        one = stratified_kfold(ds, 5, seed=9)
        two = stratified_kfold(ds, 5, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(one.folds, two.folds))

    def test_k_out_of_range(self):
        ds = self.make_ds(10)
        with pytest.raises(SplitError):
            stratified_kfold(ds, 1, seed=0)
        with pytest.raises(SplitError):
            stratified_kfold(ds, 11, seed=0)


class TestFeaturesCsv:
    def test_round_trip_lossless(self, tmp_path):
        instances = make_instances("u1", 100, seed=3) + \
            make_instances("u2", 100, seed=4)
        path = tmp_path / "features.csv"
        save_features_csv(instances, path)
        back = load_features_csv(path)
        assert len(back) == 200
        for a, b in zip(instances, back):
            assert np.array_equal(a.features, b.features)
            assert (a.label, a.source_subject, a.segment_index) == \
                (b.label, b.source_subject, b.segment_index)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "features.csv"
        header = ",".join(c for c in FEATURES_HEADER if c != "Pz_alpha")
        path.write_text(header + "\n")
        with pytest.raises(ParseError, match="Pz_alpha"):
            load_features_csv(path)

    def test_negative_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "features.csv"
        row = ["s", "0", "genuine"] + ["1.0"] * 15
        row[3] = "-2.0"
        path.write_text(",".join(FEATURES_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ParseError, match=":2"):
            load_features_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(",".join(FEATURES_HEADER) + "\ns,0,genuine,1.0\n")
        with pytest.raises(ParseError, match="expected 18 fields"):
            load_features_csv(path)
