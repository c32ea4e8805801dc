import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegauth.dataset import (
    FEATURES_HEADER,
    READ_CHUNK_ROWS,
    FeatureTable,
    Instance,
    UserDataset,
    assemble_user_dataset,
    dataset_manifest,
    load_features_csv,
    read_feature_table,
    save_features_csv,
    stratified_kfold,
    write_feature_table,
)
from eegauth.errors import EegAuthError, ValidationError
from eegauth.features import FEATURE_NAMES


def make_instances(subject, count, seed=0):
    rng = np.random.default_rng(seed)
    return [Instance(rng.exponential(5.0, 15), subject, i)
            for i in range(count)]


def make_pool(subjects, per_subject, seed=1):
    pool = []
    for si, subject in enumerate(subjects):
        pool.extend(make_instances(subject, per_subject, seed=seed + si))
    return pool


def assemble(owner, own, pool, seed):
    """assemble_user_dataset of Instance rows."""
    return assemble_user_dataset(owner, np.stack([i.features for i in own]),
                                 FeatureTable.from_instances(pool), seed)


def reference_assemble(owner: str, own_instances, pool, seed: int) -> UserDataset:
    """assemble_user_dataset as it was over Instance lists, kept verbatim as
    the reference for the array version."""
    own = list(own_instances)
    if not own:
        raise ValidationError("owner has no instances")
    for inst in own:
        if inst.source_subject != owner:
            raise ValidationError(
                f"own instance sourced from {inst.source_subject}, not {owner}"
            )
    pool = list(pool)
    for inst in pool:
        if inst.source_subject == owner:
            raise ValidationError(f"pool contains instances of {owner}")
    n = len(own)
    if len(pool) < n:
        raise ValidationError(f"pool has {len(pool)} instances, need {n}")
    pool.sort(key=lambda i: (i.source_subject, i.segment_index))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(pool), size=n, replace=False)
    rows = own + [pool[int(j)] for j in sorted(chosen)]
    return UserDataset(owner,
                       np.stack([i.features for i in rows]),
                       np.repeat([1.0, 0.0], n),
                       [i.source_subject for i in rows],
                       [i.segment_index for i in rows])


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
            Instance(np.ones(14), "a", 0)

    def test_negative_feature_named(self):
        values = np.ones(15)
        values[7] = -0.5
        with pytest.raises(ValidationError, match="Cz_lalpha"):
            Instance(values, "a", 0)

    def test_non_finite_rejected(self):
        values = np.ones(15)
        values[3] = np.nan
        with pytest.raises(ValidationError):
            Instance(values, "a", 0)


class TestAssembleUserDataset:
    def test_balanced_thousand_from_fifteen_subjects(self):
        own = make_instances("u01", 500)
        pool = make_pool([f"u{i:02d}" for i in range(2, 16)], 500)
        assert len(pool) == 7000
        ds = assemble("u01", own, pool, seed=4)
        assert ds.X.shape == (1000, 15)
        assert ds.y.dtype == np.float64
        assert int((ds.y == 1.0).sum()) == 500
        assert int((ds.y == 0.0).sum()) == 500

    def test_rows_are_own_then_canonical_impostors(self):
        own = make_instances("a", 20)
        pool = make_pool(["c", "b"], 20)
        ds = assemble("a", own, pool, seed=3)
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
        ds = assemble("a", own, pool, seed=1)
        assert ds.subjects[ds.y == 0.0].tolist() == ["b"] * 50

    def test_pool_below_required_size(self):
        own = make_instances("a", 500)
        pool = make_instances("b", 499)
        with pytest.raises(ValidationError, match="pool has 499 instances, need 500"):
            assemble("a", own, pool, seed=0)

    def test_owner_in_pool_rejected(self):
        own = make_instances("a", 10)
        pool = make_instances("b", 9) + make_instances("a", 1, seed=99)
        with pytest.raises(ValidationError, match="pool contains instances of a"):
            assemble("a", own, pool, seed=0)

    def test_impostors_unique(self):
        own = make_instances("a", 100)
        pool = make_pool(["b", "c", "d"], 50)
        ds = assemble("a", own, pool, seed=7)
        keys = impostor_keys(ds)
        assert len(set(keys)) == len(keys) == 100

    def test_sampling_order_independent(self):
        own = make_instances("a", 40)
        pool = make_pool(["b", "c"], 40)
        ds1 = assemble("a", own, pool, seed=11)
        ds2 = assemble("a", own, list(reversed(pool)), seed=11)
        assert impostor_keys(ds1) == impostor_keys(ds2)
        assert np.array_equal(ds1.X, ds2.X)

    def test_deterministic_per_seed(self):
        own = make_instances("a", 40)
        pool = make_pool(["b", "c"], 40)
        one = assemble("a", own, pool, seed=5)
        two = assemble("a", own, pool, seed=5)
        other = assemble("a", own, pool, seed=6)
        assert impostor_keys(one) == impostor_keys(two)
        assert impostor_keys(one) != impostor_keys(other)

    def test_manifest_audits_sources(self):
        own = make_instances("a", 30)
        pool = make_pool(["c", "b"], 30)
        ds = assemble("a", own, pool, seed=5)
        manifest = dataset_manifest(ds, seed=5)
        assert manifest["owner"] == "a"
        assert manifest["seed"] == 5
        assert "a" not in manifest["impostor_sources"]
        assert manifest["impostor_sources"] == sorted(manifest["impostor_sources"])

    def test_owner_rows_checked(self):
        pool = FeatureTable.from_instances(make_instances("b", 10))
        with pytest.raises(ValidationError, match="no instances"):
            assemble_user_dataset("a", np.empty((0, 15)), pool, seed=0)
        with pytest.raises(ValidationError, match="15 features"):
            assemble_user_dataset("a", np.ones((3, 14)), pool, seed=0)
        with pytest.raises(ValidationError, match="negative"):
            assemble_user_dataset("a", -np.ones((3, 15)), pool, seed=0)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_equals_instance_reference_on_shuffled_pools(self, data):
        # subject names whose code-point order differs from a naive one, and
        # repeated (subject, segment_index) keys, which a stable order keeps
        # in pool order
        keys = data.draw(st.lists(
            st.tuples(st.sampled_from(["b", "B", "b2", "b10", "c", "bb"]),
                      st.integers(0, 12)), max_size=40))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rng = np.random.default_rng(seed)
        pool = [Instance(rng.exponential(5.0, 15), subject, index)
                for subject, index in keys]
        if data.draw(st.integers(0, 4)) == 0:
            pool += make_instances("a", 1, seed=seed + 1)
        pool = data.draw(st.permutations(pool))
        own = make_instances("a", data.draw(st.integers(1, 10)), seed=seed)
        try:
            expected = reference_assemble("a", own, pool, seed)
        except EegAuthError as exc:
            with pytest.raises(type(exc)):
                assemble("a", own, pool, seed)
            return
        ds = assemble("a", own, pool, seed)
        assert np.array_equal(ds.X, expected.X)
        assert ds.subjects.tolist() == expected.subjects.tolist()
        assert ds.segment_index.tolist() == expected.segment_index.tolist()
        assert np.array_equal(ds.y, expected.y)
        assert "a" not in ds.subjects[ds.y == 0.0].tolist()


class TestUserDatasetInvariants:
    def test_class_balance_required(self):
        genuine = make_instances("a", 3)
        impostor = make_instances("b", 2)
        with pytest.raises(ValidationError, match="class counts differ"):
            as_dataset("a", genuine, impostor)

    def test_impostor_owned_by_owner_rejected(self):
        genuine = make_instances("a", 2)
        impostor = make_instances("a", 2, seed=3)
        with pytest.raises(ValidationError, match="impostor instance owned by dataset owner"):
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
        return assemble("a", own, pool, seed=2)

    def test_ten_folds_exact_split(self):
        ds = self.make_ds(500)
        split = stratified_kfold(ds, 10, seed=1)
        for fold in split:
            assert len(fold) == 100
            assert (ds.y[fold] == 1.0).sum() == 50

    def test_three_folds_near_balance(self):
        ds = self.make_ds(500)
        split = stratified_kfold(ds, 3, seed=1)
        for fold in split:
            genuine = (ds.y[fold] == 1.0).sum()
            impostor = (ds.y[fold] == 0.0).sum()
            assert abs(int(genuine) - 500 / 3) < 1
            assert abs(int(genuine) - int(impostor)) <= 1

    def test_folds_partition_indices(self):
        ds = self.make_ds(50)
        split = stratified_kfold(ds, 7, seed=3)
        merged = np.concatenate(split)
        assert sorted(merged.tolist()) == list(range(100))

    def test_deterministic(self):
        ds = self.make_ds(50)
        one = stratified_kfold(ds, 5, seed=9)
        two = stratified_kfold(ds, 5, seed=9)
        assert all(np.array_equal(a, b) for a, b in zip(one, two))

    def test_k_out_of_range(self):
        ds = self.make_ds(10)
        with pytest.raises(ValidationError, match="k=1 invalid"):
            stratified_kfold(ds, 1, seed=0)
        with pytest.raises(ValidationError, match="k=11 invalid"):
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
            assert (a.source_subject, a.segment_index) == \
                (b.source_subject, b.segment_index)
        with open(path, newline="") as fh:
            assert {len(row) for row in csv.reader(fh)} == {17}

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "features.csv"
        header = ",".join(c for c in FEATURES_HEADER if c != "Pz_alpha")
        path.write_text(header + "\n")
        with pytest.raises(ValidationError, match="Pz_alpha"):
            load_features_csv(path)

    def test_negative_value_rejected_with_line(self, tmp_path):
        path = tmp_path / "features.csv"
        row = ["s", "0"] + ["1.0"] * 15
        row[2] = "-2.0"
        path.write_text(",".join(FEATURES_HEADER) + "\n" + ",".join(row) + "\n")
        with pytest.raises(ValidationError, match=":2"):
            load_features_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "features.csv"
        path.write_text(",".join(FEATURES_HEADER) + "\ns,0,1.0\n")
        with pytest.raises(ValidationError, match="expected 17 fields"):
            load_features_csv(path)


GOOD_ROW = ["s", "0"] + ["1.5"] * 15
BAD_ROWS = {
    "short": (GOOD_ROW[:3], "expected 17 fields, got 3"),
    "long": (GOOD_ROW + ["1.0"], "expected 17 fields, got 18"),
    "non-numeric": (GOOD_ROW[:4] + ["abc"] + GOOD_ROW[5:],
                    "could not convert string to float: 'abc'"),
    "index": (["s", "x"] + GOOD_ROW[2:], "invalid literal for int"),
    "index range": (["s", str(2 ** 63)] + GOOD_ROW[2:], "too large"),
    "nan": (GOOD_ROW[:-1] + ["nan"], "non-finite"),
    "negative": (GOOD_ROW[:3] + ["-1.0"] + GOOD_ROW[4:],
                 "negative band power in feature Fz_theta"),
}


class TestReadFeatureTable:
    def write(self, path, *rows):
        path.write_text("\n".join(",".join(r) for r in (FEATURES_HEADER,) + rows) + "\n")
        return path

    def test_columns_equal_instance_rows(self, tmp_path):
        instances = make_instances("u2", 30, seed=4) + make_instances("u1", 20, seed=3)
        path = tmp_path / "features.csv"
        save_features_csv(instances, path)
        table = read_feature_table(path)
        assert table.X.shape == (50, 15)
        assert np.array_equal(table.X, np.stack([i.features for i in instances]))
        assert table.subjects.tolist() == [i.source_subject for i in instances]
        assert table.segment_index.tolist() == [i.segment_index for i in instances]
        copy = tmp_path / "copy.csv"
        write_feature_table(table, copy)
        assert copy.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("n", [0, 1, 40, READ_CHUNK_ROWS - 1, READ_CHUNK_ROWS,
                                   READ_CHUNK_ROWS + 1, 2 * READ_CHUNK_ROWS + 1])
    def test_bytes_match_csv_writer(self, tmp_path, n):
        # subjects csv.writer quotes ("a,b", 'q"t', "l\nm"), writes as nothing
        # (""), or leaves bare (" s", "é"); a one-field row would read '""'
        rng = np.random.default_rng(n)
        subjects = ["", "a,b", 'q"t', "l\nm", " s", "é", "S01"]
        X = rng.exponential(5.0, (n, 15)) * 10.0 ** rng.integers(-300, 300, (n, 15))
        X.flat[:min(X.size, 8)] = [0.0, 5e-324, 1e-300, 1e300, 7.0, 2.0 ** 53,
                                    1e16, 123456789.0][:X.size]
        table = FeatureTable([subjects[i % len(subjects)] for i in range(n)],
                             rng.integers(0, 2 ** 40, n), X)
        path = tmp_path / "features.csv"
        write_feature_table(table, path)

        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(FEATURES_HEADER)
            for i in range(n):
                writer.writerow([table.subjects[i], int(table.segment_index[i])]
                                + [f"{v:.17g}" for v in table.X[i]])
        assert path.read_bytes() == expected.read_bytes()

        back = read_feature_table(path)
        for name in ("subjects", "segment_index", "X"):
            assert np.array_equal(getattr(back, name), getattr(table, name)), name

    def test_label_column_of_older_files_refused(self, tmp_path):
        # files of older versions held a label column after segment_index
        header = ("subject", "segment_index", "label") + FEATURE_NAMES
        path = tmp_path / "features.csv"
        path.write_text(",".join(header) + "\n" + ",".join(
            GOOD_ROW[:2] + ["unlabeled"] + GOOD_ROW[2:]) + "\n")
        for reader in (read_feature_table, load_features_csv):
            with pytest.raises(ValidationError,
                               match=f"^{path}: unexpected header subject,segment_index,label,"):
                reader(path)

    def test_empty_body_is_empty_table(self, tmp_path):
        table = read_feature_table(self.write(tmp_path / "features.csv"))
        assert len(table) == 0
        assert table.X.shape == (0, 15)

    def rows(self, n):
        """n good rows of subject s, segment_index 0..n-1."""
        return [["s", str(i)] + GOOD_ROW[2:] for i in range(n)]

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    @pytest.mark.parametrize("at", [READ_CHUNK_ROWS - 1, READ_CHUNK_ROWS,
                                    2 * READ_CHUNK_ROWS + 7])
    def test_bad_row_past_first_chunk_named(self, tmp_path, kind, at):
        # `at` good rows come first, so the bad one is on line at + 2
        row, message = BAD_ROWS[kind]
        later = BAD_ROWS["long" if kind != "long" else "short"][0]
        path = self.write(tmp_path / "features.csv", *self.rows(at), row, later)
        for reader in (read_feature_table, load_features_csv):
            with pytest.raises(ValidationError, match=f"features.csv:{at + 2}: .*{message}"):
                reader(path)

    def test_blank_line_in_mid_file_refused(self, tmp_path):
        for at in (3, READ_CHUNK_ROWS + 3):
            path = self.write(tmp_path / "features.csv", *self.rows(at), [],
                              *self.rows(2 * READ_CHUNK_ROWS)[at:])
            with pytest.raises(ValidationError,
                               match=f"^{path}:{at + 2}: expected 17 fields, got 0$"):
                read_feature_table(path)

    def test_repeated_key_past_first_chunk_named(self, tmp_path):
        # segment_index 1, 2 and 3 are on lines 3, 4 and 5; past the first
        # chunk 3 repeats on line b, 1 on b + 50 and 2 on b + 100, so line b
        # is the first row whose key an earlier row has
        b = READ_CHUNK_ROWS + 90
        rows = self.rows(READ_CHUNK_ROWS + 200)
        for line, segment in ((b, 3), (b + 50, 1), (b + 100, 2)):
            rows[line - 2] = ["s", str(segment)] + GOOD_ROW[2:]
        path = self.write(tmp_path / "features.csv", *rows)
        with pytest.raises(ValidationError,
                           match=f"^{path}:{b}: subject s segment_index 3 repeats line 5$"):
            read_feature_table(path)
        rows[b - 2] = ["s", str(b - 2)] + GOOD_ROW[2:]
        path = self.write(tmp_path / "features.csv", *rows)
        with pytest.raises(ValidationError, match=f"^{path}:{b + 50}: subject s "
                                                  f"segment_index 1 repeats line 3$"):
            read_feature_table(path)

    def test_rows_after_a_line_break_in_a_subject_named_by_line(self, tmp_path):
        # the quoted subject "S\n01" spans lines 2 and 3, so the rows after
        # it start on lines 4 and 5
        body = ['"S\n01"', "0"] + GOOD_ROW[2:]
        first = ["S02", "0"] + GOOD_ROW[2:]
        path = self.write(tmp_path / "nl.csv", body, first,
                          ["S02", "1", "-2.0"] + GOOD_ROW[3:])
        for reader in (read_feature_table, load_features_csv):
            with pytest.raises(ValidationError, match=f"^{path}:5: .*negative band power"):
                reader(path)
        path = self.write(tmp_path / "nl.csv", body, first, first)
        with pytest.raises(ValidationError,
                           match=f"^{path}:5: subject S02 segment_index 0 repeats line 4$"):
            read_feature_table(path)
        path = self.write(tmp_path / "nl.csv", body, first, GOOD_ROW[:3])
        with pytest.raises(ValidationError, match=f"^{path}:5: expected 17 fields, got 3$"):
            read_feature_table(path)

    @pytest.mark.parametrize("kind", sorted(BAD_ROWS))
    def test_first_bad_row_named(self, tmp_path, kind):
        row, message = BAD_ROWS[kind]
        later = BAD_ROWS["long" if kind != "long" else "short"][0]
        path = self.write(tmp_path / "features.csv", GOOD_ROW, GOOD_ROW, row, later)
        for reader in (read_feature_table, load_features_csv):
            with pytest.raises(ValidationError, match=f"features.csv:4: .*{message}"):
                reader(path)
