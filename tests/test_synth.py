import json
import tracemalloc

import numpy as np
import pytest

from eegauth import synth
from eegauth.errors import ValidationError
from eegauth.features import segment_features
from eegauth.seeds import derive_seed
from eegauth.signal import random_segment_starts, read_recording_csv, segment_length
from eegauth.synth import (
    COHORT_MANIFEST,
    CohortSpec,
    SubjectSignature,
    make_cohort,
    write_cohort,
    write_cohort_manifest,
)

from conftest import cohort_feature_table, user_dataset


class TestCohortSpec:
    def test_defaults_mirror_reference_protocol(self):
        spec = CohortSpec()
        assert spec.n_subjects == 15
        assert spec.duration_s == 30.0
        assert spec.sample_rate_hz == 250.0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValidationError, match="at least 2 subjects"):
            CohortSpec(n_subjects=1)
        with pytest.raises(ValidationError, match="duration_s must be >= "):
            CohortSpec(duration_s=2.0)
        with pytest.raises(ValidationError, match="separability must be >= 0"):
            CohortSpec(separability=-0.5)
        with pytest.raises(ValidationError, match="intra_jitter must lie in "):
            CohortSpec(intra_jitter=1.5)

    @pytest.mark.parametrize("noise_floor", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_non_finite_or_negative_noise_floor_rejected(self, noise_floor):
        with pytest.raises(ValidationError, match="noise_floor must be "):
            CohortSpec(noise_floor=noise_floor)

    @pytest.mark.parametrize("rate", [50.0, 80.0, float("nan")])
    def test_rate_at_or_below_twice_the_top_tone_rejected(self, rate):
        # the 40 Hz top tone would alias into the scored bands
        with pytest.raises(ValidationError, match="sample_rate_hz must exceed 80 Hz"):
            CohortSpec(sample_rate_hz=rate)

    def test_rate_just_above_twice_the_top_tone_accepted(self):
        assert CohortSpec(sample_rate_hz=80.5).sample_rate_hz == 80.5

    def test_signature_invariants(self):
        with pytest.raises(Exception):
            SubjectSignature("s", np.zeros((3, 5)), np.ones((3, 5)))


class TestSubjectSignature:
    def test_valid_signature_accepted(self):
        signature = SubjectSignature("s", np.ones((3, 5)), [[2.0] * 5] * 3)
        assert signature.realized.shape == (3, 5)

    @pytest.mark.parametrize("bad", [0.0, float("nan"), float("inf")])
    def test_non_finite_or_non_positive_target_rejected(self, bad):
        targets = np.ones((3, 5))
        targets[2, 0] = bad
        with pytest.raises(ValidationError, match="targets must be finite and positive"):
            SubjectSignature("s", targets, np.ones((3, 5)))

    @pytest.mark.parametrize("shape", [(3, 4), (5, 3), (15,), ()])
    def test_realized_of_another_shape_rejected(self, shape):
        with pytest.raises(ValidationError, match="realized must be 3 channels x 5 bands"):
            SubjectSignature("s", np.ones((3, 5)), np.ones(shape))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_realized_rejected(self, bad):
        realized = np.ones((3, 5))
        realized[1, 2] = bad
        with pytest.raises(ValidationError, match="realized band powers must be finite"):
            SubjectSignature("s", np.ones((3, 5)), realized)


class TestMakeCohort:
    def test_shapes_and_duration(self):
        spec = CohortSpec(n_subjects=3, duration_s=10.0, seed=1)
        cohort = make_cohort(spec)
        assert len(cohort) == 3
        for signature, recording in cohort:
            assert recording.samples.shape == (3, 2500)
            assert signature.targets.shape == (3, 5)
            assert signature.realized.shape == (3, 5)

    def test_deterministic_bit_exact(self):
        spec = CohortSpec(n_subjects=3, duration_s=10.0, seed=42)
        a = make_cohort(spec)
        b = make_cohort(spec)
        for (_, ra), (_, rb) in zip(a, b):
            assert np.array_equal(ra.samples, rb.samples)

    def test_zero_separability_identical_targets(self):
        cohort = make_cohort(CohortSpec(n_subjects=4, duration_s=8.0, seed=3,
                                        separability=0.0))
        base = cohort[0][0].targets
        for signature, _ in cohort[1:]:
            assert np.array_equal(signature.targets, base)

    def test_zero_spread_cohort_is_clone_cohort(self):
        # identical spectral parameters must yield identical recordings, so a
        # zero-separability zero-jitter cohort carries no identity signal
        cohort = make_cohort(CohortSpec(n_subjects=4, duration_s=8.0, seed=5,
                                        separability=0.0, intra_jitter=0.0))
        base = cohort[0][1].samples
        for _, recording in cohort[1:]:
            assert np.array_equal(recording.samples, base)

    def test_default_cohort_recordings_differ(self):
        cohort = make_cohort(CohortSpec(n_subjects=3, duration_s=8.0, seed=6))
        assert not np.array_equal(cohort[0][1].samples, cohort[1][1].samples)

    def test_alpha_column_is_sum_of_halves(self):
        for signature, _ in make_cohort(CohortSpec(n_subjects=2, duration_s=8.0, seed=7)):
            for mat in (signature.targets, signature.realized):
                assert np.allclose(mat[:, 4], mat[:, 2] + mat[:, 3], rtol=1e-12)



def tone_part(monkeypatch, rate, duration, seed):
    """One channel's samples without the texture, and the (tones, amplitudes)
    drawn from the same generator."""
    monkeypatch.setattr(synth, "TEXTURE_POWER", 0.0)
    targets, n = np.asarray(synth.BASE_TARGETS), round(duration * rate)
    x, _ = synth._synth_channel(np.random.default_rng(seed), targets, 2.0, n, rate)
    tones, amps, _ = synth._tone_amplitudes(np.random.default_rng(seed), targets, 2.0, rate)
    return x, tones, amps


class TestToneSum:
    # 4 * 100.3 Hz is not an integer: the segment rounds to 401 samples
    CASES = [(250.0, 30.0), (200.0, 7.3), (100.3, 10.0)]

    @pytest.mark.parametrize("rate, duration", CASES)
    def test_equals_the_integer_reduced_formula(self, monkeypatch, rate, duration):
        # sum_k |a_k| cos(2 pi ((k n) mod L) / L + arg a_k) in long double: the
        # reduced argument is exact, so only the sum's own rounding remains
        x, tones, amps = tone_part(monkeypatch, rate, duration, seed=3)
        L = segment_length(rate)
        k = np.rint(tones * L / rate).astype(np.int64)
        assert np.allclose(k * rate / L, tones, rtol=0, atol=1e-9)
        n = np.arange(x.size, dtype=np.int64)
        arg = (2 * np.pi * ((k[:, None] * n[None, :]) % L).astype(np.longdouble) / L
               + np.angle(amps).astype(np.longdouble)[:, None])
        reference = (np.abs(amps).astype(np.longdouble)[:, None] * np.cos(arg)).sum(axis=0)
        err = float(np.abs(x - reference).max())
        assert err <= 1e-14 * np.abs(amps).sum(), err

    @pytest.mark.parametrize("rate, duration", CASES)
    def test_near_the_whole_matrix_formula(self, monkeypatch, rate, duration):
        # sum_i |a_i| cos(2 pi f_i t + arg a_i) over the (tones, samples)
        # matrix: its argument rounds worse as t grows
        x, tones, amps = tone_part(monkeypatch, rate, duration, seed=4)
        t = np.arange(x.size) / rate
        formula = (np.abs(amps)[:, None] * np.cos(2 * np.pi * tones[:, None] * t[None, :]
                                                   + np.angle(amps)[:, None])).sum(axis=0)
        err = float(np.abs(x - formula).max())
        assert err <= 1e-12 * np.abs(amps).sum(), err

    def test_long_recording_memory_is_bounded(self):
        # 300 s at 250 Hz: one whole (tones, samples) matrix alone is 52
        # times the recording's size
        spec = CohortSpec(n_subjects=2, duration_s=300.0, seed=1)
        recording_bytes = 3 * 75000 * 8
        tracemalloc.start()
        try:
            _, recording = synth.make_subject(spec, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert recording.samples.nbytes == recording_bytes
        assert peak < 4 * recording_bytes, peak


class TestFeatureRecovery:
    def test_features_recover_realized_targets(self):
        # segment-averaged measurements are the oracle check for extraction:
        # the generator's realized per-band powers must be read back
        spec = CohortSpec(n_subjects=3, seed=42)
        for signature, recording in make_cohort(spec):
            starts = random_segment_starts(
                recording, 100, derive_seed(spec.seed, "segments", signature.subject_id))
            mean = segment_features(recording, starts).mean(axis=0)
            targets = signature.realized.ravel()
            assert np.all(np.abs(mean - targets) / targets < 0.15)

    def test_separability_monotone_end_to_end(self):
        # averaged over cohort seeds, authentication accuracy must not drop
        # as the subject spread grows
        from eegauth import classifiers
        from eegauth.autoselect import evaluate_config
        from eegauth.dataset import stratified_kfold

        def mean_accuracy(separability):
            accs = []
            for seed in range(20):
                spec = CohortSpec(n_subjects=3, duration_s=8.0, seed=100 + seed,
                                  separability=separability, intra_jitter=0.0)
                table = cohort_feature_table(spec, 40, filtered=False)
                ds = user_dataset(table, "S01", seed=seed)
                split = stratified_kfold(ds, 4, seed)
                accuracy, _ = evaluate_config(
                    ds, "knn", classifiers.default_params("knn"), split, seed)
                accs.append(accuracy)
            return float(np.mean(accs))

        acc = [mean_accuracy(s) for s in (0.0, 0.5, 1.0)]
        assert acc[0] <= acc[1] + 0.02
        assert acc[1] <= acc[2] + 0.02
        assert acc[0] < 0.6 and acc[2] > 0.9


class TestWriteCohort:
    def test_directory_layout_and_manifest(self, tmp_path):
        spec = CohortSpec(n_subjects=3, duration_s=8.0, seed=11)
        written = write_cohort(spec, tmp_path, range(3))
        write_cohort_manifest(spec, tmp_path, [signature for signature, _ in written])
        manifest = json.loads((tmp_path / COHORT_MANIFEST).read_text())
        assert manifest["n_subjects"] == 3
        assert len(manifest["subjects"]) == 3
        for entry in manifest["subjects"]:
            # the spec's jitter and noise floor are kept once, at the top
            assert sorted(entry) == ["realized", "subject_id", "targets"]
            rec = read_recording_csv(tmp_path / f"{entry['subject_id']}.csv")
            assert rec.subject_id == entry["subject_id"]
            assert np.asarray(entry["realized"]).shape == (3, 5)

    def test_round_trip_preserves_samples(self, tmp_path):
        spec = CohortSpec(n_subjects=2, duration_s=8.0, seed=12)
        cohort = write_cohort(spec, tmp_path, range(2))
        for signature, recording in cohort:
            back = read_recording_csv(tmp_path / f"{signature.subject_id}.csv")
            assert np.allclose(back.samples, recording.samples, rtol=0, atol=0)

    def test_writes_only_the_named_subjects_and_no_manifest(self, tmp_path):
        spec = CohortSpec(n_subjects=3, duration_s=8.0, seed=13)
        written = write_cohort(spec, tmp_path, [1])
        assert [signature.subject_id for signature, _ in written] == ["S02"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["S02.csv", "S02.json"]
