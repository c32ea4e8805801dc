import json
import tracemalloc

import numpy as np
import pytest

from eegauth import synth
from eegauth.errors import ValidationError
from eegauth.features import extract_features
from eegauth.seeds import derive_seed
from eegauth.signal import random_segments, read_recording_csv
from eegauth.synth import COHORT_MANIFEST, CohortSpec, SubjectSignature, make_cohort, write_cohort

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

    @pytest.mark.parametrize("rate", [50.0, 80.0, float("nan")])
    def test_rate_at_or_below_twice_the_top_tone_rejected(self, rate):
        # the 40 Hz top tone would alias into the scored bands
        with pytest.raises(ValidationError, match="sample_rate_hz must exceed 80 Hz"):
            CohortSpec(sample_rate_hz=rate)

    def test_rate_just_above_twice_the_top_tone_accepted(self):
        assert CohortSpec(sample_rate_hz=80.5).sample_rate_hz == 80.5

    def test_signature_invariants(self):
        with pytest.raises(Exception):
            SubjectSignature("s", np.zeros((3, 5)), 0.1, 1.0)


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



def whole_matrix_tone_sum(magnitudes, omegas, phases, t):
    """The tone sum as one (tones, samples) matrix."""
    return (magnitudes[:, None] * np.cos(omegas[:, None] * t[None, :]
                                         + phases[:, None])).sum(axis=0)


class TestToneSum:
    @pytest.mark.parametrize("rate, duration", [(200.0, 7.3), (250.0, 8.0)])
    def test_recordings_equal_the_whole_matrix_sum(self, monkeypatch, rate, duration):
        # 1460 and 2000 samples: neither is a multiple of the block
        spec = CohortSpec(n_subjects=2, duration_s=duration, sample_rate_hz=rate, seed=4)
        assert round(duration * rate) % synth._TONE_BLOCK != 0
        blocked = make_cohort(spec)
        monkeypatch.setattr(synth, "_tone_sum", whole_matrix_tone_sum)
        for (sig_a, rec_a), (sig_b, rec_b) in zip(blocked, make_cohort(spec)):
            assert rec_a.samples.tobytes() == rec_b.samples.tobytes()
            assert sig_a.realized.tobytes() == sig_b.realized.tobytes()

    @pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 1025])
    def test_block_edges(self, n):
        rng = np.random.default_rng(n)
        args = (rng.exponential(size=9), rng.uniform(0, 250, 9),
                rng.uniform(0, 2 * np.pi, 9), np.arange(n) / 250.0)
        assert synth._tone_sum(*args).tobytes() == whole_matrix_tone_sum(*args).tobytes()

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
            segs = random_segments(recording, 100,
                                   derive_seed(spec.seed, "segments", signature.subject_id))
            mean = np.stack([extract_features(s) for s in segs]).mean(axis=0)
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
        write_cohort(spec, tmp_path)
        manifest = json.loads((tmp_path / COHORT_MANIFEST).read_text())
        assert manifest["n_subjects"] == 3
        assert len(manifest["subjects"]) == 3
        for entry in manifest["subjects"]:
            rec = read_recording_csv(tmp_path / f"{entry['subject_id']}.csv")
            assert rec.subject_id == entry["subject_id"]
            assert np.asarray(entry["realized"]).shape == (3, 5)

    def test_round_trip_preserves_samples(self, tmp_path):
        spec = CohortSpec(n_subjects=2, duration_s=8.0, seed=12)
        cohort = write_cohort(spec, tmp_path)
        for signature, recording in cohort:
            back = read_recording_csv(tmp_path / f"{signature.subject_id}.csv")
            assert np.allclose(back.samples, recording.samples, rtol=0, atol=0)
