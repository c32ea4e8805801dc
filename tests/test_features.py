import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegauth import features
from eegauth.errors import ValidationError
from eegauth.features import (
    BANDS,
    BLOCK_SEGMENTS,
    BandDef,
    FEATURE_NAMES,
    extract_features,
    segment_features,
)
from eegauth.signal import (
    CHANNELS,
    Recording,
    bandpass_filter,
    random_segment_starts,
    segment_length,
)
from eegauth.synth import CohortSpec, make_cohort

from scipy_reference import band_power, psd

FS = 250.0
BAND = {b.name: b for b in BANDS}


def make_segment(data, fs=FS):
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = np.tile(data, (3, 1))
    return Recording("t01", fs, CHANNELS, data)


def tone(freq, n=1000, fs=FS, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / fs)


def reference_features(data, fs=FS):
    """Per-channel psd + band_power, alpha as the sum of its halves: the
    per-segment computation the batched kernel must reproduce."""
    values = []
    for channel in data:
        freqs, density = psd(channel, fs)
        powers = [band_power(freqs, density, band) for band in BANDS[:4]]
        values += powers + [powers[2] + powers[3]]
    return np.array(values)


def block_features(block, fs=FS):
    """segment_features of each (3, L) segment of an (n, 3, L) block, laid
    end to end as one recording."""
    n, _, L = block.shape
    rec = Recording("t01", fs, CHANNELS, np.concatenate(list(block), axis=1))
    return segment_features(rec, np.arange(n) * L)


def assert_alpha_is_sum_of_halves(values):
    for ci in range(len(CHANNELS)):
        assert np.array_equal(values[:, ci * 5 + 4],
                              values[:, ci * 5 + 2] + values[:, ci * 5 + 3])


@pytest.fixture(scope="module")
def filtered_recording():
    _, recording = make_cohort(CohortSpec(n_subjects=2, seed=42))[0]
    return bandpass_filter(recording)


def test_features_do_not_depend_on_sample_layout(filtered_recording):
    rec = filtered_recording
    samples = rec.samples.copy()
    starts = random_segment_starts(rec, 500, seed=1)

    def features(layout):
        return segment_features(
            Recording(rec.subject_id, rec.sample_rate_hz, rec.channels, layout), starts)

    expected = features(samples)
    reversed_view = samples[:, ::-1].copy()[:, ::-1]
    row_strided = np.repeat(samples, 2, axis=0)[::2]
    for layout in (reversed_view, row_strided, np.asfortranarray(samples)):
        assert np.array_equal(features(layout), expected)
        segment = Recording(rec.subject_id, rec.sample_rate_hz, rec.channels,
                            layout[:, starts[0]:starts[0] + 1000])
        assert np.array_equal(extract_features(segment), expected[0])


class TestPsd:
    def test_zero_signal_gives_zero_density(self):
        freqs, density = psd(np.zeros(1000), FS)
        assert np.all(density == 0.0)
        assert freqs[0] == 0.0 and freqs[-1] == FS / 2

    def test_sinusoid_total_power(self):
        _, density = psd(tone(10.0), FS)
        freqs, _ = psd(tone(10.0), FS)
        df = freqs[1] - freqs[0]
        assert density.sum() * df == pytest.approx(0.5, rel=0.05)

    def test_white_noise_matches_variance(self):
        # Parseval: integrated density must track the direct variance estimate
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 1.3, size=1000)
        freqs, density = psd(x, FS)
        integrated = density.sum() * (freqs[1] - freqs[0])
        assert integrated == pytest.approx(np.var(x), rel=0.10)

    def test_too_short_input(self):
        with pytest.raises(ValidationError, match="need at least 1000 samples, got 999"):
            psd(np.zeros(999), FS)

    def test_density_non_negative(self):
        rng = np.random.default_rng(1)
        _, density = psd(rng.normal(size=2500), FS)
        assert np.all(density >= 0.0)


class TestBandPower:
    def test_tone_lands_in_theta_only(self):
        freqs, density = psd(tone(6.0), FS)
        assert band_power(freqs, density, BAND["theta"]) == pytest.approx(0.5, rel=0.05)
        for name in ("delta", "lalpha", "halpha"):
            assert band_power(freqs, density, BAND[name]) < 0.01

    def test_alpha_equals_union_of_halves(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            freqs, density = psd(rng.normal(size=1000), FS)
            alpha = band_power(freqs, density, BAND["alpha"])
            halves = (band_power(freqs, density, BAND["lalpha"])
                      + band_power(freqs, density, BAND["halpha"]))
            assert alpha == pytest.approx(halves, rel=1e-12)

    def test_flat_spectrum_equal_width_bands(self):
        # averaged over seeds, white noise puts equal power in delta and theta
        delta, theta = [], []
        for seed in range(100):
            x = np.random.default_rng(1000 + seed).normal(size=1000)
            freqs, density = psd(x, FS)
            delta.append(band_power(freqs, density, BAND["delta"]))
            theta.append(band_power(freqs, density, BAND["theta"]))
        analytic = 4.0 / (FS / 2.0)  # band width x flat density of unit variance
        assert np.mean(delta) == pytest.approx(analytic, rel=0.15)
        assert np.mean(theta) == pytest.approx(analytic, rel=0.15)
        assert np.mean(delta) == pytest.approx(np.mean(theta), rel=0.15)

    def test_band_beyond_nyquist_rejected(self):
        freqs, density = psd(np.zeros(1000), FS)
        with pytest.raises(ValidationError, match=r"band wide .* outside \[0, "):
            band_power(freqs, density, BandDef("wide", 0.0, 200.0))

    def test_empty_band_rejected(self):
        freqs, density = psd(np.zeros(1000), FS)
        with pytest.raises(ValidationError, match="band sliver covers no frequency bins"):
            band_power(freqs, density, BandDef("sliver", 3.1, 3.2))

    def test_band_def_ordering(self):
        with pytest.raises(ValidationError, match="band bad: lo 8.0 >= hi 4.0"):
            BandDef("bad", 8.0, 4.0)


class TestExtractFeatures:
    def test_zero_segment(self):
        values = extract_features(make_segment(np.zeros((3, 1000))))
        assert values.shape == (15,)
        assert np.all(values == 0.0)

    def test_single_channel_tone_localized(self):
        data = np.zeros((3, 1000))
        data[0] = tone(10.0)
        values = dict(zip(FEATURE_NAMES, extract_features(make_segment(data))))
        assert values["Fz_halpha"] == pytest.approx(0.5, rel=0.05)
        assert values["Fz_alpha"] == pytest.approx(0.5, rel=0.05)
        for name, v in values.items():
            if not name.startswith("Fz"):
                assert v < 0.01 * values["Fz_alpha"]

    def test_alpha_identity_exact(self):
        rng = np.random.default_rng(3)
        values = extract_features(make_segment(rng.normal(size=(3, 1000))))
        for ci in range(3):
            alpha = values[ci * 5 + 4]
            assert alpha == values[ci * 5 + 2] + values[ci * 5 + 3]

    def test_purity_bit_exact(self):
        rng = np.random.default_rng(5)
        seg = make_segment(rng.normal(size=(3, 1000)))
        a = extract_features(seg)
        b = extract_features(seg)
        assert np.array_equal(a, b)

    def test_scale_covariance(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(3, 1000))
        base = extract_features(make_segment(data))
        scaled = extract_features(make_segment(2.5 * data))
        assert np.allclose(scaled, 2.5 ** 2 * base, rtol=1e-9)

    def test_non_negative(self):
        rng = np.random.default_rng(8)
        values = extract_features(make_segment(rng.normal(size=(3, 1000))))
        assert np.all(values >= 0.0)

    def test_wrong_channels_rejected(self):
        seg = Recording("x", FS, ("Fz", "Cz", "Oz"), np.zeros((3, 1000)))
        with pytest.raises(ValidationError, match="recording carries channels"):
            extract_features(seg)

    @pytest.mark.parametrize("n_samples", [999, 1001, 2000])
    def test_recording_not_one_segment_long_rejected(self, n_samples):
        with pytest.raises(ValidationError,
                           match=rf"^segment must be channels x 1000, got \(3, {n_samples}\)$"):
            extract_features(make_segment(np.zeros((3, n_samples))))

    def test_feature_name_order(self):
        assert FEATURE_NAMES[:5] == ("Fz_delta", "Fz_theta", "Fz_lalpha",
                                     "Fz_halpha", "Fz_alpha")
        assert FEATURE_NAMES[10] == "Pz_delta"
        assert len(FEATURE_NAMES) == 15


class TestBandPowers:
    def test_blocks_equal_reference_bit_for_bit(self, filtered_recording):
        rec = filtered_recording
        starts = random_segment_starts(rec, 500, seed=3)
        L = segment_length(FS)
        reference = np.stack([reference_features(rec.samples[:, s:s + L])
                              for s in starts])
        assert_alpha_is_sum_of_halves(reference)
        for n in (0, 1, BLOCK_SEGMENTS - 1, BLOCK_SEGMENTS, BLOCK_SEGMENTS + 1, 500):
            values = segment_features(rec, starts[:n])
            assert values.shape == (n, len(FEATURE_NAMES))
            assert np.array_equal(values, reference[:n]), n
            assert_alpha_is_sum_of_halves(values)

    def test_one_segment_matches_extract_features(self, filtered_recording):
        rec = filtered_recording
        seg = Recording(rec.subject_id, FS, CHANNELS, rec.samples[:, 17:1017])
        assert np.array_equal(segment_features(rec, [17])[0], extract_features(seg))

    # 24 Hz: alpha's upper edge is the Nyquist frequency; 250.25 Hz: odd L
    @pytest.mark.parametrize("fs", [24.0, 128.0, 256.0, 250.25])
    def test_other_sample_rates(self, fs):
        L = segment_length(fs)
        data = np.random.default_rng(int(fs)).normal(size=(5, 3, L))
        values = block_features(data, fs)
        reference = np.stack([reference_features(seg, fs) for seg in data])
        assert np.array_equal(values, reference)
        assert_alpha_is_sum_of_halves(values)

    @pytest.mark.parametrize("fs", [16.0, 20.0])  # Nyquist 8 and 10 Hz
    def test_band_above_nyquist_rejected_as_before(self, fs):
        L = segment_length(fs)
        data = np.random.default_rng(0).normal(size=(3, L))
        with pytest.raises(ValidationError, match=r"\) outside \[0, "):
            reference_features(data, fs)
        with pytest.raises(ValidationError, match=r"\) outside \[0, "):
            extract_features(Recording("t01", fs, CHANNELS, data))
        with pytest.raises(ValidationError, match=r"\) outside \[0, "):
            segment_features(Recording("t01", fs, CHANNELS, data), [0])

    def test_empty_band_rejected(self, monkeypatch):
        monkeypatch.setattr(features, "BANDS",
                            (BandDef("sliver", 3.1, 3.2),) + BANDS[1:])
        with pytest.raises(ValidationError, match="band sliver covers no frequency bins"):
            segment_features(make_segment(np.zeros((3, 1000))), [0])

    def test_wrong_channels_rejected(self):
        rec = Recording("x", FS, ("Fz", "Cz", "Oz"), np.zeros((3, 2000)))
        with pytest.raises(ValidationError, match="recording carries channels"):
            segment_features(rec, [0])
        rec = Recording("x", FS, ("Fz", "Cz"), np.zeros((2, 2000)))
        with pytest.raises(ValidationError, match="recording carries channels"):
            segment_features(rec, [0])

    def test_wrong_length_or_start_rejected(self):
        rec = Recording("x", FS, CHANNELS, np.zeros((3, 2000)))
        for starts in ([-1], [1001], [[0]]):
            with pytest.raises(ValidationError):
                segment_features(rec, starts)
        with pytest.raises(ValidationError, match="need at least 1000 samples, got 999"):
            segment_features(Recording("x", FS, CHANNELS, np.zeros((3, 999))), [0])

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-6, 1e6), offset=st.floats(-1e3, 1e3))
    def test_property_equals_reference(self, n, seed, scale, offset):
        data = offset + scale * np.random.default_rng(seed).normal(size=(n, 3, 1000))
        values = block_features(data, FS)
        reference = np.stack([reference_features(seg) for seg in data])
        assert np.array_equal(values, reference)
        assert_alpha_is_sum_of_halves(values)
        assert np.all(values >= 0.0)

