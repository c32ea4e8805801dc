import csv
import importlib.machinery
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eegauth import signal
from eegauth.errors import ValidationError
from eegauth.signal import (
    CHANNELS,
    DEFAULT_BAND,
    Recording,
    bandpass_filter,
    random_segment_starts,
    random_segments,
    read_recording_csv,
    segment_length,
    write_recording_csv,
)
from scipy_reference import scipy_design, settling_samples, sosfiltfilt_with

FS = 250.0


def make_recording(samples, subject="t01", fs=FS):
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = np.tile(samples, (3, 1))
    return Recording(subject, fs, CHANNELS, samples)


def tone(freq, n=7500, fs=FS, amp=1.0):
    return amp * np.sin(2 * np.pi * freq * np.arange(n) / fs)


class TestRecordingInvariants:
    def test_channel_count_must_match_rows(self):
        with pytest.raises(ValidationError):
            Recording("x", FS, CHANNELS, np.zeros((2, 100)))

    def test_unique_channel_labels(self):
        with pytest.raises(ValidationError):
            Recording("x", FS, ("Fz", "Fz", "Pz"), np.zeros((3, 100)))

    def test_positive_sample_rate(self):
        with pytest.raises(ValidationError):
            Recording("x", 0.0, CHANNELS, np.zeros((3, 100)))


class TestBandpassFilter:
    def test_dc_is_removed(self):
        rec = make_recording(np.ones(7500))
        out = bandpass_filter(rec, 0.5, 40.0)
        assert np.abs(out.samples).max() < 0.01

    def test_passband_tone_keeps_rms(self):
        rec = make_recording(tone(10.0))
        out = bandpass_filter(rec, 0.5, 40.0)
        in_rms = np.sqrt(np.mean(rec.samples[0] ** 2))
        out_rms = np.sqrt(np.mean(out.samples[0] ** 2))
        assert out_rms == pytest.approx(in_rms, rel=0.02)

    def test_stopband_attenuation_meets_analytic_gain(self):
        # steady-state response must reach the gain the design formula predicts
        rec = make_recording(tone(60.0))
        out = bandpass_filter(rec, 0.5, 40.0)
        from scipy.signal import butter, sosfreqz
        sos = butter(4, [0.5, 40.0], btype="bandpass", fs=FS, output="sos")
        settle = settling_samples(sos)
        core = slice(settle, 7500 - settle)
        ratio = (np.sqrt(np.mean(out.samples[0, core] ** 2))
                 / np.sqrt(np.mean(rec.samples[0, core] ** 2)))
        # forward and backward passes each apply |H|, so the gain is |H|^2
        _, h = sosfreqz(sos, worN=[60.0], fs=FS)
        predicted = float(abs(h[0]) ** 2)
        assert ratio <= predicted * 1.02

    def test_zero_phase(self):
        rec = make_recording(tone(10.0))
        out = bandpass_filter(rec, 0.5, 40.0)
        core = slice(1000, -1000)
        x, y = rec.samples[0, core], out.samples[0, core]
        cosine = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
        assert cosine > 1 - 1e-6

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=7500)
        a = 3.7
        lhs = bandpass_filter(make_recording(a * x), 0.5, 40.0).samples
        rhs = a * bandpass_filter(make_recording(x), 0.5, 40.0).samples
        assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)

    def test_shape_preserved(self):
        rec = make_recording(np.random.default_rng(0).normal(size=(3, 7500)))
        out = bandpass_filter(rec, 0.5, 40.0)
        assert out.samples.shape == rec.samples.shape
        assert out.channels == rec.channels

    def test_band_outside_nyquist_rejected(self):
        rec = make_recording(tone(10.0))
        with pytest.raises(ValidationError, match="invalid for Nyquist"):
            bandpass_filter(rec, 0.5, 130.0)
        with pytest.raises(ValidationError, match="invalid for Nyquist"):
            bandpass_filter(rec, 40.0, 0.5)

    def test_too_short_recording_rejected(self):
        rec = make_recording(tone(10.0, n=1000))
        with pytest.raises(ValidationError, match="needs more than 4383 for reflection padding"):
            bandpass_filter(rec, 0.5, 40.0)


# (band, sample rate): the default band, and another band at two rates
DESIGNS = [(DEFAULT_BAND, 250.0), ((1.0, 30.0), 250.0), ((1.0, 30.0), 128.0)]


def assert_matches_scipy(rec, out, band):
    # the design of the recording's rate, computed afresh, not memoised
    sos, zi, padlen = signal._filter_design.__wrapped__(*band, rec.sample_rate_hz)
    assert np.array_equal(out.samples, sosfiltfilt_with(sos, zi, padlen, rec.samples))


class TestFilterKernel:
    @settings(max_examples=20, deadline=None)
    @given(design=st.sampled_from(DESIGNS), data=st.data())
    def test_equals_scipy_sosfiltfilt(self, design, data):
        band, fs = design
        padlen = signal._filter_design(*band, fs)[2]
        length = st.one_of(st.sampled_from([padlen + 1, 3 * (padlen + 1)]),
                           st.integers(padlen + 1, 3 * (padlen + 1)))
        n_channels, n, exponent, seed = data.draw(st.tuples(
            st.integers(1, 50), length, st.floats(-6.0, 6.0), st.integers(0, 2 ** 32 - 1)))
        rec = Recording("s", fs, tuple(f"c{j}" for j in range(n_channels)),
                        10.0 ** exponent
                        * np.random.default_rng(seed).normal(size=(n_channels, n)))
        out = bandpass_filter(rec, *band)
        assert out.subject_id == rec.subject_id and out.channels == rec.channels
        assert out.samples.flags.c_contiguous
        assert_matches_scipy(rec, out, band)

    def test_reference_is_scipys_sosfiltfilt(self):
        # with scipy's own states, the reference is sosfiltfilt bit for bit
        from scipy.signal import sosfiltfilt
        x = np.random.default_rng(4).normal(size=(3, 7500))
        for band, fs in DESIGNS:
            sos, zi, padlen = scipy_design(*band, fs)
            assert np.array_equal(sosfiltfilt_with(sos, zi, padlen, x), sosfiltfilt(
                sos, x, axis=1, padtype="even", padlen=padlen))

    def test_mixed_rates_get_their_own_designs(self):
        # designs are memoised per (band, rate), so a rate must not reuse another's
        rng = np.random.default_rng(11)
        recordings = [make_recording(rng.normal(size=(3, 7500))),
                      make_recording(rng.normal(size=(3, 3840)), fs=128.0),
                      make_recording(rng.normal(size=(3, 7500)))]
        for rec in recordings:
            assert_matches_scipy(rec, bandpass_filter(rec, 1.0, 30.0), (1.0, 30.0))

    def test_short_recording_in_a_batch_rejected(self):
        # the design is memoised after a long recording; the length check is not
        assert bandpass_filter(make_recording(tone(10.0))).n_samples == 7500
        with pytest.raises(ValidationError, match="has 1000 samples; .* needs more than 4383"):
            bandpass_filter(make_recording(tone(10.0, n=1000)))


# Every 11th band of a grid at each rate: low edges 0.5-19.5 Hz and high
# edges up to 45 Hz, in 0.5 Hz steps
GRID = [(0.5 * i, 0.5 * j, fs) for fs in (250.0, 256.0, 500.0)
        for i in range(1, 40) for j in range(i + 1, 91)][::11]


class TestFilterDesign:
    def test_design_is_scipys_within_bounds(self):
        # scipy's sections depend on numpy's SIMD level and its states on the
        # BLAS kernel (LAPACK solves them), so neither is a bit-exact target
        for band in GRID + [(*DEFAULT_BAND, 250.0), (1.0, 30.0, 256.0)]:
            sos, zi, padlen = signal._filter_design(*band)
            ref_sos, ref_zi, ref_padlen = scipy_design(*band)
            assert sos.shape == (4, 6) and zi.shape == (4, 2)
            # row by row, so the sections come in scipy's order
            assert (abs(sos - ref_sos).max(axis=1)
                    <= 1e-14 * abs(ref_sos).max(axis=1)).all(), band
            assert abs(zi - ref_zi).max() <= 1e-11 * abs(ref_zi).max(), band
            assert padlen == ref_padlen, band

    def test_default_band_sections_are_the_former_table(self):
        # the default band's sections as a constant table held them, which
        # were scipy's butter output when the table was made
        table = [
            [0.021961263433741933, 0.043922526867483866, 0.021961263433741933,
             1.0, -0.6215552807265685, 0.1305843533436152],
            [1.0, 2.0, 1.0, 1.0, -0.8176588707461863, 0.5194597165945805],
            [1.0, -2.0, 1.0, 1.0, -1.976514489017057, 0.9766768504796793],
            [1.0, -2.0, 1.0, 1.0, -1.9904258738606502, 0.990584060251276],
        ]
        sos, _, padlen = signal._filter_design(*DEFAULT_BAND, 250.0)
        assert sos.tolist() == table
        assert padlen == 4383


class TestSosfiltLoader:
    @pytest.fixture
    def fresh_loader(self):
        yield
        signal._compiled_sosfilt.cache_clear()

    def test_fallback_equals_extension_file(self, fresh_loader, monkeypatch):
        rng = np.random.default_rng(5)
        recordings = [make_recording(rng.normal(size=(3, 7500))) for _ in range(2)]
        bands = [DEFAULT_BAND, (1.0, 30.0)]
        assert signal._compiled_sosfilt() is not None
        from_file = [[bandpass_filter(rec, *band) for rec in recordings] for band in bands]

        signal._compiled_sosfilt.cache_clear()
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        assert signal._compiled_sosfilt() is None  # scipy.signal.sosfilt runs
        for band, expected in zip(bands, from_file):
            for rec, ref in zip(recordings, expected):
                assert bandpass_filter(rec, *band).samples.tobytes() == ref.samples.tobytes()

    def test_scipy_signal_imports_after_the_extension_file(self):
        # the loader leaves scipy.signal._sosfilt in sys.modules without its
        # parent package; scipy.signal must still import and agree
        import eegauth
        code = textwrap.dedent("""
            import sys
            import numpy as np
            from eegauth.signal import Recording, bandpass_filter

            x = np.random.default_rng(2).normal(size=(3, 7500))
            out = bandpass_filter(Recording("s", 250.0, ("Fz", "Cz", "Pz"), x))
            assert "scipy.signal._sosfilt" in sys.modules
            assert "scipy.signal" not in sys.modules
            from scipy_reference import sosfiltfilt_with
            from eegauth.signal import _filter_design
            expected = sosfiltfilt_with(*_filter_design(0.5, 40.0, 250.0), x)
            assert "scipy.signal" in sys.modules
            assert np.array_equal(out.samples, expected)
            print("ok")
        """)
        path = (str(Path(eegauth.__file__).parents[1]), str(Path(__file__).parent))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "ok\n"


class TestRandomSegments:
    def test_counts_and_start_range(self):
        rec = make_recording(np.zeros(7500))
        segs = random_segments(rec, 500, seed=1)
        assert len(segs) == 500
        assert all(seg.samples.shape == (3, 1000) for seg in segs)
        starts = random_segment_starts(rec, 500, seed=1)
        assert starts.min() >= 0 and starts.max() <= 6500

    def test_single_valid_start(self):
        rec = make_recording(np.random.default_rng(2).normal(size=(3, 1000)))
        assert random_segment_starts(rec, 3, seed=2).tolist() == [0, 0, 0]
        assert all(np.array_equal(seg.samples, rec.samples)
                   for seg in random_segments(rec, 3, seed=2))

    def test_below_minimum_length(self):
        rec = make_recording(np.zeros(999))
        with pytest.raises(ValidationError, match="below segment length"):
            random_segments(rec, 1, seed=0)

    def test_deterministic(self):
        rec = make_recording(np.random.default_rng(1).normal(size=7500))
        a = random_segments(rec, 50, seed=9)
        b = random_segments(rec, 50, seed=9)
        assert all(np.array_equal(x.samples, y.samples) for x, y in zip(a, b))

    def test_starts_are_random_segment_starts(self):
        rec = make_recording(np.random.default_rng(3).normal(size=(3, 7500)))
        starts = random_segment_starts(rec, 50, seed=9)
        segs = random_segments(rec, 50, seed=9)
        assert all(np.array_equal(seg.samples, rec.samples[:, s:s + 1000])
                   for seg, s in zip(segs, starts))
        assert all((seg.subject_id, seg.sample_rate_hz, seg.channels)
                   == (rec.subject_id, rec.sample_rate_hz, rec.channels) for seg in segs)

    def test_data_copied_verbatim(self):
        rec = make_recording(np.random.default_rng(4).normal(size=(3, 2000)))
        seg = random_segments(rec, 1, seed=5)[0]
        start = int(random_segment_starts(rec, 1, seed=5)[0])
        expected = rec.samples[:, start:start + 1000]
        assert np.array_equal(seg.samples, expected)
        assert seg.samples.flags.c_contiguous
        original = rec.samples[0, start]
        seg.samples[0, 0] += 1.0  # mutating the copy must not touch the source
        assert rec.samples[0, start] == original
        assert seg.samples[0, 0] == original + 1.0

    def test_segment_length_rounding(self):
        assert segment_length(250.0) == 1000
        assert segment_length(128.0) == 512
        assert segment_length(99.9) == 400


class TestRecordingCsv:
    def test_round_trip(self, tmp_path):
        rec = make_recording(np.random.default_rng(8).normal(size=(3, 500)) * 40)
        path = tmp_path / "rec.csv"
        write_recording_csv(rec, path)
        back = read_recording_csv(path)
        assert back.subject_id == rec.subject_id
        assert back.sample_rate_hz == rec.sample_rate_hz
        assert np.allclose(back.samples, rec.samples, rtol=0, atol=0)

    @pytest.mark.parametrize("fs", [FS, 128.0])
    def test_bytes_match_csv_writer(self, tmp_path, fs):
        rng = np.random.default_rng(int(fs))
        samples = rng.normal(size=(3, 600)) * 10.0 ** rng.integers(-300, 300, size=(3, 600))
        samples[:, :6] = [[-2.5, 1e-300, 1e300, 7.0, -0.0, 0.1],
                          [-1e-300, -1e300, 0.0, -12.0, 5e-324, 1.7976931348623157e308],
                          [3.0, -0.25, 1e16, 123456789.0, 2.0 ** 53, -1.0 / 3.0]]
        rec = make_recording(samples, fs=fs)
        path = tmp_path / "rec.csv"
        write_recording_csv(rec, path)

        expected = io.StringIO(newline="")
        writer = csv.writer(expected)
        writer.writerow(("time_s",) + CHANNELS)
        times = np.arange(rec.n_samples) / rec.sample_rate_hz
        for i in range(rec.n_samples):
            writer.writerow([f"{times[i]:.6f}"] + [f"{v:.17g}" for v in rec.samples[:, i]])
        assert path.read_bytes() == expected.getvalue().encode()

    def test_missing_manifest_named(self, tmp_path):
        rec = make_recording(np.zeros((3, 100)))
        path = tmp_path / "rec.csv"
        write_recording_csv(rec, path)
        (tmp_path / "rec.json").unlink()
        with pytest.raises(ValidationError, match="rec.json"):
            read_recording_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("time_s,Fz,Cz\n0.0,1,2\n")
        (tmp_path / "rec.json").write_text('{"subject_id": "x", "sample_rate_hz": 250}')
        with pytest.raises(ValidationError, match="header"):
            read_recording_csv(path)

    @pytest.mark.parametrize("body, message", [
        ("0.0,1,2,3\n0.004,1,2\n", "columns changed"),
        ("0.0,1,2,3\n0.004,1,x,3\n", "could not convert"),
        ("0.0,1,2\n", "expected 4 fields, got 3"),
        ("", "no samples"),
    ], ids=["short-row", "non-numeric", "short-rows", "empty-body"])
    def test_bad_body_rejected(self, tmp_path, body, message):
        path = tmp_path / "rec.csv"
        path.write_text("time_s,Fz,Cz,Pz\n" + body)
        (tmp_path / "rec.json").write_text('{"subject_id": "x", "sample_rate_hz": 250}')
        with pytest.raises(ValidationError, match=f"rec.csv: .*{message}"):
            read_recording_csv(path)

    @pytest.mark.parametrize("raw, message", [
        (b"time_s,Fz,Cz,Pz\n0.0,1,\xff,3\n", "can't decode byte 0xff"),
        (b"\xfftime_s,Fz,Cz,Pz\n0.0,1,2,3\n", "can't decode byte 0xff"),
        # Python 3.10's csv module refuses NUL; later ones read a bad header
        (b"time_s,Fz\x00,Cz,Pz\n0.0,1,2,3\n", "NUL|expected header"),
    ], ids=["not-utf8-body", "not-utf8-header", "nul-in-header"])
    def test_undecodable_file_rejected(self, tmp_path, raw, message):
        path = tmp_path / "rec.csv"
        path.write_bytes(raw)
        (tmp_path / "rec.json").write_text('{"subject_id": "x", "sample_rate_hz": 250}')
        with pytest.raises(ValidationError, match=f"rec.csv: .*({message})"):
            read_recording_csv(path)

    def test_non_canonical_channels_rejected_on_write(self, tmp_path):
        rec = Recording("x", FS, ("A", "B", "C"), np.zeros((3, 10)))
        with pytest.raises(ValidationError, match="canonical CSV needs channels"):
            write_recording_csv(rec, tmp_path / "rec.csv")

