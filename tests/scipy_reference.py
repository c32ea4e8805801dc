"""Reference computations built from scipy's public functions, which the
package's own kernels are tested against bit for bit.

`psd` + `band_power` are the per-channel Welch estimate that
`features.segment_features` reproduces with one rfft per block; `scipy_extract`
writes the feature CSV `extract-features` writes, without any of its kernels.
"""

import csv
from pathlib import Path

import numpy as np

from eegauth.dataset import FEATURES_HEADER
from eegauth.errors import ValidationError
from eegauth.features import BANDS, BandDef, _band_bins
from eegauth.seeds import derive_seed
from eegauth.signal import (Recording, filter_settling_samples, random_segment_starts,
                            read_recording_csv, segment_length)


def psd(channel_data: np.ndarray, sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided power spectral density in uV^2/Hz on a uniform grid.

    Averaged rectangular-window periodograms of segment-length windows with
    50% overlap; a canonical 4 s input is a single full-length periodogram at
    0.25 Hz resolution.  The rectangular window keeps integer-hertz tones in
    exactly one bin, so band boundaries at integer frequencies never split a
    tone's power.  Parseval holds exactly: sum(density) * df == mean square.
    """
    from scipy import signal as _sps
    x = np.asarray(channel_data, dtype=float)
    if x.ndim != 1:
        raise ValueError("channel_data must be one-dimensional")
    nperseg = segment_length(sample_rate_hz)
    if x.size < nperseg:
        raise ValidationError(f"need at least {nperseg} samples, got {x.size}")
    return _sps.welch(x, fs=sample_rate_hz, window="boxcar", nperseg=nperseg,
                      noverlap=nperseg // 2, detrend=False, scaling="density")


def band_power(freqs: np.ndarray, density: np.ndarray, band: BandDef) -> float:
    """Integrated density over lo <= f < hi (half-open), in uV^2."""
    freqs = np.asarray(freqs, dtype=float)
    density = np.asarray(density, dtype=float)
    bins = _band_bins(freqs, band)
    df = freqs[1] - freqs[0]
    return float(density[bins].sum() * df)


def scipy_extract(cohort: Path, lo: float, hi: float, segments: int, seed: int,
                  out: Path) -> None:
    """What extract-features writes, built without its kernels: scipy's own
    sosfiltfilt, Welch's psd + band_power per segment and channel, and plain
    csv.writer rows."""
    from scipy.signal import butter, sosfiltfilt

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FEATURES_HEADER)
        for path in sorted(cohort.glob("*.csv")):
            rec = read_recording_csv(path)
            fs = rec.sample_rate_hz
            sos = butter(4, [lo, hi], btype="bandpass", fs=fs, output="sos")
            padlen = 3 * filter_settling_samples(sos)
            filtered = Recording(rec.subject_id, fs, rec.channels,
                                 sosfiltfilt(sos, rec.samples, axis=1, padtype="even",
                                             padlen=padlen))
            starts = random_segment_starts(filtered, segments,
                                           derive_seed(seed, "segments", rec.subject_id))
            L = segment_length(fs)
            for index, start in enumerate(starts):
                values = []
                for channel in filtered.samples[:, start:start + L]:
                    freqs, density = psd(channel, fs)
                    powers = [band_power(freqs, density, band) for band in BANDS[:4]]
                    values += powers + [powers[2] + powers[3]]  # alpha: its halves
                writer.writerow([rec.subject_id, index] + [f"{v:.17g}" for v in values])
