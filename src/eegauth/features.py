"""Power spectral density estimation and the 15-value band-power feature set.

Features are band powers (microvolts squared) of five bands on three channels,
in the fixed order Fz_delta ... Pz_alpha.  The alpha band [8, 12) is exactly
the union of its half-open halves, and the feature builder computes it as
their sum so the identity holds bit-exactly.

`segment_features` computes the features of one recording's segments, a
block of them per rfft: every segment is a single full-length
rectangular-window periodogram.  It takes one recording and keeps no state
between calls, so each recording's features depend on its own samples only.
It reproduces scipy's Welch estimate with a boxcar window and one band sum
per channel (the reference in tests/scipy_reference.py) bit for bit:

- the input is scaled by 1/sqrt(L * fs) before the transform, as scipy folds
  the density scaling into the window, so every product is rounded the same;
- only the bins below the top band edge are squared, doubled (all but DC)
  and summed.  Bands are half-open and end at or below the last bin's
  frequency, so they never reach the last bin: for even L that is the
  Nyquist bin, which the one-sided estimate does not double;
- each band is summed over a contiguous slice of the last axis.  That slice
  is the innermost, unit-stride axis, so numpy reduces each row with the same
  pairwise summation it applies to the 1-D band of a single channel.  A
  boolean-mask gather over the block would lay the band out differently and
  sum it in another order, changing the last bit of many values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .signal import CHANNELS, Recording, segment_length


@dataclass(frozen=True)
class BandDef:
    name: str
    lo_hz: float
    hi_hz: float

    def __post_init__(self):
        if not self.lo_hz < self.hi_hz:
            raise ValidationError(f"band {self.name}: lo {self.lo_hz} >= hi {self.hi_hz}")


BANDS = (
    BandDef("delta", 0.0, 4.0),
    BandDef("theta", 4.0, 8.0),
    BandDef("lalpha", 8.0, 10.0),
    BandDef("halpha", 10.0, 12.0),
    BandDef("alpha", 8.0, 12.0),
)

BAND_NAMES = tuple(b.name for b in BANDS)

FEATURE_NAMES = tuple(f"{ch}_{band}" for ch in CHANNELS for band in BAND_NAMES)
N_FEATURES = len(FEATURE_NAMES)

# Segments per rfft in segment_features: enough to amortise numpy's per-call
# cost, few enough that a block's buffer and spectrum stay near 1.5 MB each
# (a whole 500-segment recording at once raises peak memory by ~35 MB).
BLOCK_SEGMENTS = 64


def _band_bins(freqs: np.ndarray, band: BandDef) -> slice:
    """The bins lo <= f < hi of an ascending frequency grid, as a slice."""
    nyquist = freqs[-1]
    if band.lo_hz < 0 or band.hi_hz > nyquist:
        raise ValidationError(
            f"band {band.name} [{band.lo_hz}, {band.hi_hz}) outside [0, {nyquist}]"
        )
    lo, hi = np.searchsorted(freqs, [band.lo_hz, band.hi_hz])
    if lo == hi:
        raise ValidationError(f"band {band.name} covers no frequency bins")
    return slice(int(lo), int(hi))


def segment_features(rec: Recording, starts) -> np.ndarray:
    """Band powers of the segments of rec that begin at `starts`, as
    (len(starts), 15) in FEATURE_NAMES order; bit-identical to Welch's
    estimate per channel.

    Segments are copied and scaled into one block buffer, allocated once per
    call and refilled BLOCK_SEGMENTS at a time: a block's copy allocates
    nothing, so the speed of a call does not hinge on the heap state earlier
    stages left.
    """
    if rec.channels != CHANNELS:
        raise ValidationError(
            f"recording carries channels {rec.channels}, expected {CHANNELS}"
        )
    fs = rec.sample_rate_hz
    L = segment_length(fs)
    if rec.n_samples < L:
        raise ValidationError(f"need at least {L} samples, got {rec.n_samples}")
    starts = np.asarray(starts, dtype=np.intp)
    if starts.ndim != 1 or not ((starts >= 0) & (starts <= rec.n_samples - L)).all():
        raise ValidationError(f"segment starts must lie in [0, {rec.n_samples - L}]")
    freqs = np.fft.rfftfreq(L, 1.0 / fs)
    bins = [_band_bins(freqs, b) for b in BANDS[:4]]
    top = max(b.stop for b in bins)  # below the last bin, which _band_bins keeps out
    df = freqs[1] - freqs[0]
    scale = 1.0 / np.sqrt(L * fs)

    block = np.empty((min(BLOCK_SEGMENTS, len(starts)), len(CHANNELS), L))
    powers = np.empty((len(starts), len(CHANNELS), len(BANDS)))
    for at in range(0, len(starts), BLOCK_SEGMENTS):
        chunk = starts[at:at + BLOCK_SEGMENTS]
        scaled = block[:len(chunk)]
        for segment, s in zip(scaled, chunk):
            segment[...] = rec.samples[:, s:s + L]
        np.multiply(scaled, scale, out=scaled)
        spectrum = np.fft.rfft(scaled)[..., :top]
        density = spectrum.real ** 2 + spectrum.imag ** 2
        density[..., 1:] *= 2.0  # one-sided: every bin but DC
        for bi, band_bins in enumerate(bins):
            powers[at:at + len(chunk), :, bi] = density[..., band_bins].sum(axis=-1) * df
    # alpha is the union of its half-open halves; computing it as the sum
    # keeps the identity exact.
    powers[..., 4] = powers[..., 2] + powers[..., 3]
    return powers.reshape(len(starts), N_FEATURES)


def extract_features(seg: Recording) -> np.ndarray:
    """The 15 band powers of a recording exactly one segment long, in
    FEATURE_NAMES order."""
    L = segment_length(seg.sample_rate_hz)
    if seg.n_samples != L:
        raise ValidationError(f"segment must be channels x {L}, got {seg.samples.shape}")
    return segment_features(seg, [0])[0]
