"""EEG recording data model, zero-phase band-pass filtering, and segmentation.

Recordings are multi-channel time series in microvolts.  The canonical montage
is the three midline channels Fz, Cz, Pz sampled at 250 Hz; 4-second segments
(1000 samples at 250 Hz) are the unit every downstream feature is computed on.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# scipy.signal is imported inside the functions that filter or estimate a
# spectrum: it takes ~0.5 s to import, which every other command would pay.

from .errors import ValidationError

CHANNELS = ("Fz", "Cz", "Pz")
SEGMENT_SECONDS = 4.0

# Band edges of the default pre-processing filter.
DEFAULT_BAND = (0.5, 40.0)

# Impulse responses are treated as settled once they decay below this fraction
# of their peak; the reflection pad is three times that settling length.
_SETTLE_TOL = 1e-3


def segment_length(sample_rate_hz: float) -> int:
    """Samples per segment; non-integer products round to the nearest sample."""
    return int(round(SEGMENT_SECONDS * sample_rate_hz))


@dataclass(frozen=True)
class Recording:
    """A multi-channel EEG recording (channels x samples, microvolts)."""

    subject_id: str
    sample_rate_hz: float
    channels: tuple[str, ...]
    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple(self.channels))
        if self.sample_rate_hz <= 0:
            raise ValidationError("sample_rate_hz must be positive")
        if samples.ndim != 2:
            raise ValidationError("samples must be a channels x time matrix")
        if samples.shape[0] != len(self.channels):
            raise ValidationError(
                f"{len(self.channels)} channel labels for {samples.shape[0]} rows"
            )
        if len(set(self.channels)) != len(self.channels):
            raise ValidationError("channel labels must be unique")

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz


@dataclass(frozen=True)
class Segment:
    """A fixed-length slice of a recording (channels x L, microvolts)."""

    subject_id: str
    start_index: int
    sample_rate_hz: float
    channels: tuple[str, ...]
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channels", tuple(self.channels))
        L = segment_length(self.sample_rate_hz)
        if data.ndim != 2 or data.shape[1] != L:
            raise ValidationError(f"segment must be channels x {L}, got {data.shape}")
        if data.shape[0] != len(self.channels):
            raise ValidationError(
                f"{len(self.channels)} channel labels for {data.shape[0]} rows"
            )
        if self.start_index < 0:
            raise ValidationError("start_index must be non-negative")


def _design_bandpass(lo_hz: float, hi_hz: float, sample_rate_hz: float):
    from scipy import signal as _sps
    return _sps.butter(4, [lo_hz, hi_hz], btype="bandpass", fs=sample_rate_hz, output="sos")


def filter_settling_samples(sos: np.ndarray) -> int:
    """Samples until the filter impulse response decays below _SETTLE_TOL.

    Derived from the slowest pole radius r: |h[n]| ~ r^n, so the settling
    length is log(tol)/log(r).
    """
    from scipy import signal as _sps
    _, poles, _ = _sps.sos2zpk(sos)
    r = float(np.max(np.abs(poles)))
    if r >= 1.0:  # unstable design; cannot happen for a valid Butterworth band
        raise ValidationError("filter design is not stable")
    return int(math.ceil(math.log(_SETTLE_TOL) / math.log(r)))


def bandpass_filter(rec: Recording, lo_hz: float = DEFAULT_BAND[0],
                    hi_hz: float = DEFAULT_BAND[1]) -> Recording:
    """Zero-phase 4th-order Butterworth band-pass (applied forward-backward).

    Edge effects are controlled by even-reflection padding of three settling
    lengths, so the recording must be longer than that pad.
    """
    from scipy import signal as _sps
    nyquist = rec.sample_rate_hz / 2.0
    if not (0.0 < lo_hz < hi_hz < nyquist):
        raise ValidationError(
            f"band [{lo_hz}, {hi_hz}] Hz invalid for Nyquist {nyquist} Hz"
        )
    sos = _design_bandpass(lo_hz, hi_hz, rec.sample_rate_hz)
    padlen = 3 * filter_settling_samples(sos)
    if rec.n_samples <= padlen:
        raise ValidationError(
            f"recording has {rec.n_samples} samples; band [{lo_hz}, {hi_hz}] Hz "
            f"needs more than {padlen} for reflection padding"
        )
    filtered = _sps.sosfiltfilt(sos, rec.samples, axis=1, padtype="even", padlen=padlen)
    return Recording(rec.subject_id, rec.sample_rate_hz, rec.channels, filtered)


def random_segment_starts(rec: Recording, n: int, seed: int) -> np.ndarray:
    """Start indices of n uniformly random fixed-length segments (with
    replacement).

    30 s of data cannot hold 500 disjoint 4 s windows, so overlapping draws
    are intentional; determinism comes from the explicit seed.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    L = segment_length(rec.sample_rate_hz)
    if rec.n_samples < L:
        raise ValidationError(
            f"recording has {rec.n_samples} samples, below segment length {L}"
        )
    rng = np.random.default_rng(seed)
    return rng.integers(0, rec.n_samples - L + 1, size=n)


def random_segments(rec: Recording, n: int, seed: int) -> list[Segment]:
    """The segments at random_segment_starts(rec, n, seed), each a copy."""
    L = segment_length(rec.sample_rate_hz)
    return [
        Segment(rec.subject_id, int(s), rec.sample_rate_hz, rec.channels,
                rec.samples[:, s:s + L].copy())
        for s in random_segment_starts(rec, n, seed)
    ]


# --- CSV + manifest I/O -----------------------------------------------------

def write_recording_csv(rec: Recording, csv_path) -> None:
    """Write `time_s,Fz,Cz,Pz` rows plus a JSON sidecar manifest (the same
    path with the suffix .json)."""
    csv_path = Path(csv_path)
    if rec.channels != CHANNELS:
        raise ValidationError(f"canonical CSV needs channels {CHANNELS}")
    times = np.arange(rec.n_samples) / rec.sample_rate_hz
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time_s",) + CHANNELS)
        for i in range(rec.n_samples):
            writer.writerow([f"{times[i]:.6f}"] +
                            [f"{v:.17g}" for v in rec.samples[:, i]])
    manifest = {"subject_id": rec.subject_id, "sample_rate_hz": rec.sample_rate_hz}
    with open(csv_path.with_suffix(".json"), "w") as fh:
        json.dump(manifest, fh, indent=0, sort_keys=True)
        fh.write("\n")


def read_recording_csv(csv_path) -> Recording:
    csv_path = Path(csv_path)
    manifest_path = csv_path.with_suffix(".json")
    if not manifest_path.exists():
        raise ValidationError(f"missing recording manifest: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        subject_id = str(manifest["subject_id"])
        sample_rate_hz = float(manifest["sample_rate_hz"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad recording manifest {manifest_path}: {exc}") from exc

    expected = ("time_s",) + CHANNELS
    with open(csv_path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or tuple(header) != expected:
            raise ValidationError(
                f"{csv_path}: expected header {','.join(expected)}, got "
                f"{','.join(header) if header else '<empty>'}"
            )
        try:
            with warnings.catch_warnings():
                # an empty body warns; it is reported as "no samples" below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                  ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{csv_path}: {exc}") from exc
    if not rows.size:
        raise ValidationError(f"{csv_path}: no samples")
    if rows.shape[1] != len(expected):
        raise ValidationError(f"{csv_path}: expected {len(expected)} fields, "
                              f"got {rows.shape[1]}")
    samples = np.ascontiguousarray(rows[:, 1:]).T
    return Recording(subject_id, sample_rate_hz, CHANNELS, samples)
