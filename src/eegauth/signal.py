"""EEG recording data model, zero-phase band-pass filtering, and segmentation.

Every step takes one recording, so its output depends on that recording
alone, whatever else a caller filters or segments before or after it.

Recordings are multi-channel time series in microvolts.  The canonical montage
is the three midline channels Fz, Cz, Pz sampled at 250 Hz; 4-second segments
(1000 samples at 250 Hz) are the unit every downstream feature is computed on.
"""

from __future__ import annotations

import csv
import functools
import importlib.machinery
import importlib.util
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# scipy.signal is imported only to design a band other than the default one,
# or where its compiled sosfilt loop cannot be loaded alone (_compiled_sosfilt):
# it takes about 0.8 s to import, far more than filtering a whole cohort.

from .errors import ValidationError

CHANNELS = ("Fz", "Cz", "Pz")
SEGMENT_SECONDS = 4.0

# Band edges of the default pre-processing filter.
DEFAULT_BAND = (0.5, 40.0)

# Impulse responses are treated as settled once they decay below this fraction
# of their peak; the reflection pad is three times that settling length.
_SETTLE_TOL = 1e-3

# The design of DEFAULT_BAND at 250 Hz, as scipy computes it: the sections of
# butter(4, DEFAULT_BAND, btype="bandpass", fs=250, output="sos"), their
# sosfilt_zi, and the pad of 3 * filter_settling_samples.  A test pins them to
# the installed scipy.
_DEFAULT_SOS = np.array([
    (0.021961263433741933, 0.043922526867483866, 0.021961263433741933,
     1.0, -0.6215552807265685, 0.1305843533436152),
    (1.0, 2.0, 1.0, 1.0, -0.8176588707461863, 0.5194597165945805),
    (1.0, -2.0, 1.0, 1.0, -1.976514489017057, 0.9766768504796793),
    (1.0, -2.0, 1.0, 1.0, -1.9904258738606502, 0.990584060251276),
])
_DEFAULT_ZI = np.array([
    (0.15061248227263624, -0.0005741675534109544),
    (0.8110314849071982, -0.3383695486290972),
    (-0.9836052306140376, 0.9836052306140268),
    (-0.0, 0.0),
])
_DEFAULT_PADLEN = 4383


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
        # C order: the features' last bits depend on the memory layout
        samples = np.ascontiguousarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "channels", tuple(self.channels))
        if not (math.isfinite(self.sample_rate_hz) and self.sample_rate_hz > 0):
            raise ValidationError(
                f"sample_rate_hz must be finite and positive, got {self.sample_rate_hz}")
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


@functools.cache
def _filter_design(lo_hz: float, hi_hz: float, sample_rate_hz: float):
    """(sos, sosfilt_zi, padlen) of the 4th-order Butterworth band-pass."""
    nyquist = sample_rate_hz / 2.0
    if not (0.0 < lo_hz < hi_hz < nyquist):
        raise ValidationError(f"band [{lo_hz}, {hi_hz}] Hz invalid for Nyquist {nyquist} Hz")
    if (lo_hz, hi_hz, sample_rate_hz) == (*DEFAULT_BAND, 250.0):
        return _DEFAULT_SOS, _DEFAULT_ZI, _DEFAULT_PADLEN
    from scipy import signal as _sps
    sos = _sps.butter(4, [lo_hz, hi_hz], btype="bandpass", fs=sample_rate_hz,
                      output="sos")
    return sos, _sps.sosfilt_zi(sos), 3 * filter_settling_samples(sos)


@functools.cache
def _compiled_sosfilt():
    """scipy's compiled sosfilt loop, loaded from its extension file, or None
    where the file or the function is missing.

    The file is loaded by path, which skips scipy/signal/__init__ and its
    ~0.8 s import.
    """
    scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = Path(scipy_dirs[0], "signal", "_sosfilt" + suffix)
        if path.is_file():
            spec = importlib.util.spec_from_file_location("scipy.signal._sosfilt", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return getattr(module, "_sosfilt", None)
    return None


def _sosfilt(sos: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """scipy.signal.sosfilt of each row of x (channels x samples, C order), in
    place, starting from the states zi (channels x sections x 2)."""
    loop = _compiled_sosfilt()
    if loop is not None:
        loop(sos, x, zi)
    else:  # the public function runs the same compiled loop
        from scipy.signal import sosfilt
        x[...] = sosfilt(sos, x, axis=1, zi=zi.transpose(1, 0, 2))[0]


def _sosfiltfilt(sos: np.ndarray, zi: np.ndarray, padlen: int,
                 x: np.ndarray) -> np.ndarray:
    """sosfiltfilt(sos, x, axis=1, padtype="even", padlen=padlen), bit for bit,
    as a new C-order array: no padded buffer outlives the call."""
    y = np.concatenate([x[:, padlen:0:-1], x, x[:, -2:-padlen - 2:-1]], axis=1)
    _sosfilt(sos, y, zi * y[:, :1, None])
    y = np.ascontiguousarray(y[:, ::-1])
    _sosfilt(sos, y, zi * y[:, :1, None])
    return np.ascontiguousarray(y[:, ::-1][:, padlen:-padlen])


def bandpass_filter(rec: Recording, lo_hz: float = DEFAULT_BAND[0],
                    hi_hz: float = DEFAULT_BAND[1]) -> Recording:
    """Zero-phase 4th-order Butterworth band-pass (applied forward-backward)
    of the recording.

    Edge effects are controlled by even-reflection padding of three settling
    lengths, so the recording must be longer than that pad.
    """
    sos, zi, padlen = _filter_design(lo_hz, hi_hz, rec.sample_rate_hz)
    if rec.n_samples <= padlen:
        raise ValidationError(
            f"recording has {rec.n_samples} samples; band [{lo_hz}, {hi_hz}] Hz "
            f"needs more than {padlen} for reflection padding"
        )
    return Recording(rec.subject_id, rec.sample_rate_hz, rec.channels,
                     _sosfiltfilt(sos, zi, padlen, rec.samples))


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


def random_segments(rec: Recording, n: int, seed: int) -> list[Recording]:
    """The segments at random_segment_starts(rec, n, seed), each a copy as a
    recording one segment long."""
    L = segment_length(rec.sample_rate_hz)
    return [Recording(rec.subject_id, rec.sample_rate_hz, rec.channels,
                      rec.samples[:, s:s + L].copy())
            for s in random_segment_starts(rec, n, seed)]


# --- CSV + manifest I/O -----------------------------------------------------

def write_recording_csv(rec: Recording, csv_path) -> None:
    """Write `time_s,Fz,Cz,Pz` rows plus a JSON sidecar manifest (the same
    path with the suffix .json)."""
    csv_path = Path(csv_path)
    if rec.channels != CHANNELS:
        raise ValidationError(f"canonical CSV needs channels {CHANNELS}")
    times = np.arange(rec.n_samples) / rec.sample_rate_hz
    # the bytes csv.writer would write, formatted in one pass
    row = "%.6f" + ",%.17g" * len(CHANNELS) + "\r\n"
    values = np.column_stack([times, rec.samples.T]).ravel().tolist()
    with open(csv_path, "w", newline="") as fh:
        fh.write(",".join(("time_s",) + CHANNELS) + "\r\n")
        fh.write((row * rec.n_samples) % tuple(values))
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
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad recording manifest {manifest_path}: {exc}") from exc

    expected = ("time_s",) + CHANNELS
    with open(csv_path, newline="") as fh:
        try:
            header = next(csv.reader(fh), None)
            if header is None or tuple(header) != expected:
                raise ValidationError(
                    f"{csv_path}: expected header {','.join(expected)}, got "
                    f"{','.join(header) if header else '<empty>'}"
                )
            with warnings.catch_warnings():
                # an empty body warns; it is reported as "no samples" below
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                  ndmin=2)
        except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
            raise ValidationError(f"{csv_path}: {exc}") from exc
    if not rows.size:
        raise ValidationError(f"{csv_path}: no samples")
    if rows.shape[1] != len(expected):
        raise ValidationError(f"{csv_path}: expected {len(expected)} fields, "
                              f"got {rows.shape[1]}")
    try:
        return Recording(subject_id, sample_rate_hz, CHANNELS, rows[:, 1:].T)
    except ValidationError as exc:
        raise ValidationError(f"{manifest_path}: {exc}") from exc
