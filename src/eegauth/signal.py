"""EEG recording data model, zero-phase band-pass filtering, and segmentation.

Every step takes one recording, so its output depends on that recording
alone, whatever else a caller filters or segments before or after it.

Recordings are multi-channel time series in microvolts.  The canonical montage
is the three midline channels Fz, Cz, Pz sampled at 250 Hz; 4-second segments
(1000 samples at 250 Hz) are the unit every downstream feature is computed on.
"""

from __future__ import annotations

import cmath
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

# scipy serves only its compiled sosfilt loop, loaded without scipy.signal
# (_compiled_sosfilt), which takes about 0.8 s to import, far more than
# filtering a whole cohort; scipy.signal is imported only where that loop
# cannot be loaded alone.

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


@functools.cache
def _filter_design(lo_hz: float, hi_hz: float, sample_rate_hz: float):
    """(sos, initial states, padlen) of the 4th-order Butterworth band-pass.

    The sections are scipy's design of that filter, computed in plain floats
    in scipy's order of operations: the analog prototype's poles, band edges
    pre-warped at the normalised rate 2, low-pass to band-pass, the bilinear
    transform (Oppenheim & Schafer, Discrete-Time Signal Processing, 2010,
    7.1), and "nearest" pairing of poles with zeros.  Each section's
    initial state, its steady state under a unit step (Gustafsson, IEEE
    Trans. Signal Processing, 1996), solves the 2x2 system scipy solves,
    by Cramer's rule rather than through LAPACK.  So no bit depends on
    numpy's SIMD level or on the BLAS kernel.
    """
    nyquist = sample_rate_hz / 2.0
    if not (0.0 < lo_hz < hi_hz < nyquist):
        raise ValidationError(f"band [{lo_hz}, {hi_hz}] Hz invalid for Nyquist {nyquist} Hz")
    w0, w1 = (4.0 * math.tan(math.pi * (f / nyquist) / 2.0) for f in (lo_hz, hi_hz))
    bw, wo = w1 - w0, math.sqrt(w0 * w1)
    lowpass = [-cmath.exp(1j * (math.pi * m / 8)) * bw / 2 for m in (-3, -1, 1, 3)]
    roots = [cmath.sqrt(p * p - wo ** 2) for p in lowpass]
    analog = [p + r for p, r in zip(lowpass, roots)] + [p - r for p, r in zip(lowpass, roots)]
    gain = bw ** 4 * (256.0 / math.prod(4.0 - p for p in analog)).real
    poles = sorted(((4.0 + p) / (4.0 - p) for p in analog if p.imag > 0),
                   key=lambda p: p.real)
    zeros = [-1.0] * 4 + [1.0] * 4
    sos = []
    while poles:  # the pole nearest the unit circle takes the last section
        p = min(poles, key=lambda p: abs(1.0 - abs(p)))
        poles.remove(p)
        z1 = min(zeros, key=lambda z: abs(z - p))
        zeros.remove(z1)
        z2 = min(zeros, key=lambda z: abs(z - p))
        zeros.remove(z2)
        sos.insert(0, [1.0, -z1 - z2, z1 * z2, 1.0, -2.0 * p.real,
                       p.real * p.real + p.imag * p.imag])
    sos[0][:3] = [gain * b for b in sos[0][:3]]
    zi, scale = [], 1.0  # scale: the step's gain through the sections before
    for b0, b1, b2, _, a1, a2 in sos:
        # (I - A) zi = b[1:] - a[1:] b0 for the section's companion matrix A
        c0, c1, det = b1 - a1 * b0, b2 - a2 * b0, (1.0 + a1) + a2
        zi.append((scale * ((c0 + c1) / det), scale * (((1.0 + a1) * c1 - a2 * c0) / det)))
        scale *= (b0 + (b1 + b2)) / (1.0 + (a1 + a2))
    # |h[n]| ~ r^n for the largest pole radius r: the pad is three times the
    # samples until the impulse response decays below _SETTLE_TOL
    r = math.sqrt(max(section[5] for section in sos))
    if r >= 1.0:  # cannot happen for a valid Butterworth band
        raise ValidationError("filter design is not stable")
    padlen = 3 * math.ceil(math.log(_SETTLE_TOL) / math.log(r))
    return np.array(sos), np.array(zi), padlen


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


def read_recording_manifest(csv_path) -> tuple[str, float]:
    """(subject_id, sample_rate_hz) of the recording at `csv_path`, from its
    JSON sidecar manifest; its errors name the manifest."""
    manifest_path = Path(csv_path).with_suffix(".json")
    if not manifest_path.exists():
        raise ValidationError(f"missing recording manifest: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        subject_id = str(manifest["subject_id"])
        sample_rate_hz = float(manifest["sample_rate_hz"])
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"bad recording manifest {manifest_path}: {exc}") from exc
    if not (math.isfinite(sample_rate_hz) and sample_rate_hz > 0):
        raise ValidationError(f"{manifest_path}: sample_rate_hz must be finite and "
                              f"positive, got {sample_rate_hz}")
    return subject_id, sample_rate_hz


def read_recording_csv(csv_path) -> Recording:
    csv_path = Path(csv_path)
    subject_id, sample_rate_hz = read_recording_manifest(csv_path)
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
    return Recording(subject_id, sample_rate_hz, CHANNELS, rows[:, 1:].T)
