"""Seeded synthetic EEG cohort generator with controllable subject separation.

Each channel is a sum of three parts:

* band cores: sinusoids on the segment-length frequency grid (0.25 Hz at
  250 Hz) inside each of the four disjoint bands, with random per-tone powers
  and phases, jointly rescaled so the realized power inside each band equals
  its target exactly.  Tones on that grid complete an integer number of cycles
  in every 4 s window, so any segment-level band-power measurement reads the
  target back regardless of window position.
* a 1/f noise floor built from the same tone grid between 1 and 40 Hz; its
  realized contribution inside each scored band is added to the effective
  per-band targets recorded in the signature.
* broadband Gaussian texture above 12.5 Hz (outside every scored band), which
  breaks the 4 s periodicity of the tone grid without touching the features.

Band supports keep one grid step of guard away from the shared band edges so
finite-window leakage cannot move power across a boundary, and the lowest
support starts at 1 Hz so the 0.5 Hz high-pass of the standard pre-processing
filter leaves the targets intact.

Per-channel sample streams are seeded from a digest of the channel's effective
spectral parameters.  Subjects whose parameters coincide (a zero-separability,
zero-jitter cohort) therefore receive identical recordings: such a cohort
carries no identity signal at all, by construction, which is what makes it a
valid chance-level control for the authentication pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .features import BANDS
from .seeds import seeded_rng
from .signal import CHANNELS, Recording, segment_length, write_recording_csv

# Cohort-mean band-power targets in uV^2 (delta, theta, lalpha, halpha).
BASE_TARGETS = (18.0, 10.0, 6.0, 5.0)

# Log-normal spread of subject targets at separability 1.0.
TARGET_LOG_SPREAD = 0.4

# Gaussian texture power above the scored bands, uV^2.
TEXTURE_POWER = 1.0

_DISJOINT_BANDS = BANDS[:4]
_FLOOR_LO, _FLOOR_HI = 1.0, 40.0
_TEXTURE_LO = 12.5

SEGMENT_MIN_S = 4.0


@dataclass(frozen=True)
class SubjectSignature:
    """Per-subject spectral identity.

    targets holds the drawn per-(channel, band) power targets; realized
    carries what the emitted recording actually contains per scored band
    (targets x session jitter + the noise floor's in-band share), which is
    the ground truth feature extraction is calibrated against.  Both are
    3 x 5 with the alpha column equal to the sum of its halves.
    """

    subject_id: str
    targets: np.ndarray
    realized: np.ndarray

    def __post_init__(self):
        targets = np.asarray(self.targets, dtype=float)
        realized = np.asarray(self.realized, dtype=float)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "realized", realized)
        if targets.shape != (3, 5):
            raise ValidationError("targets must be 3 channels x 5 bands")
        if not ((targets > 0) & np.isfinite(targets)).all():
            raise ValidationError("all band-power targets must be finite and positive")
        if realized.shape != (3, 5):
            raise ValidationError("realized must be 3 channels x 5 bands")
        if not np.isfinite(realized).all():
            raise ValidationError("realized band powers must be finite")


@dataclass(frozen=True)
class CohortSpec:
    n_subjects: int = 15
    duration_s: float = 30.0
    sample_rate_hz: float = 250.0
    separability: float = 1.0
    seed: int = 0
    intra_jitter: float = 0.1
    noise_floor: float = 2.0

    def __post_init__(self):
        if self.n_subjects < 2:
            raise ValidationError("cohort needs at least 2 subjects")
        if self.duration_s < SEGMENT_MIN_S:
            raise ValidationError(f"duration_s must be >= {SEGMENT_MIN_S}")
        # at or below twice the top tone, tones alias into the scored bands
        # and the manifest's realized powers no longer describe the recording
        if not self.sample_rate_hz > 2 * _FLOOR_HI:
            raise ValidationError(
                f"sample_rate_hz must exceed {2 * _FLOOR_HI:g} Hz, twice the top tone, "
                f"got {self.sample_rate_hz:g}")
        for name in ("duration_s", "sample_rate_hz", "separability", "noise_floor"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        # the sample count must be an array dimension: below 2**63 on 64-bit
        samples = self.duration_s * self.sample_rate_hz
        if not samples < np.iinfo(np.intp).max:
            raise ValidationError(
                f"duration_s * sample_rate_hz is {samples:g} samples, more than an "
                f"array can hold")
        if self.separability < 0:
            raise ValidationError("separability must be >= 0")
        if not (0.0 <= self.intra_jitter < 1.0):
            raise ValidationError("intra_jitter must lie in [0, 1)")
        if self.noise_floor < 0:
            raise ValidationError("noise_floor must be >= 0")


def _tone_grid(sample_rate_hz: float) -> tuple[np.ndarray, float]:
    """Frequencies that complete integer cycles in one segment."""
    step = sample_rate_hz / segment_length(sample_rate_hz)
    return np.arange(step, _FLOOR_HI + 1e-9, step), step


def _power(z: np.ndarray) -> np.ndarray:
    # |z|^2 from the parts: numpy's complex abs rounds by its SIMD level
    return z.real ** 2 + z.imag ** 2


def _tone_amplitudes(rng: np.random.Generator, band_targets: np.ndarray,
                     noise_floor: float, sample_rate_hz: float
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A channel's tone frequencies, their complex amplitudes a_i (the tone
    is |a_i| cos(2 pi f_i t + arg a_i)) and its realized per-band powers
    (4 disjoint bands)."""
    tones, step = _tone_grid(sample_rate_hz)
    tones = tones[tones >= _FLOOR_LO]

    # 1/f floor: complex tone amplitudes with exponential per-tone power.
    floor_pw = rng.exponential(1.0, tones.size) / tones
    amps = np.sqrt(floor_pw) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, tones.size))
    total = float((_power(amps) / 2.0).sum())
    if noise_floor > 0 and total > 0:
        amps *= np.sqrt(noise_floor / total)
    else:
        amps[:] = 0.0

    realized = np.zeros(len(_DISJOINT_BANDS))
    for bi, band in enumerate(_DISJOINT_BANDS):
        lo_sup = max(band.lo_hz + step, _FLOOR_LO)
        hi_sup = band.hi_hz - step
        support = (tones >= lo_sup - 1e-9) & (tones <= hi_sup + 1e-9)
        in_band = (tones >= band.lo_hz) & (tones < band.hi_hz)
        if not support.any():
            raise ValidationError(
                f"band {band.name} has no tone support at {sample_rate_hz} Hz"
            )
        draw = rng.exponential(1.0, int(support.sum()))
        core = np.sqrt(draw) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, draw.size))
        # Scale the core so the combined in-band power lands exactly on the
        # target on top of whatever the floor already put there:
        #   sum |F + a*C|^2/2 over the band  ==  floor_band + target
        c2 = float((_power(core) / 2.0).sum())
        # Re(F * conj(C)) from the parts: numpy's complex product rounds by
        # its SIMD level (fused under AVX2 and AVX-512)
        floor = amps[support]
        c1 = float((floor.real * core.real + floor.imag * core.imag).sum())
        target = float(band_targets[bi])
        scale = (-c1 + np.sqrt(c1 * c1 + 4.0 * c2 * target)) / (2.0 * c2)
        amps[support] += scale * core
        realized[bi] = float((_power(amps[in_band]) / 2.0).sum())
    return tones, amps, realized


def _synth_channel(rng: np.random.Generator, band_targets: np.ndarray,
                   noise_floor: float, n_samples: int,
                   sample_rate_hz: float) -> tuple[np.ndarray, np.ndarray]:
    """One channel plus its realized per-band powers (4 disjoint bands)."""
    tones, amps, realized = _tone_amplitudes(rng, band_targets, noise_floor,
                                             sample_rate_hz)
    # Tone i sits on grid bin k_i of the L-sample segment and completes k_i
    # cycles in it, so the tone sum is periodic with period L, and one period
    # is the inverse real DFT of the amplitudes placed on their bins.  The
    # 40 Hz top tone lies below the segment's Nyquist bin.
    period = segment_length(sample_rate_hz)
    spec = np.zeros(period // 2 + 1, dtype=complex)
    spec[np.rint(tones * period / sample_rate_hz).astype(np.intp)] = amps * (period / 2)
    x = np.resize(np.fft.irfft(spec, n=period), n_samples)

    # Broadband texture above the scored bands, shaped on the recording grid.
    freqs = np.fft.rfftfreq(n_samples, 1.0 / sample_rate_hz)
    mask = (freqs > _TEXTURE_LO) & (freqs <= min(_FLOOR_HI, freqs[-1]))
    if mask.any() and TEXTURE_POWER > 0:
        spec = np.zeros(freqs.size, dtype=complex)
        draw = rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum())
        pw = 2.0 * float(_power(draw).sum()) / n_samples ** 2
        spec[mask] = draw * np.sqrt(TEXTURE_POWER / pw)
        x = x + np.fft.irfft(spec, n=n_samples)
    return x, realized


def make_subject(spec: CohortSpec, idx: int) -> tuple[SubjectSignature, Recording]:
    """Subject `idx` of the cohort: its own seeded generators make it
    independent of every other subject, and bit-exact for a given spec."""
    n_samples = int(round(spec.duration_s * spec.sample_rate_hz))
    base = np.asarray(BASE_TARGETS, dtype=float)
    subject_id = f"S{idx + 1:02d}"
    sig_rng = seeded_rng(spec.seed, "signature", idx)
    spread = spec.separability * TARGET_LOG_SPREAD
    # math.exp, not np.exp, whose last bit depends on numpy's SIMD level
    exp = np.vectorize(math.exp, otypes=[float])
    targets4 = base[None, :] * exp(spread * sig_rng.normal(size=(3, 4)))
    jitter = exp(spec.intra_jitter * sig_rng.normal(size=(3, 4))) \
        if spec.intra_jitter > 0 else np.ones((3, 4))
    effective4 = targets4 * jitter

    samples = np.empty((3, n_samples))
    realized4 = np.empty((3, 4))
    for ci, channel in enumerate(CHANNELS):
        # Seeding from the effective parameters makes recordings with
        # identical parameters identical, so a zero-spread cohort is a
        # clean chance-level control.
        key = np.round(effective4[ci], 12).tobytes().hex()
        ch_rng = seeded_rng(spec.seed, "channel", channel, key,
                            spec.noise_floor, spec.duration_s,
                            spec.sample_rate_hz)
        samples[ci], realized4[ci] = _synth_channel(
            ch_rng, effective4[ci], spec.noise_floor, n_samples,
            spec.sample_rate_hz)

    targets = np.column_stack([targets4, targets4[:, 2] + targets4[:, 3]])
    realized = np.column_stack([realized4, realized4[:, 2] + realized4[:, 3]])
    signature = SubjectSignature(subject_id, targets, realized)
    return signature, Recording(subject_id, spec.sample_rate_hz, CHANNELS, samples)


def make_cohort(spec: CohortSpec) -> list[tuple[SubjectSignature, Recording]]:
    """Generate the cohort; deterministic (bit-exact) for a given spec."""
    return [make_subject(spec, idx) for idx in range(spec.n_subjects)]


# --- cohort directory layout --------------------------------------------------

COHORT_MANIFEST = "cohort.json"


def write_cohort(spec: CohortSpec, out_dir,
                 subjects) -> list[tuple[SubjectSignature, Recording]]:
    """Generate and write one CSV + JSON sidecar per subject index in
    `subjects`; `write_cohort_manifest` completes the directory.  Returns
    the subjects written, in order."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for idx in subjects:
        signature, recording = make_subject(spec, idx)
        write_recording_csv(recording, out_dir / f"{signature.subject_id}.csv")
        written.append((signature, recording))
    return written


def write_cohort_manifest(spec: CohortSpec, out_dir,
                          signatures: list[SubjectSignature]) -> None:
    """Write the cohort manifest: the spec and every subject's signature."""
    subjects = [{
        "subject_id": signature.subject_id,
        "targets": signature.targets.tolist(),
        "realized": signature.realized.tolist(),
    } for signature in signatures]
    manifest = {
        "n_subjects": spec.n_subjects,
        "duration_s": spec.duration_s,
        "sample_rate_hz": spec.sample_rate_hz,
        "separability": spec.separability,
        "seed": spec.seed,
        "intra_jitter": spec.intra_jitter,
        "noise_floor": spec.noise_floor,
        "subjects": subjects,
    }
    with open(Path(out_dir) / COHORT_MANIFEST, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
