"""Exception taxonomy shared across the package.

Every error raised by the library derives from EegAuthError so callers can
distinguish expected domain failures from programming errors.
"""


class EegAuthError(Exception):
    """Base class for all library errors."""


# --- signal / features ------------------------------------------------------

class InvalidBandError(EegAuthError):
    """Frequency band is malformed or lies outside the Nyquist range."""


class TooShortError(EegAuthError):
    """Input has fewer samples than the operation requires."""


class ChannelMismatchError(EegAuthError):
    """Recording or segment does not carry the canonical channel set."""


class DegenerateBandError(EegAuthError):
    """Band covers no frequency bins on the given grid."""


class ParseError(EegAuthError):
    """Malformed on-disk data (CSV/JSON); message names the file and line."""


class ValidationError(EegAuthError):
    """In-memory data violates a type invariant."""


# --- synth ------------------------------------------------------------------

class CohortSpecError(EegAuthError):
    """Cohort specification violates its invariants."""


# --- dataset ----------------------------------------------------------------

class ContaminationError(EegAuthError):
    """Impostor pool contains instances owned by the enrolling user."""


class InsufficientPoolError(EegAuthError):
    """Impostor pool is too small to assemble a balanced dataset."""


class SplitError(EegAuthError):
    """Requested cross-validation split is impossible for the dataset."""


# --- classifiers ------------------------------------------------------------

class TrainingError(EegAuthError):
    """Base class for failures while fitting a model."""


class DegenerateTrainingError(TrainingError):
    """Training data does not cover both labels."""


class DataError(TrainingError):
    """Training data contains non-finite or malformed features."""


class ParamError(EegAuthError):
    """Hyperparameter value lies outside its declared domain."""


class SchemaError(EegAuthError):
    """Feature vector does not match the model's expected schema."""


class FormatError(EegAuthError):
    """A serialized model payload, or JSON numbers read by
    classifiers.parse_numbers, is corrupt or structurally invalid."""


class UnsupportedVersionError(FormatError):
    """Serialized model declares a format version this build cannot read."""


# --- autoselect -------------------------------------------------------------

class NoModelError(EegAuthError):
    """Search budget expired before any configuration was evaluated."""


class DeadlineExceededError(EegAuthError):
    """Internal signal: the wall-clock deadline passed mid-evaluation."""


# --- evaluation -------------------------------------------------------------

class UndefinedMetricError(EegAuthError):
    """Confusion counts leave a metric denominator empty."""


class SampleSizeError(EegAuthError):
    """Sample size outside the supported range for a statistical test."""


class DegenerateSampleError(EegAuthError):
    """Sample carries no information for the requested test."""


# --- service ----------------------------------------------------------------

class StoreError(EegAuthError):
    """Feature store I/O failure; message carries the affected path."""


class EnrollmentUnavailableError(EegAuthError):
    """Impostor pool not yet large enough to train a model for this user."""


class EmptySessionError(EegAuthError):
    """Authentication session carries no instances."""


class PayloadTooLargeError(EegAuthError):
    """Request body is larger than the server accepts."""


class RequestTimeoutError(EegAuthError):
    """Client stopped sending before its request body was complete."""
