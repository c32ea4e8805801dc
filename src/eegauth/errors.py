"""Exception classes: one per distinct way a caller handles a failure.

Every error the library raises derives from EegAuthError, which the CLI
turns into exit 1 and the HTTP server into 400 `invalid_request`.  A class
below exists only because some code catches it apart from its base:

- ValidationError: any bad input (argument, file, payload, store entry,
  request).  read_feature_table and FeatureStore.get_user re-raise one
  with the path of the bad file in its message.
- TrainingError: a fit the training data cannot support; select_model
  records it in the trace and goes on to the next configuration.
- DeadlineExceededError: the search's wall-clock deadline passed; the
  search stops.
- NoModelError: no configuration finished in time; the user is `failed`
  in evaluate-cohort (exit 3) and enrollment answers 503.
- EnrollmentUnavailableError, PayloadTooLargeError, RequestTimeoutError:
  HTTP 409, 413 and 408.

The message says which failure happened; no output names the class.
"""


class EegAuthError(Exception):
    """Base class for all library errors."""


class ValidationError(EegAuthError):
    """Input violates an invariant: malformed data in memory, on disk or on
    the wire; the message names the value, file or line."""


class TrainingError(EegAuthError):
    """Training data cannot be fitted: one label only, too few rows, or
    non-finite or malformed features."""


class DeadlineExceededError(EegAuthError):
    """Internal signal: the wall-clock deadline passed mid-evaluation."""


class NoModelError(EegAuthError):
    """Search budget expired before any configuration was evaluated."""


class EnrollmentUnavailableError(EegAuthError):
    """Impostor pool not yet large enough to train a model for this user."""


class PayloadTooLargeError(EegAuthError):
    """Request body is larger than the server accepts."""


class RequestTimeoutError(EegAuthError):
    """Client stopped sending before its request body was complete."""
