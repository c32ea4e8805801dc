"""Defaults that the service and the command line share.

They live apart from `service` so that the command-line parser can offer
them without importing the HTTP server.
"""

# Feature rows an enrollment sends: one extract-features run's worth.
DEFAULT_ENROLL_COUNT = 500
# A session is granted only when its genuine fraction strictly exceeds this.
DEFAULT_THRESHOLD = 0.5
