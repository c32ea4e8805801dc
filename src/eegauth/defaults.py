"""Defaults that the service, the model search and the command line share.

They live apart from `service` and `autoselect` so that the command-line
parser can offer them without importing the HTTP server or the model side.
"""

# Seconds of model search per user, as in the paper.
DEFAULT_BUDGET_S = 60.0
# Cross-validation folds of each evaluation in the search.
DEFAULT_FOLDS = 10

# Feature rows an enrollment sends: one extract-features run's worth.
DEFAULT_ENROLL_COUNT = 500
# A session is granted only when its genuine fraction strictly exceeds this.
DEFAULT_THRESHOLD = 0.5
