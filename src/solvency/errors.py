"""Exception hierarchy shared across the package.

Three families matter to the command line front end: configuration
problems, data/schema problems, and numerical failures.  Each family
maps to one process exit code, its class's ``exit_code``, and the
message says what was refused and where, so code raises the family
itself rather than a subclass or Exception.
"""


class SolvencyError(Exception):
    """Base class for every error raised by this package; its
    exit_code is the one the command line exits with."""

    exit_code = 3


class ConfigError(SolvencyError):
    """Invalid configuration or command usage, or a path that cannot be
    read or written."""

    exit_code = 2


class DataError(SolvencyError):
    """Malformed input data, codebook or model, or a schema violation
    (exit code 3)."""


class NumericError(SolvencyError):
    """Numerical failure such as a singular system or zero variance."""

    exit_code = 4


class SolvencyWarning(UserWarning):
    """The one warning class this package issues; the command line
    prints these as it prints errors, without source locations."""
