"""Exception hierarchy shared across the package.

Three families matter to the command line front end: configuration
problems, data/schema problems, and numerical failures.  Each family
maps to one process exit code, its class's ``exit_code``, so new
exceptions should subclass the family they belong to rather than
Exception directly.
"""


class SolvencyError(Exception):
    """Base class for every error raised by this package; its
    exit_code is the one the command line exits with."""

    exit_code = 3


class ConfigError(SolvencyError):
    """Invalid configuration or command usage."""

    exit_code = 2


class DataError(SolvencyError):
    """Malformed input data or schema violation (exit code 3)."""


class NumericError(SolvencyError):
    """Numerical failure such as a singular system."""

    exit_code = 4


class SolvencyWarning(UserWarning):
    """Base class for every warning issued by this package; the command
    line prints these as it prints errors, without source locations."""


# -- dataset --------------------------------------------------------------

class MissingFileError(ConfigError):
    """A configured path points at nothing (exit code 2, not 3: the
    file system state is part of the invocation, not of the data)."""


class HeaderMismatchError(DataError):
    pass


class RaggedRowError(DataError):
    pass


class CodeBookError(DataError):
    """A codebook file holds an entry that cannot be used."""


class UnknownLabelError(DataError):
    """A categorical cell holds a label the codebook does not define."""

    def __init__(self, feature: str, label: str, row: int):
        self.feature = feature
        self.label = label
        self.row = row
        super().__init__(
            f"unknown label {label!r} for feature {feature!r} at row {row}")


class EmptyResultError(DataError):
    """Cleaning removed every row."""


class EmptyDatasetError(DataError):
    pass


# -- screening ------------------------------------------------------------

class SingularMatrixError(NumericError):
    pass


class ZeroVarianceError(NumericError):
    def __init__(self, variable: str):
        self.variable = variable
        super().__init__(f"variable {variable!r} has zero variance")


# -- cart -----------------------------------------------------------------

class SchemaMismatchError(DataError):
    pass


class MalformedDocumentError(DataError):
    pass


class VersionMismatchError(DataError):
    pass


# -- evaluation -----------------------------------------------------------

class EmptyInputError(DataError):
    pass


class DegenerateClassError(DataError):
    """One of the two outcome classes is absent."""


class ScoreOutOfRangeError(DataError):
    pass
