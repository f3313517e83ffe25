"""Exception types shared across the toolkit.  Each carries the exit
code `cli.main` turns it into, as its `exit_code`: 4 for a catalog
mismatch, 2 for a usage error, and None for a failure to train, which
exits 3 under train and 2 elsewhere."""


class NetdiagError(Exception):
    """Base class for all toolkit errors."""
    exit_code: int | None = None


class MalformedRow(NetdiagError):
    """A trace body row that does not parse."""
    exit_code = 2

    def __init__(self, row_index: int, reason: str):
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


class BadHeader(NetdiagError):
    """A trace whose header lines are missing or wrong."""
    exit_code = 2


class EmptyTrace(NetdiagError):
    """A trace without packets to read, write or analyze."""
    exit_code = 2


class IoFailure(NetdiagError):
    """A file that cannot be read or written, or a refused field of one."""
    exit_code = 2


class CatalogMismatch(NetdiagError):
    """A database or bundle that is not built for this build's catalog."""
    exit_code = 4


class DimensionMismatch(NetdiagError):
    """Arrays whose shapes do not fit together."""


class UnknownLabel(NetdiagError):
    """A label tag outside the link tags or the fault registry."""
    exit_code = 2

    def __init__(self, tag: str):
        super().__init__(f"unknown label tag: {tag!r}")
        self.tag = tag


class NonFiniteInput(NetdiagError):
    """A NaN or Inf where a finite number is needed."""


class TrainingError(NetdiagError):
    """Training data or settings a pipeline cannot train on: too few rows
    or folds, a missing class, no candidate size, no support vector."""


class ConfigError(NetdiagError):
    """A config, scenario, labels file, option value or database kind the command refuses."""
    exit_code = 2
