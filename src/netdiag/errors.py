"""Exception types shared across the toolkit; each names the exit code
`cli.main` turns it into."""


class NetdiagError(Exception):
    """Base class for all toolkit errors."""


class MalformedRow(NetdiagError):
    """A trace body row that does not parse; exit 2."""

    def __init__(self, row_index: int, reason: str):
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


class BadHeader(NetdiagError):
    """A trace whose header lines are missing or wrong; exit 2."""


class EmptyTrace(NetdiagError):
    """A trace without packets to read, write or analyze; exit 2."""


class IoFailure(NetdiagError):
    """A file that cannot be read or written, or a refused field of one; exit 2."""


class CatalogMismatch(NetdiagError):
    """A configured catalog, database or bundle that is not this build's; exit 4."""


class DimensionMismatch(NetdiagError):
    """Arrays whose shapes do not fit together; exit 3 under train, else 2."""


class UnknownLabel(NetdiagError):
    """A label tag outside the link tags or the fault registry; exit 2."""

    def __init__(self, tag: str):
        super().__init__(f"unknown label tag: {tag!r}")
        self.tag = tag


class NonFiniteInput(NetdiagError):
    """A NaN or Inf where a finite number is needed; exit 3 under train, else 2."""


class TrainingError(NetdiagError):
    """Training data or settings a pipeline cannot train on: too few rows
    or folds, a missing class, no candidate size, no support vector;
    exit 3 under train, else 2."""


class ConfigError(NetdiagError):
    """A config, scenario, labels file, option value or database kind the command refuses; exit 2."""
