"""Exception types shared across the toolkit."""


class NetdiagError(Exception):
    """Base class for all toolkit errors."""


class MalformedRow(NetdiagError):
    def __init__(self, row_index: int, reason: str):
        super().__init__(f"row {row_index}: {reason}")
        self.row_index = row_index
        self.reason = reason


class BadHeader(NetdiagError):
    pass


class EmptyTrace(NetdiagError):
    pass


class IoFailure(NetdiagError):
    pass


class CatalogMismatch(NetdiagError):
    pass


class DimensionMismatch(NetdiagError):
    pass


class TooFewRows(NetdiagError):
    pass


class TooFewSamples(NetdiagError):
    pass


class MissingClass(NetdiagError):
    pass


class InsufficientRows(NetdiagError):
    pass


class UnknownLabel(NetdiagError):
    def __init__(self, tag: str):
        super().__init__(f"unknown label tag: {tag!r}")
        self.tag = tag


class SingleClassInput(NetdiagError):
    pass


class NonFiniteInput(NetdiagError):
    pass


class IndexOutOfRange(NetdiagError):
    pass


class ConfigError(NetdiagError):
    pass
