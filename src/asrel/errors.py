"""Exception types shared across the package.

Each type carries the process exit code the command line reports for it:
1 for bad input (the default), 2 for an invalid configuration, 3 for a
construction that cannot be carried out. Library code should raise the most
specific type that applies instead of bare ValueError.
"""


class AsrelError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class SelfLoopError(AsrelError):
    """A vertex pair named the same AS twice."""


class UnknownEdgeError(AsrelError):
    """A vote or lookup referenced an edge that is not in the graph."""


class ParseError(AsrelError):
    """An input file could not be read or parsed.

    Carries the offending source name and 1-based line number when known.
    """

    def __init__(self, message: str, source: str = "", line: int = 0):
        detail = message
        if source:
            detail = f"{source}:{line}: {message}" if line else f"{source}: {message}"
        super().__init__(detail)
        self.source = source
        self.line = line


class ParameterError(AsrelError):
    """A function argument was outside its documented range."""

    exit_code = 2


class ConfigurationError(AsrelError):
    """A configuration combination is invalid or incomplete."""

    exit_code = 2


class EmptyCoreError(AsrelError):
    """A core construction produced no usable vertices."""

    exit_code = 3


class CorruptionInfeasibleError(AsrelError):
    """No replacement vertex satisfies the connectivity requirement."""

    exit_code = 3
