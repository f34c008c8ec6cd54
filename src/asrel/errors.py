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

    The message has one of three forms: ``source:line: reason`` for a bad
    record at a 1-based line; ``cannot read source: reason`` when only a
    source is given, a file that cannot be opened or decoded; ``reason``
    alone for a fault of no one file, such as an empty corpus.
    """

    def __init__(self, reason: str, source: str = "", line: int = 0):
        if line:
            reason = f"{source}:{line}: {reason}"
        elif source:
            reason = f"cannot read {source}: {reason}"
        super().__init__(reason)
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
