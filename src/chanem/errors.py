"""Exception hierarchy.

Every package error derives from :class:`ChanemError`, and the CLI maps
each class onto an exit code: :class:`FormatError` (a binary file or
frame) and :class:`ScenarioParseError` (a text file) exit 2,
:class:`InvalidInputError` (any violated precondition: a bad argument,
degenerate geometry, a delay past the spread, a slot out of order, no
gain reference) exits 3, and :class:`EndOfScenario` exits 4.
"""


class ChanemError(Exception):
    """Base class for all package errors."""


class InvalidInputError(ChanemError, ValueError):
    """An argument, configuration value or input violates a precondition."""


class EndOfScenario(ChanemError):
    """A slot index lies beyond the end of the CIR timeline."""


class FormatError(ChanemError):
    """A binary file or stream frame is malformed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ScenarioParseError(ChanemError):
    """A scene / trace / profile text file failed to parse."""

    def __init__(self, message, path=None, line=None):
        ctx = ""
        if path is not None:
            ctx = f"{path}:" if line is None else f"{path}:{line}:"
        super().__init__(f"{ctx} {message}" if ctx else message)
        self.path = path
        self.line = line
