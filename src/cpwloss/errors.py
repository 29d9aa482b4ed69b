"""Exception types shared across the package.

Everything raised on bad input or a failed analysis derives from
CpwLossError so the CLI can catch one type, print the message and exit
nonzero.
"""


class CpwLossError(Exception):
    """Base class for all analysis and parsing errors."""


class ParseError(CpwLossError):
    """Malformed input file. Carries the path and 1-based line number."""

    def __init__(self, path, line, message):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class DataError(CpwLossError):
    """Input data violates a documented precondition. row, if given, is
    the 0-based index of the first array element at fault."""

    def __init__(self, message, row=None):
        self.row = row
        super().__init__(message)


class FitError(CpwLossError):
    """A fit failed to converge or the data cannot support one."""
