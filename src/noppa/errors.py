"""Exception types shared across the package, each with the exit code
``noppa`` exits with when it ends a command."""


class NoppaError(ValueError):
    """Base class for all engine errors."""

    exit_code = 1


class FormatError(NoppaError):
    """A data file violates its documented format."""


class EmptySentenceError(NoppaError):
    """Sentence has no embeddable tokens left after filtering."""


class MissingInputError(NoppaError):
    """An input path that names no file, or names a directory."""

    exit_code = 2


class InfeasibleConfigError(NoppaError):
    """Configuration cannot be satisfied by the given data (e.g. k > rank)."""

    exit_code = 3
