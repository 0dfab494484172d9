"""Exception hierarchy and process exit codes.

Exit code contract: 0 ok, 1 usage/config, 2 data (files, shapes,
dataset validation), 3 numeric (degenerate math, non-finite values),
130 interrupted (the shell's code for SIGINT).
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERRUPTED = 130


class ExcelError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_DATA


class UsageError(ExcelError):
    """Bad flags, bad config values, inconsistent options."""

    exit_code = EXIT_USAGE


class DataError(ExcelError):
    """Broken or inconsistent on-disk data."""

    exit_code = EXIT_DATA


class NumericError(ExcelError):
    """Degenerate or non-finite numeric state."""

    exit_code = EXIT_NUMERIC


class MissingTensorError(DataError):
    """A manifest does not declare a tensor the caller requires."""


class ShapeError(DataError):
    """A tensor's shape disagrees with what the caller requires."""


class ChecksumError(DataError):
    """Blob bytes do not match the manifest checksum."""
