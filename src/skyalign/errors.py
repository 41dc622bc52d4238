"""Exception hierarchy.

Three broad families map onto CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

from contextlib import contextmanager


class SkyalignError(Exception):
    """Base class for all package errors."""


class ConfigError(SkyalignError):
    """Bad configuration file or unusable option value."""


class DataError(SkyalignError):
    """Malformed or inconsistent input data."""


class ManifestError(DataError):
    """Pose manifest violates its schema or invariants."""


class FormatError(DataError):
    """Binary file has a bad magic, truncated body, or wrong version."""


class DimMismatch(DataError):
    """Embedding dimensionalities disagree."""


class DimTooLarge(DataError):
    """Requested truncation dimension exceeds the stored one."""


class IdMismatch(DataError):
    """Id sets that must agree do not."""


class UnknownQuery(DataError):
    """Query id missing from the relevance map."""


class BatchTooLarge(DataError):
    """Requested batch size exceeds the number of buildings."""


class AllMasked(DataError):
    """Every row of a batch is masked; no positive anchor exists."""


class DegenerateAzimuth(DataError):
    """Horizontal offset too small to define an azimuth."""


class NumericError(SkyalignError):
    """Numerical failure during computation."""


class NormDegenerate(NumericError):
    """A vector that must be normalized has (near-)zero norm."""


class NonFiniteLoss(NumericError):
    """Training produced a NaN or infinite loss."""


class WorkerDied(NumericError):
    """A sweep worker process ended without sending its results."""


@contextmanager
def open_text(path, error=DataError):
    """Open path as UTF-8 text for csv; a byte that does not decode, wherever
    the reader meets it, raises error naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
