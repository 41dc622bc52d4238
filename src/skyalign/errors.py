"""Exception hierarchy, and the CSV text files' one dialect.

Three broad families map onto CLI exit codes: ConfigError -> 2,
DataError -> 3, NumericError -> 4.
"""

import csv
import sys
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


class DuplicateId(DataError):
    """An id occurs twice in a set that needs unique ids."""


class IdMismatch(DataError):
    """Id sets that must agree do not."""


class UnknownQuery(DataError):
    """Query id missing from the relevance map."""


class BatchTooLarge(DataError):
    """Requested batch size exceeds the number of buildings."""


class AllMasked(DataError):
    """Every row of a batch is masked; no positive anchor exists."""


class NumericError(SkyalignError):
    """Numerical failure during computation."""


class NormDegenerate(NumericError):
    """A vector that must be normalized has (near-)zero norm."""


class NonFiniteLoss(NumericError):
    """Training produced a NaN or infinite loss."""


class WorkerDied(NumericError):
    """A sweep worker process ended without sending its results."""


def check_nbytes(nbytes: int, what: str) -> None:
    """MemoryError, before numpy is asked, when what needs more bytes than an
    address space holds: for such shapes numpy raises ValueError instead."""
    if nbytes > sys.maxsize:
        raise MemoryError(f"{what} would take {nbytes} bytes, more than can be addressed")


@contextmanager
def open_text(path, error=DataError):
    """Open path as UTF-8 text for csv; a byte that does not decode, or a
    record csv cannot read (a field over csv.field_size_limit()), wherever
    the reader meets it, raises error naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError:
        raise error(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise error(f"{path}: {exc}") from None


def write_csv(path, header, rows) -> None:
    """Write a header row, then rows, as UTF-8 csv in the excel dialect that
    open_text's readers take: fields quoted as needed, each row ending in
    \r\n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
