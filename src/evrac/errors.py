"""Exception hierarchy shared across the package, and the regular-file check
every loader makes before it opens its input.

CLI exit-code mapping: UsageError -> 2, OSError -> 3, ConfigError /
DataFormatError / DomainError -> 4, anything else -> 1.
"""

import os
import stat


class EvracError(Exception):
    """Base class for all package errors."""


class UsageError(EvracError):
    """Caller violated an interface contract (bad argument, unknown mode)."""


class ConfigError(EvracError):
    """Invalid or inconsistent configuration."""


class DataFormatError(EvracError):
    """Malformed input data (files, checkpoints, records)."""


class DomainError(EvracError):
    """Value outside its mathematical domain (coordinates, probabilities, norms)."""


class ShapeError(DomainError):
    """Array shape incompatible with the operation."""


class UnknownStationError(EvracError):
    """Station id not present in the station index."""


class TrainingDiverged(EvracError):
    """A loss became non-finite; carries a diagnostic batch dump."""

    def __init__(self, message: str, dump: dict | None = None):
        super().__init__(message)
        self.dump = dump or {}


def require_regular_file(path: str | os.PathLike, error: type[EvracError]) -> None:
    """Raise `error` unless `path` is a regular file or a link to one: a
    device would be read until memory runs out, and a FIFO would block the
    open. A missing path raises FileNotFoundError, as opening it would."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise error(f"{path}: not a regular file")
