"""Exception hierarchy shared across the package."""


class HopfError(Exception):
    """Base class for all package errors."""


class IngestError(HopfError):
    """Malformed input data (edge lists, dataset directories)."""


class ArgumentError(HopfError):
    """A caller's argument, array or file does not fit: a violated precondition, a
    mismatched shape, a consumed cache or an archive that cannot be read."""


class ConfigError(HopfError):
    """Inconsistent or unsupported configuration."""


class TrainingError(HopfError):
    """Training diverged (a non-finite loss or gradient); carries the epoch/batch location."""

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch
