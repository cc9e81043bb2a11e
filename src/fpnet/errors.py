"""Exception types shared across the package.

Plain ``ValueError`` is used for invalid arguments (bad shapes, empty
matrices, out-of-range options). The classes below cover conditions a
caller may reasonably want to catch and handle separately.
"""


class FpnetError(Exception):
    """Base class for package-specific errors."""


class NotPositiveDefiniteError(FpnetError):
    """A matrix passed to a Cholesky-based solve was not positive definite.

    ``pivot_index`` is the 0-based index of the pivot at which the
    factorisation failed (or fell below the pivot floor).
    """

    def __init__(self, pivot_index, message=None):
        self.pivot_index = int(pivot_index)
        if message is None:
            message = f"matrix not positive definite at pivot {self.pivot_index}"
        super().__init__(message)


class DivergenceError(FpnetError):
    """Iterative training diverged: a batch loss blew up or weights went non-finite."""


class RankDeficientError(FpnetError):
    """A matrix required to have full row rank did not."""


class IdxFormatError(FpnetError):
    """An IDX file was malformed. ``offset`` is the byte offset of the problem."""

    def __init__(self, message, offset=0):
        self.offset = int(offset)
        super().__init__(f"{message} (byte offset {self.offset})")


class DataConsistencyError(FpnetError):
    """Image and label inputs disagree (e.g. different sample counts)."""


class CheckpointFormatError(FpnetError):
    """A checkpoint file was malformed or written by a newer version."""


class UndefinedMetricError(FpnetError):
    """A metric has no defined value on the given inputs."""


class UnsupportedNonlinearityError(FpnetError):
    """The requested operation has no inverse rule for this nonlinearity."""


class ConfigError(FpnetError):
    """A run configuration was invalid (unknown key, bad value, missing field)."""
