"""Exception types shared across the package."""


class ConvsepError(Exception):
    """Base class for all convsep errors."""


class FormatError(ConvsepError):
    """A file or header violates the on-disk format contract."""


class DataError(ConvsepError):
    """Signal data contains non-finite or otherwise invalid values."""


class ParameterError(ConvsepError, ValueError):
    """An argument is out of range or dimensions do not match."""


class NumericalDivergenceError(ConvsepError):
    """The separation update produced non-finite values.

    Carries the 1-based iteration index and the first offending
    frequency bin.
    """

    def __init__(self, iteration, bin_index, message=None):
        self.iteration = iteration
        self.bin_index = bin_index
        if message is None:
            message = (
                f"separation update diverged at iteration {iteration}, "
                f"frequency bin {bin_index}"
            )
        super().__init__(message)


class SingularFilterError(ConvsepError):
    """A per-bin demixing matrix is singular or too ill-conditioned to invert."""

    def __init__(self, bin_index):
        self.bin_index = bin_index
        super().__init__(f"demixing matrix is singular at frequency bin {bin_index}")


class UndefinedSirError(ConvsepError):
    """SIR is undefined because the contributions carry no power."""
