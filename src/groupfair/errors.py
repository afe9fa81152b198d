"""Exception types shared across the package."""


class GroupFairError(Exception):
    """Base class for package-specific errors."""


class UnsupportedValuationError(GroupFairError):
    """An operation got a valuation class outside its contract."""


class UnsupportedNotionError(GroupFairError):
    """The requested fairness notion is undefined for this valuation class."""


class GroupShapeError(GroupFairError):
    """An algorithm got the wrong number of groups or the wrong group sizes."""


class SearchSpaceTooLargeError(GroupFairError):
    """An exhaustive computation would exceed its hard budget."""

    def __init__(self, message: str, bound: int | None = None):
        super().__init__(message)
        self.bound = bound


class FairAllocationNotFound(GroupFairError):
    """Certified non-existence: an exhaustive scan completed without a hit.

    Carries the search certificate so callers can report the count of
    candidates examined.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate
