"""Exception types shared across the library."""


class GL2LabError(Exception):
    """Base class for all library errors."""


class PrecisionExhausted(GL2LabError):
    """A truncated p-adic computation could not certify the requested answer.

    Raised whenever a valuation, branch predicate or normalization would
    have to look at digits beyond the working precision.  Retry with a
    larger ``N`` on the context.
    """


class DomainError(GL2LabError):
    """Input violates a documented precondition."""


class ResourceLimit(GL2LabError):
    """An enumeration would exceed the configured cap (see GL2LAB_MAX_ELEMS)."""


class NotStabilizable(GL2LabError):
    """No lattice vertex within the searched depth is stabilized."""


class BrokenIdentity(GL2LabError):
    """An identity that a computation rests on does not hold.

    It is a failed verification, not a usage error: the command line
    reports it in one line on stderr and exits 1.
    """


import os


def max_elems(default: int = 200_000) -> int:
    """Enumeration cap; override with the GL2LAB_MAX_ELEMS environment variable."""
    v = os.environ.get("GL2LAB_MAX_ELEMS")
    return int(v) if v else default


def check_cap(size: int, what: str, default: int = 200_000) -> None:
    cap = max_elems(default)
    if size > cap:
        raise ResourceLimit(f"{what} needs {size} elements, cap is {cap}")
