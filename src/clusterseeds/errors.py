"""Exception types shared across the package."""

__all__ = [
    "SeedError",
    "SpecError",
    "HomError",
    "ParseError",
    "ResourceCapExceeded",
    "LaurentViolation",
    "TheoremViolation",
]


class SeedError(ValueError):
    """A seed or matrix fails its structural requirements."""


class SpecError(ValueError):
    """An (I0, I1) sub-seed specification is inconsistent with its seed."""


class HomError(ValueError):
    """A candidate map is not a valid (partial) seed homomorphism."""


class ParseError(ValueError):
    """An input file does not follow the documented schema."""


class ResourceCapExceeded(RuntimeError):
    """An enumeration or polynomial grew past its configured cap."""

    def __init__(self, message: str, partial_count: int | None = None):
        super().__init__(message)
        self.partial_count = partial_count


class LaurentViolation(RuntimeError):
    """A quotient of Laurent polynomials is not a Laurent polynomial.

    This never happens for valid inputs; it aborts the run rather than
    silently producing wrong symbolic output.
    """


class TheoremViolation(RuntimeError):
    """A cross-check between two independent computations disagreed."""
