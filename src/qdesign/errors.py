"""Exception hierarchy shared by all qdesign modules."""

# counts up to this many bits are printed in full in error messages
_SHOWN_BITS = 200


def number_text(x: int) -> str:
    """x in decimal when it is short, else "more than 2^b" with b as
    large as is true.  Cap errors compare first and print after; the
    decimal string of a huge count takes time quadratic in its length."""
    if x.bit_length() <= _SHOWN_BITS:
        return str(x)
    return f"more than 2^{(x - 1).bit_length() - 1}"


class QDesignError(Exception):
    """Base class for all library errors."""


class InvalidParameters(QDesignError):
    """A precondition on the operation's parameters is violated."""


class UnsupportedOrder(InvalidParameters):
    """Requested field order is not a supported prime power."""


class ResourceLimitError(QDesignError):
    """A computation would exceed its configured size cap."""


class TooLarge(ResourceLimitError):
    """An enumeration or matrix would exceed its size cap."""


class TooManyTerms(ResourceLimitError):
    """A term-by-term sum has more terms than the configured cap."""


class AmbientMismatch(InvalidParameters):
    """Operands live in different ambient spaces or fields."""


class DimensionMismatch(InvalidParameters):
    """Operand dimensions violate the operation's requirements."""


class SingularMap(InvalidParameters):
    """A linear map that must be invertible is singular."""


class DegenerateSystem(QDesignError):
    """Internal assertion: a linear system that must be solvable is not."""
