"""Exception hierarchy shared by all qdesign modules."""

# counts up to this many bits are printed in full in error messages
SHOWN_BITS = 200


def number_text(x: int) -> str:
    """x in decimal when it is short, else "more than 2^b" with b as
    large as is true.  Cap errors compare first and print after; the
    decimal string of a huge count takes time quadratic in its length."""
    if x.bit_length() <= SHOWN_BITS:
        return str(x)
    return f"more than 2^{(x - 1).bit_length() - 1}"


class QDesignError(Exception):
    """Base class for all library errors."""


class InvalidParameters(QDesignError, ValueError):
    """The caller's input is wrong (CLI exit 2); also a ValueError."""


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
    """Internal assertion, a bug (CLI exit 4): a system that must be solvable is not."""


def validate_q(q: int) -> None:
    """Raise UnsupportedOrder unless q >= 2: the one message for an order below 2."""
    if q < 2:
        raise UnsupportedOrder(f"need q >= 2, got q={q}")


def check_chain(low: int, **values: int) -> None:
    """Raise DimensionMismatch unless low <= v1 <= v2 <= ... for the
    named values in the order given, e.g. check_chain(0, t=t, k=k, n=n)
    for 0 <= t <= k <= n.  The message names every value: "need 0 <= t
    <= k <= n, got t=3, k=2, n=4".  A hot caller may test the chain
    inline and call this only to raise."""
    chain = [low, *values.values()]
    if any(a > b for a, b in zip(chain, chain[1:])):
        got = ", ".join(f"{name}={v}" for name, v in values.items())
        raise DimensionMismatch(f"need {' <= '.join([str(low), *values])}, got {got}")
