"""Exception hierarchy and small helpers shared by all qdesign modules:
the message helpers, the parameter checks, and the frozen value-class
decorator that every result record uses, with its derived fields."""

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


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is frozen")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


def _value_class(cls):
    """Make cls a frozen value class over its annotated fields, in order.

    Adds what the class does not define itself: an __init__ taking the
    fields positionally or by name and then calling self.__post_init__()
    when the class has one, the repr "Name(a=1, b=2)", equality with
    instances of the same class only, a hash over the fields, and a
    __setattr__/__delattr__ that raise AttributeError.  A class with a
    __post_init__ also gets _trusted, a static builder that skips it, for
    values the library made valid itself.  The builders, __eq__ and
    __hash__ are compiled once per class, as collections.namedtuple does,
    so they cost what dataclass's do; setting each field in turn keeps
    the __dict__ in 3.11's compact form.  Instances keep a __dict__, so
    they hold _Derived fields and pickle.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    fields = "".join(f"self.{name}, " for name in names)
    args, checked = ", ".join(names), hasattr(cls, "__post_init__")
    sets = "".join(f"    _set(self, {name!r}, {name})\n" for name in names)
    source = (
        f"def __init__(self, {args}):\n" + sets
        + ("    self.__post_init__()\n" if checked else "")
        + (f"def _trusted({args}):\n    self = _new(_cls)\n{sets}    return self\n"
           if checked else "")
        + "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({fields}) == ({fields.replace('self.', 'other.')})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({fields}))\n"
    )
    methods: dict = {}
    exec(source, {"_set": object.__setattr__, "_new": object.__new__, "_cls": cls}, methods)
    if checked:
        methods["_trusted"] = staticmethod(methods["_trusted"])

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({values})"

    methods.update(__repr__=__repr__, __setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


class _Derived:
    """A value-class field derived by func on first read and kept through
    object.__setattr__: functools.cached_property writes the instance
    __dict__, which in CPython 3.11 slows every later attribute read of
    the instance.  A value a builder stored in the instance wins."""

    def __init__(self, func):
        self.func, self.name = func, func.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.name, value)
        return value


def _partial(cls, **values):
    """An instance of the value class cls holding these values, with no
    check: each field left out is a _Derived, derived when first read."""
    self = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(self, name, value)
    return self
