"""The common base of every error that blowupgate raises on bad input,
InputError, the check that reads an integer from outside input, and
_Record, the base of the package's immutable value types.

They live in their own module, importing only operator.attrgetter, so
that any module can use them without depending on another part of the
package.
"""

from operator import attrgetter


class BlowupgateError(Exception):
    """Bad input to blowupgate.  Each subclass also keeps a builtin base
    (ValueError, KeyError or ArithmeticError), so callers may catch
    either."""


class InputError(BlowupgateError, ValueError):
    """Bad input file, JSON shape, option value or field value."""


def _integer(x) -> int:
    """x as an int: an int that is not a bool, or an integral float.
    Anything else is refused with InputError: a float or Fraction that
    int() would truncate, such as 1.7, a string, which int() would
    parse (so a string in place of an integer array is not read digit by
    digit), and True and False, which int() reads as 1 and 0."""
    if type(x) is int:
        return x
    if (isinstance(x, float) and x.is_integer()
            or isinstance(x, int) and not isinstance(x, bool)):
        return int(x)
    raise InputError(f"{x!r} is not an integer")


def _integers(seq, item=_integer) -> tuple:
    """tuple(map(item, seq)), refusing with InputError a seq that is not
    iterable, and a string, which would otherwise be iterated character
    by character (and "" pass as an empty array).
    Pass item=_integers for an array of integer arrays."""
    if isinstance(seq, str):
        raise InputError(f"{seq!r} is a string, not an array")
    try:
        items = map(item, seq)
    except TypeError:           # seq is not iterable
        raise InputError(f"{seq!r} is not an array") from None
    return tuple(items)


class _Record:
    """Base of the immutable value types: instances compare, hash and
    print by their fields.

    A subclass lists its fields once, as class annotations in order, and
    its own __init__ stores each with object.__setattr__ (which keeps the
    instance's values inline, where a write through self.__dict__ would
    build a dict of about twice the size); assigning or deleting an
    attribute afterwards raises AttributeError.  Equal means the same
    class and equal fields, the hash is that of the tuple of fields, and
    the repr is Name(field=value, ...).
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        if not fields:          # a subclass adding no field keeps its base's
            return
        get = attrgetter(*fields)
        cls._fields = fields
        # the tuple of field values; attrgetter of one name returns the
        # value itself
        cls._values = staticmethod(get if len(fields) > 1
                                   else lambda self: (get(self),))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"
