"""The common base of every error that blowupgate raises on bad input,
InputError, and the check that reads an integer from outside input.

They live in their own module, importing nothing, so that any module can
use them without depending on another part of the package.
"""


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
