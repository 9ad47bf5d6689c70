"""The common base of every error that blowupgate raises on bad input.

It lives in its own module, importing nothing, so that any module can
derive from it without depending on another part of the package.
"""


class BlowupgateError(Exception):
    """Bad input to blowupgate.  Each subclass also keeps a builtin base
    (ValueError, KeyError or ArithmeticError), so callers may catch
    either."""
