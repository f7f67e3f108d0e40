"""Names every layer shares: the coefficient domain tag, the error bases and
the quoting of echoed input in error messages.

This module imports nothing but the standard library, so the command line
can parse ``--domain`` and map errors to exit codes without loading numpy.
:mod:`arithring.ring` and :mod:`arithring.serialize` re-export these names.
"""

from __future__ import annotations

from enum import Enum


class Domain(Enum):
    """Coefficient domain tag: exact rational field or integer ring."""

    Q = "Q"
    Z = "Z"


class RingError(Exception):
    """Base class for domain/arithmetic failures of :mod:`arithring.ring`."""


class ParseError(Exception):
    """Malformed function file; message carries the offending location."""


# echoed input longer than this is cut short in an error message
_QUOTE_CHARS = 40


def _quoted(value) -> str:
    """repr(value) for an error message.  A str longer than _QUOTE_CHARS shows
    the repr of its head and its length; so does any longer repr."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTE_CHARS:
        return repr(value)
    head = repr(text[:_QUOTE_CHARS]) if isinstance(value, str) else text[:_QUOTE_CHARS]
    return f"{head}... ({len(text)} characters)"
