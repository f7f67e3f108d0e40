"""Names every layer shares: the coefficient domain tag and the error bases.

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
