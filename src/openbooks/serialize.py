"""Canonical JSON helpers.

All machine output goes through canonical_dumps / canonical_line so that
parsing a document and re-serializing it is byte-identical: keys sorted,
fixed separators, and every rational rendered as an exact "p/q" string
(plain "n" when the denominator is 1).  Floats never appear.
"""

import json
import re
from fractions import Fraction


def fraction_str(x) -> str:
    """Render an int or Fraction exactly, e.g. -3/2, 4, 0."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_fraction(s) -> Fraction:
    """Parse an int or a string of the form [+-]digits[/digits], such as
    "-3/2"; anything else (a float, a bool, a decimal or exponent string
    such as "1.6" or "1e3", or a zero denominator) is a ValueError."""
    try:
        if type(s) is int or (isinstance(s, str) and _RATIONAL.fullmatch(s)):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not an exact rational of the form [+-]digits[/digits]: {s!r}")


def canonical_dumps(obj) -> str:
    """Pretty canonical document: stable bytes under a parse/re-dump cycle."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def canonical_line(obj) -> str:
    """Compact canonical form, one line, for JSON-lines output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
