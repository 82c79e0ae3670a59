"""Canonical JSON helpers.

All machine output goes through canonical_dumps / canonical_line so that
parsing a document and re-serializing it is byte-identical: keys sorted,
fixed separators, and every rational rendered as an exact "p/q" string
(plain "n" when the denominator is 1).  Floats never appear.
"""

import json
from fractions import Fraction


def fraction_str(x) -> str:
    """Render an int or Fraction exactly, e.g. -3/2, 4, 0."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def parse_fraction(s) -> Fraction:
    """Parse an int or an exact rational string such as "-3/2"; anything else
    (a float or a bool included) is a ValueError."""
    try:
        if isinstance(s, (str, int)) and not isinstance(s, bool):
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"not an exact rational: {s!r}")


def canonical_dumps(obj) -> str:
    """Pretty canonical document: stable bytes under a parse/re-dump cycle."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def canonical_line(obj) -> str:
    """Compact canonical form, one line, for JSON-lines output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
