"""Canonical JSON helpers.

All machine output goes through canonical_dumps / canonical_line so that
parsing a document and re-serializing it is byte-identical: keys sorted,
fixed separators, and every rational rendered as an exact "p/q" string
(plain "n" when the denominator is 1).  Floats never appear: both writers
raise TypeError on one.

canonical_dumps writes the bytes of json.dumps(obj, sort_keys=True,
indent=2, separators=(",", ": ")) + "\\n" with its own small recursive
writer.  json's C encoder only runs without indent; with indent=2 json
falls back to its pure-Python generator encoder, which costs a generator
frame per container and leaves a reference cycle of closures behind on
every call.  The writer below keeps json's C leaves (encode_basestring_ascii
for keys and strings, int.__repr__ for ints) and only joins containers in
Python, with the "\\n" + "  " * level separators that indent=2 emits.
"""

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii


def fraction_str(x) -> str:
    """Render an int or Fraction exactly, e.g. -3/2, 4, 0; any other type
    (a float, a string) is a TypeError."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"fraction_str takes an int or a Fraction, not {x!r}")
    p, q = x.as_integer_ratio()
    return str(p) if q == 1 else f"{p}/{q}"


def exact_fraction(x) -> Fraction:
    """x as a Fraction when it is an int (not a bool) or a Fraction; any
    other type (a float, a bool, a string) is a TypeError."""
    if type(x) is Fraction:
        return x
    if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
        raise TypeError(f"an exact rational is an int or a Fraction, not {x!r}")
    return Fraction(x)


def exact_int(x, what: str) -> int:
    """x if it is an int, not a bool; int() would truncate 3/2 or 2.5 and
    read True as 1, so anything else is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"{what} must be an int, got {x!r}")
    return x


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


def _pretty(obj, newline):
    """obj as json writes it with indent=2 at the depth whose line break
    and indent is `newline`.  The exact types come first; one Python frame
    per level of nesting, as in json's own encoder."""
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        parts = []
        for key in sorted(obj):
            # a non-str key is a TypeError in encode_basestring_ascii
            parts.append(encode_basestring_ascii(key) + ": " + _pretty(obj[key], inner))
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        parts = []
        for x in obj:
            parts.append(_pretty(x, inner))
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    # subclasses, written as json writes their base type
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, dict):
        return _pretty(dict(obj), newline)
    if isinstance(obj, (list, tuple)):
        return _pretty(list(obj), newline)
    raise TypeError(f"Object of type {t.__name__} is not canonical JSON")


def canonical_dumps(obj) -> str:
    """Pretty canonical document: stable bytes under a parse/re-dump cycle."""
    return _pretty(obj, "\n") + "\n"


def canonical_line(obj) -> str:
    """Compact canonical form, one line, for JSON-lines output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
