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
for keys and strings, int.__repr__ for ints), appends every piece, with the
"\\n" + "  " * level separators that indent=2 emits, to one list and joins
it once.
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


def _write(obj, newline, out):
    """Append to `out` the pieces of obj as json writes it with indent=2 at
    the depth whose line break and indent is `newline`.  Exact types first;
    one Python frame per level of nesting, as in json's own encoder."""
    t = type(obj)
    if t is str:
        out.append(encode_basestring_ascii(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            out.append(sep)
            # a non-str key is a TypeError in encode_basestring_ascii
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(obj[key], inner, out)
            sep = comma
        out.append(newline + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = comma
        out.append(newline + "]")
    elif obj is None or t is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    # subclasses, written as json writes their base type
    elif isinstance(obj, (str, int)):
        _write(str.__str__(obj) if isinstance(obj, str) else int.__int__(obj), newline, out)
    elif isinstance(obj, (dict, list, tuple)):
        _write(dict(obj) if isinstance(obj, dict) else list(obj), newline, out)
    else:
        raise TypeError(f"Object of type {t.__name__} is not canonical JSON")


def canonical_dumps(obj) -> str:
    """Pretty canonical document: stable bytes under a parse/re-dump cycle,
    written as pieces into one list and joined once."""
    out = []
    _write(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def canonical_line(obj) -> str:
    """Compact canonical form, one line, for JSON-lines output."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
