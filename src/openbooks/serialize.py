"""Canonical JSON helpers, and the one shape check of every JSON document.

All machine output goes through canonical_dumps / canonical_line: keys
sorted, fixed separators, and every rational rendered as an exact "p/q"
string (plain "n" when the denominator is 1).  Floats never appear: both
writers raise TypeError on one.  Each parser first checks its document
against a shape stated as data beside its to_jsonable (check_shape), and
leaves the semantic checks to the constructors.  A document written
here writes the same bytes again once parsed, except for what its parser
checks but does not keep: a diagram's "moves" (a 12-move log parses to
an empty one) and the "h1_order" that kirby replay adds.

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


_RATIONAL = re.compile(r"[+-]?[0-9]+(/0*[1-9][0-9]*)?")


def parse_fraction(s) -> Fraction:
    """Parse an int or a string of the form [+-]digits[/digits], such as
    "-3/2"; anything else (a float, a bool, a decimal or exponent string
    such as "1.6" or "1e3", a zero denominator, or more digits than int()
    reads) is a ValueError."""
    try:
        if type(s) is int or (isinstance(s, str) and _RATIONAL.fullmatch(s)):
            return Fraction(s)
    except ValueError:
        pass
    raise ValueError(f"not an exact rational of the form [+-]digits[/digits]: {s!r}")


def check_shape(value, shape, path="$"):
    """Check a parsed JSON value at `path` against a shape, which is data:
    int, str or bool (a value of exactly that type), Fraction (what
    parse_fraction reads), an exact value (1, "INF", None), [s] (a list of
    s), [s1, s2] (a list of two items, of those shapes), {str: s} (an
    object of s), {"k": s, "j?": t} (key k, optional key j, no other key)
    or (s1, s2) (the first alternative that fits; an object or a list is
    checked against the first object or list shape among them).  A shape
    may hold itself, as a certificate node its children.  A part that does
    not fit is a ValueError naming its JSON path, such as
    $.goals.∂a.children[1].word[0]; nothing is formatted before.  The
    check takes one frame per level, as the JSON decoder does."""
    try:
        fault = _fault(value, shape)
    except RecursionError:
        raise ValueError(f"{path}: JSON input is nested too deeply") from None
    if fault is not None:
        keys = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in reversed(fault[0]))
        raise ValueError(f"{path}{keys}: {fault[1]}")


def _fault(value, shape):
    """None, or ([key, ..., the parent's key], what does not fit)."""
    kind = type(shape)
    if kind is tuple:
        container = dict if type(value) is dict else list if type(value) in (list, tuple) else None
        for s in shape:
            if type(s) is container if type(s) in (dict, list) else _is_leaf(value, s):
                break
        else:
            return [], _expected(shape, value)
        shape, kind = s, type(s)
    if kind is not dict and kind is not list:
        return None if _is_leaf(value, shape) else ([], _expected(shape, value))
    if type(value) is not kind and (kind is dict or type(value) is not tuple):
        return [], _expected(shape, value)
    fields, required, each, _ = _FORMS.get(id(shape)) or _form(shape)
    if each is _NO and kind is list and len(value) != len(fields):
        return [], f"expected a list of {len(fields)} items, got {len(value)}"
    for key, item in value.items() if kind is dict else enumerate(value):
        s = fields.get(key, each)
        # no call for an exact leaf, a leaf among alternatives (_at_sight, in
        # line), or a list of exact leaves such as an [id, weight] pair, whose
        # types are its shape; a [curve, exponent] letter goes item by item
        if s is int or s is str or s is bool:
            if type(item) is not s:
                return [key], _expected(s, item)
        elif s is _NO:
            return [key], "unknown key"
        elif not ((t := type(s)) is tuple and (type(item) is str and item in s or type(item) in s)
                  or t is list and type(item) is list and len(item) == len(s)
                  and (list(map(type, item)) == s or all(map(_at_sight, item, s)))):
            fault = _fault(item, s)
            if fault is not None:
                fault[0].append(key)
                return fault
    missing = [k for k in required if k not in value] if len(value) < len(fields) else ()
    return ([missing[0]], "missing key") if missing else None


def _at_sight(value, shape) -> bool:
    """value fits shape, an exact type or alternatives, by its type or as
    one of the exact strings among them; False may still fit."""
    return type(value) is shape and (shape is int or shape is str or shape is bool) or type(
        shape) is tuple and (type(value) is str and value in shape or type(value) in shape)


def _is_leaf(value, shape) -> bool:
    if shape is Fraction:
        return type(value) is int or type(value) is str and _RATIONAL.fullmatch(value) is not None
    return type(value) is shape if type(shape) is type else (
        type(value) is type(shape) and value == shape)


_NO = object()
# id(shape) -> (fields, required keys, any other key's shape, the shape), read
# by every check of an object or list shape; the shapes are module constants,
# and holding each one keeps its id from naming another
_FORMS = {}


def _form(shape):
    """{key without its "?": shape} and the required keys of an object, or
    {} and the one shape of every item of a list or value of a map, or
    {index: shape} of a fixed list."""
    if type(shape) is dict and str not in shape:
        form = ({k.rstrip("?"): s for k, s in shape.items()},
                [k for k in shape if k[-1] != "?"], _NO, shape)
    elif type(shape) is dict or len(shape) == 1:
        form = ({}, (), shape[str] if type(shape) is dict else shape[0], shape)
    else:
        form = (dict(enumerate(shape)), (), _NO, shape)
    _FORMS[id(shape)] = form
    return form


_KINDS = {int: "an int", str: "a string", bool: "a bool", Fraction: "a rational p/q",
          dict: "an object", list: "a list", tuple: "a list"}


def _expected(shape, value) -> str:
    """A container value is named by its kind, not walked, and a long
    string is cut short."""
    got = _KINDS[type(value)] if type(value) in (dict, list, tuple) else json.dumps(
        value[:40] if type(value) is str else value, ensure_ascii=False, default=repr)
    return f"expected {_named(shape)}, got {got}"


def _named(shape) -> str:
    if type(shape) is tuple:
        return " or ".join(map(_named, shape))
    if type(shape) in (dict, list):
        return _KINDS[type(shape)]
    return _KINDS.get(shape) or json.dumps(shape, ensure_ascii=False)


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
