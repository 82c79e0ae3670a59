"""Fuzzing of the JSON document parsers: every document either parses, and
its canonical re-serialization then parses back to the same bytes, or is
rejected with a ValueError; nothing else may escape.

Documents are well-formed ones, the same with one value replaced by any
JSON tree or one key deleted, and arbitrary JSON trees.  The rationals in
them go through parse_fraction, whose grammar is pinned here too, as is
fraction_str.  The canonical writer itself is checked against json's
indent=2 encoder on arbitrary documents."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openbooks.contact import ContactSurgeryDiagram, expand_to_unit_coefficients, presentation_for
from openbooks.diagram import FramedLinkDiagram
from openbooks.pages import family_word
from openbooks.serialize import canonical_dumps, fraction_str, parse_fraction
from openbooks.veering import Certificate, prove_right_veering

from oracles import json_pretty


_TREES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=3)
    | st.floats(-2, 2, allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw, docs):
    """A document from `docs` with one value replaced or one key deleted."""
    doc = draw(docs)
    slots = []

    def walk(node):
        if isinstance(node, (dict, list)):
            for key in list(node) if isinstance(node, dict) else range(len(node)):
                slots.append((node, key))
                walk(node[key])

    walk(doc)
    if slots:
        node, key = draw(st.sampled_from(slots))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_TREES)
    return doc


def _documents(well_formed):
    return st.one_of(well_formed, _mutated(well_formed), _mutated(well_formed), _TREES)


_IDS = st.sampled_from(["a", "b", "c", "d"])
_DIAGRAMS = _documents(st.fixed_dictionaries(
    {"vertices": st.lists(st.fixed_dictionaries(
        {"id": _IDS, "framing": st.sampled_from(["1", "-2", "3/2", "0", "-7/3"]) | st.integers(-3, 3)},
        optional={"unknot": st.booleans()},
    ), max_size=4, unique_by=lambda v: v["id"])},
    optional={"edges": st.lists(st.tuples(_IDS, _IDS, st.integers(-2, 2)).map(list), max_size=4),
              "moves": st.just([])},
))
_CERTIFICATES = _documents(st.builds(
    lambda h, k: prove_right_veering(family_word(h, k)).to_jsonable(),
    st.integers(1, 3), st.integers(1, 3),
))
_CONTACT_DIAGRAMS = _documents(st.builds(
    lambda h, k, expand: (expand_to_unit_coefficients(presentation_for(h, k)) if expand
                          else presentation_for(h, k)).to_jsonable(),
    st.integers(1, 3), st.integers(1, 3), st.booleans(),
))


def _parses_to_canonical_or_raises_value_error(parse, doc):
    doc = json.loads(json.dumps(doc))
    try:
        parsed = parse(doc)
    except ValueError:
        return
    text = canonical_dumps(parsed.to_jsonable())
    assert canonical_dumps(parse(json.loads(text)).to_jsonable()) == text


@settings(derandomize=True, max_examples=400, deadline=None)
@given(doc=_DIAGRAMS)
def test_diagram_json_parses_to_canonical_or_raises_value_error(doc):
    _parses_to_canonical_or_raises_value_error(FramedLinkDiagram.from_jsonable, doc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_CERTIFICATES)
def test_certificate_json_parses_to_canonical_or_raises_value_error(doc):
    _parses_to_canonical_or_raises_value_error(Certificate.from_jsonable, doc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(doc=_CONTACT_DIAGRAMS)
def test_contact_diagram_json_parses_to_canonical_or_raises_value_error(doc):
    _parses_to_canonical_or_raises_value_error(ContactSurgeryDiagram.from_jsonable, doc)


def test_parse_fraction_accepts_only_signed_digits_over_digits():
    for text, value in [("3", 3), ("-3/2", Fraction(-3, 2)), ("+4/6", Fraction(2, 3)), ("007", 7)]:
        assert parse_fraction(text) == value
    assert parse_fraction(-5) == -5
    # exponents (10^1000000 from a few bytes), decimals, whitespace,
    # underscores, non-ASCII digits, zero denominators, floats and bools
    for bad in ["1e1000000", "1e3", "1.6", ".5", " 3/4 ", "3\n", "1_000", "\u0663",
                "3/0", "3/-4", "", "+", "inf", "nan", 1.0, True, None, [1]]:
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_fraction_str_renders_ints_and_fractions_only():
    for x, text in [(0, "0"), (4, "4"), (-7, "-7"), (Fraction(-3, 2), "-3/2"),
                    (Fraction(6, 3), "2"), (Fraction(-10**30, 7), f"-{10**30}/7"), (True, "1")]:
        assert fraction_str(x) == text
    for bad in [1.5, 2.0, "3/2", "4", None, [1]]:
        with pytest.raises(TypeError):
            fraction_str(bad)


# strings with every JSON escape: quotes, backslashes, control and
# non-ASCII characters, lone surrogates
_STRINGS = st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600a')
                   | st.characters(exclude_categories=()), max_size=6)


class _Int(int):
    def __repr__(self):
        return "not json"


class _Str(str):
    def __str__(self):
        return "not json"


class _Dict(dict):
    pass


class _List(list):
    pass


# subclasses of int, str, dict and list are written as their base types
_DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-2**64) | _STRINGS
    | st.sampled_from([[], (), {}]) | st.integers().map(_Int) | _STRINGS.map(_Str),
    lambda kids: st.lists(kids, max_size=4) | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_STRINGS, kids, max_size=4)
    | st.dictionaries(_STRINGS, kids, max_size=2).map(_Dict)
    | st.lists(kids, max_size=2).map(_List),
    max_leaves=12,
)


@st.composite
def _deep(draw):
    """A document inside 100 to 300 levels of lists, tuples and dicts, in a
    drawn repeating pattern."""
    doc = draw(_DOCUMENTS)
    pattern = draw(st.text("lt{", min_size=1, max_size=4))
    for level in range(draw(st.integers(100, 300))):
        wrap = pattern[level % len(pattern)]
        doc = [doc] if wrap == "l" else (doc, 0) if wrap == "t" else {"k": doc, "": None}
    return doc


@settings(derandomize=True, max_examples=200, deadline=None)
@given(doc=_DOCUMENTS | _deep())
def test_canonical_dumps_writes_the_bytes_of_json_indent_2(doc):
    assert canonical_dumps(doc) == json_pretty(doc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(doc=_DOCUMENTS, bad=st.sampled_from([0.5, -0.0, float("nan"), Fraction(1, 2), Fraction(4)]),
       key=st.sampled_from([1, None, True, 2.5, ("a",)]))
def test_canonical_dumps_refuses_floats_fractions_and_non_string_keys(doc, bad, key):
    # json would write the floats and turn these keys into strings;
    # canonical output has neither
    for wrapped in [bad, [doc, bad], {"a": doc, "b": {"c": bad}}, ({key: doc},),
                    {"a": doc, key: doc}]:
        with pytest.raises(TypeError):
            canonical_dumps(wrapped)
