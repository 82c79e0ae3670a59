"""Fuzzing of the JSON document parsers: every document either parses, and
its canonical re-serialization then parses back to the same bytes, or is
rejected with a ValueError; nothing else may escape.

Documents are well-formed ones, the same with one value replaced by any
JSON tree or one key deleted, and arbitrary JSON trees.  The rationals in
them go through parse_fraction, whose grammar is pinned here too."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from openbooks.contact import ContactSurgeryDiagram, expand_to_unit_coefficients, presentation_for
from openbooks.diagram import FramedLinkDiagram
from openbooks.pages import family_word
from openbooks.serialize import canonical_dumps, parse_fraction
from openbooks.veering import Certificate, prove_right_veering


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
