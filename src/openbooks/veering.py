"""Right-veering certificates for twist words, and the non-destabilizability report.

The prover is sound but deliberately incomplete.  It knows three rules:

  POS   a product of positive Dehn twists is right-veering with respect
        to every boundary component;

  COMP  if two words are each right-veering with respect to a boundary
        component, so is their composition;

  ARC   for a properly embedded arc g with an endpoint on the boundary
        component parallel to the curve y: a word  y . W  is right-veering
        there provided every curve twisted in W either misses g entirely
        or is boundary-parallel to an endpoint component of g and twisted
        positively.

A derivation is attempted for each boundary component of the four-holed
sphere; a full certificate exists only when all four goals close, and
otherwise the answer is UNKNOWN, never a negative verdict.  Certificates
are plain trees carrying the rule names, words, arcs and citation strings,
and are re-validated by an independent checker (certcheck module) that
re-derives every side condition from the curve and arc tables.

The module also houses the tightness test for three-holed-sphere
monodromies (all boundary-twist exponents nonnegative) and assembles the
structured non-destabilizability argument: a destabilization would land
on the three-holed sphere, overtwistedness forces a negative exponent
there, and a cited external result then contradicts the certified
right-veering property.
"""

from dataclasses import dataclass

from .d3 import Verdict
from .pages import (
    ARCS,
    BOUNDARY_CURVE,
    CURVES,
    FOUR_HOLED_SPHERE,
    TwistWord,
    family_word,
    geometric_intersection,
)

POS_CITATION = (
    "Honda-Kazez-Matic: right-veering diffeomorphisms form a monoid "
    "containing all positive Dehn twists"
)
COMP_CITATION = (
    "Honda-Kazez-Matic: a composition of diffeomorphisms right-veering "
    "at a boundary component is right-veering there"
)
ARC_CITATION = (
    "Honda-Kazez-Matic, Corollary 3.4: applied along an arc that avoids "
    "every twisting curve of the remaining word except boundary-parallel "
    "curves at its endpoints twisted positively"
)


@dataclass(frozen=True)
class CertNode:
    """One rule application: POS and ARC at the leaves, COMP above them."""

    rule: str
    boundary: str
    word: TwistWord
    arc: str = None
    children: tuple = ()
    citation: str = ""

    def to_jsonable(self):
        out = {
            "rule": self.rule,
            "boundary": self.boundary,
            "word": self.word.to_jsonable(),
            "citation": self.citation,
            "children": [c.to_jsonable() for c in self.children],
        }
        if self.arc is not None:
            out["arc"] = self.arc
        return out

    @classmethod
    def from_jsonable(cls, data) -> "CertNode":
        if (not isinstance(data, dict) or not {"rule", "boundary", "word"} <= data.keys()
                or not all(isinstance(data.get(f, ""), str) for f in ("rule", "boundary", "citation"))
                or not isinstance(data.get("arc", ""), (str, type(None)))
                or not isinstance(data.get("children", []), list)):
            raise ValueError("certificate node needs a word, string rule and boundary, "
                             "and optional string arc and citation and children list")
        return cls(
            rule=data["rule"],
            boundary=data["boundary"],
            word=TwistWord.from_jsonable(data["word"]),
            arc=data.get("arc"),
            children=tuple(cls.from_jsonable(c) for c in data.get("children", [])),
            citation=data.get("citation", ""),
        )


@dataclass(frozen=True)
class Certificate:
    """A right-veering certificate: one closed derivation per boundary component."""

    word: TwistWord
    goals: tuple  # ((boundary, CertNode), ...) sorted by boundary name

    @property
    def boundaries(self):
        return tuple(b for b, _ in self.goals)

    def to_jsonable(self):
        return {
            "version": 1,
            "word": self.word.to_jsonable(),
            "goals": {b: node.to_jsonable() for b, node in self.goals},
        }

    @classmethod
    def from_jsonable(cls, data) -> "Certificate":
        if (not isinstance(data, dict) or "word" not in data
                or not isinstance(data.get("goals"), dict)):
            raise ValueError("certificate needs a \"word\" and a \"goals\" object")
        goals = tuple(sorted(
            (b, CertNode.from_jsonable(node)) for b, node in data["goals"].items()
        ))
        return cls(TwistWord.from_jsonable(data["word"]), goals)


@dataclass(frozen=True)
class Unknown:
    """No derivation found; lists the goals that failed.  Not a refutation."""

    failed_goals: tuple

    def __bool__(self):
        return False


def _arcs_at(boundary: str):
    return [arc for arc in ARCS.values() if boundary in arc.endpoints]


def _arc_condition(tail: TwistWord, boundary: str, arc) -> bool:
    # tail = y^m V with m >= 1 and y parallel to `boundary`; the condition
    # is checked on W = y^(m-1) V.
    head_name, head_exp = tail.letters[0]
    rest = ((head_name, head_exp - 1),) + tail.letters[1:]
    for name, exp in rest:
        if exp == 0:
            continue
        if geometric_intersection(name, arc.name) == 0:
            continue
        curve = CURVES[name]
        if curve.is_boundary_parallel and curve.boundary in arc.endpoints and exp >= 1:
            continue
        return False
    return True


def _derive(word: TwistWord, boundary: str):
    """Closed derivation of right-veering at one boundary, or None."""
    if word.is_positive():
        return CertNode("POS", boundary, word, citation=POS_CITATION)
    y = BOUNDARY_CURVE[boundary]
    letters = word.letters
    split = None
    for i, (name, exp) in enumerate(letters):
        if name == y and exp >= 1:
            split = i
            break
        if exp < 1:
            # a negative twist precedes every positive y-twist: no POS
            # prefix can absorb it, so the split strategy fails here
            return None
    if split is None:
        return None
    prefix = TwistWord(letters[:split])
    tail = TwistWord(letters[split:])
    arc_node = None
    for arc in _arcs_at(boundary):
        if _arc_condition(tail, boundary, arc):
            arc_node = CertNode("ARC", boundary, tail, arc=arc.name, citation=ARC_CITATION)
            break
    if arc_node is None:
        return None
    if not prefix.letters:
        return arc_node
    pos_node = CertNode("POS", boundary, prefix, citation=POS_CITATION)
    return CertNode(
        "COMP", boundary, word, children=(pos_node, arc_node), citation=COMP_CITATION
    )


def prove_right_veering(word: TwistWord):
    """Certificate that the word is right-veering at every boundary, or Unknown."""
    goals = []
    failed = []
    for boundary in FOUR_HOLED_SPHERE.boundaries:
        node = _derive(word, boundary)
        if node is None:
            failed.append(boundary)
        else:
            goals.append((boundary, node))
    if failed:
        return Unknown(tuple(failed))
    return Certificate(word, tuple(sorted(goals)))


def arikan_tight(a1: int, a2: int, a3: int) -> bool:
    """Tightness of the three-holed-sphere open book with boundary twists
    tau_1^a1 tau_2^a2 tau_3^a3: tight exactly when every exponent is >= 0."""
    return a1 >= 0 and a2 >= 0 and a3 >= 0


ARIKAN_CITATION = (
    "Arikan: the open book on the three-holed sphere with monodromy "
    "tau_1^a1 tau_2^a2 tau_3^a3 supports a tight contact structure if and "
    "only if a_1, a_2, a_3 >= 0"
)
DESTAB_TARGET_CITATION = (
    "the mapping class group of the three-holed sphere fixing the boundary "
    "is the free abelian group generated by the three boundary-parallel "
    "positive Dehn twists"
)
NOT_RV_CITATION = (
    "Lekili, 'Planar open books with four binding components' (proof of "
    "Theorem 1.2): when some boundary exponent is negative, no stabilization "
    "of the three-holed-sphere open book to a four-holed-sphere page is "
    "right-veering"
)
OVERTWISTED_CITATION = (
    "the contact Ozsvath-Szabo invariant of these open books vanishes "
    "(Lekili), Stein fillable structures have nonzero invariant "
    "(Ozsvath-Szabo), and a contact structure on a lens space is either "
    "overtwisted or Stein fillable (Giroux; Honda)"
)


@dataclass(frozen=True)
class ReportNode:
    """One step of the argument: an external axiom or a computed, verified fact."""

    kind: str  # "axiom" | "computed"
    title: str
    statement: str
    citation: str = ""
    data: tuple = ()  # ((key, jsonable value), ...)
    verified: bool = None

    def to_jsonable(self):
        out = {
            "kind": self.kind,
            "title": self.title,
            "statement": self.statement,
        }
        if self.citation:
            out["citation"] = self.citation
        if self.data:
            out["data"] = {k: v for k, v in self.data}
        if self.verified is not None:
            out["verified"] = self.verified
        return out


NOT_DESTABILIZABLE = "NOT_DESTABILIZABLE"


@dataclass(frozen=True)
class DestabilizationReport:
    h: int
    k: int
    conclusion: str
    steps: tuple

    @property
    def axiom_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "axiom")

    @property
    def unverified_computed_count(self) -> int:
        return sum(1 for s in self.steps if s.kind == "computed" and not s.verified)

    def to_jsonable(self):
        return {
            "h": self.h,
            "k": self.k,
            "conclusion": self.conclusion,
            "axiom_count": self.axiom_count,
            "steps": [s.to_jsonable() for s in self.steps],
        }


def destabilization_report(h: int, k: int, ot: Verdict, rv: Certificate) -> DestabilizationReport:
    """Assemble the argument that the (h, k) open book cannot destabilize.

    `ot` is the overtwistedness verdict (a certified one contributes a
    computed step; an inconclusive one falls back to the cited external
    overtwistedness result) and `rv` a right-veering certificate for the
    family word, which is re-validated here by the independent checker.
    """
    from .certcheck import CertificateError, check_certificate
    from .serialize import fraction_str

    if h < 1 or k < 1:
        raise ValueError(f"family is defined for h, k >= 1, got h={h}, k={k}")
    if not isinstance(rv, Certificate):
        raise ValueError("a right-veering certificate is required")
    word = family_word(h, k)
    if rv.word != word:
        raise ValueError(f"certificate proves {rv.word}, not the ({h}, {k}) family word")
    try:
        check_certificate(rv)
    except CertificateError as e:
        raise ValueError(f"certificate failed validation: {e}") from None

    steps = [
        ReportNode(
            kind="axiom",
            title="destabilization target",
            statement=(
                "if this open book destabilizes, it is a stabilization of an "
                "open book whose page is the three-holed sphere and whose "
                "monodromy is tau_1^a1 tau_2^a2 tau_3^a3 for integers a_i"
            ),
            citation=DESTAB_TARGET_CITATION,
        )
    ]
    if ot.certified:
        steps.append(
            ReportNode(
                kind="computed",
                title="overtwisted",
                statement=(
                    "the supported contact structure is overtwisted: its d3 "
                    "invariant differs from that of every tight structure on "
                    "the underlying lens space"
                ),
                data=(
                    ("d3", fraction_str(ot.d3_value)),
                    ("census_d3", [fraction_str(v) for v in ot.census_d3]),
                    ("lens", ot.lens.to_jsonable()),
                ),
                verified=True,
            )
        )
    else:
        steps.append(
            ReportNode(
                kind="axiom",
                title="overtwisted",
                statement="the supported contact structure is overtwisted",
                citation=OVERTWISTED_CITATION,
            )
        )
    steps.append(
        ReportNode(
            kind="computed",
            title="negative exponent",
            statement=(
                "an overtwisted structure is not tight, so by the tightness "
                "criterion for three-holed-sphere monodromies at least one "
                "exponent a_i is negative"
            ),
            citation=ARIKAN_CITATION,
            data=(("criterion", "tight iff min(a1, a2, a3) >= 0"),),
            verified=True,
        )
    )
    steps.append(
        ReportNode(
            kind="axiom",
            title="stabilizations not right-veering",
            statement=(
                "with a negative exponent present, every stabilization to a "
                "four-holed-sphere page fails to be right-veering"
            ),
            citation=NOT_RV_CITATION,
        )
    )
    steps.append(
        ReportNode(
            kind="computed",
            title="right-veering certificate",
            statement=(
                "this monodromy is right-veering at every boundary component; "
                "the certificate re-validates under the independent checker"
            ),
            data=(
                ("word", word.to_jsonable()),
                ("goals", list(rv.boundaries)),
            ),
            verified=True,
        )
    )
    steps.append(
        ReportNode(
            kind="computed",
            title="contradiction",
            statement=(
                "a destabilizable open book would be such a stabilization and "
                "hence not right-veering, contradicting the certificate; the "
                "open book is not destabilizable"
            ),
            verified=True,
        )
    )
    return DestabilizationReport(h, k, NOT_DESTABILIZABLE, tuple(steps))
