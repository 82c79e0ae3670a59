"""Contact surgery presentations for the twist-word family.

The open book with page the four-holed sphere and monodromy
a^h b c d e^-(k+1) differs from a standard open book of the tight
3-sphere by k+1 negative twists along the separating curve and h
positive twists along one boundary-parallel curve.  Both curves sit on
the page as Legendrian unknots whose contact framing agrees with the
page framing: the separating one is the once negatively stabilized
standard Legendrian unknot (tb = -2, rot = -1) and the other is its
further negative stabilization (tb = -3, rot = -2), and they link each
other at -2 (a contact pushoff links its companion at tb).

A positive twist along a page curve is a contact (-1)-surgery and a
negative twist a contact (+1)-surgery, so the family becomes contact
surgery with coefficient 1/(k+1) on the first knot and -1/h on the
second.  A 1/m coefficient expands into |m| parallel contact pushoffs
each carrying coefficient sign(m), which is how the diagram is reduced
to +-1 coefficients for the homotopy invariant computation.

Smooth surgery coefficients are tb + contact coefficient, giving the
rational framed-link diagram that the move engine reduces.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .diagram import FramedLinkDiagram, Vertex, canonical_edges, check_edges
from .pages import check_family
from .serialize import exact_fraction, exact_int, fraction_str, parse_fraction


class UnsupportedCoefficientError(ValueError):
    """A contact coefficient is not of the reciprocal-integer form 1/m."""


# The standard Legendrian unknot, and the effect of one negative stabilization.
STANDARD_UNKNOT_TB_ROT = (-1, 0)


def negative_stabilization(tb_rot):
    """tb drops by 1 and rot drops by 1 under a negative stabilization."""
    tb, rot = tb_rot
    return (tb - 1, rot - 1)


@dataclass(frozen=True)
class LegendrianUnknotData:
    """A Legendrian unknot surgery component: str id, int tb and rot, and coefficient."""

    id: str
    tb: int
    rot: int
    contact_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "contact_coeff", exact_fraction(self.contact_coeff))
        if not isinstance(self.id, str):
            raise TypeError(f"a component id is a str, got {self.id!r}")
        if exact_int(self.tb, "tb") > -1:
            raise ValueError(f"a Legendrian unknot has tb <= -1, got {self.tb}")
        if abs(exact_int(self.rot, "rot")) > abs(self.tb) - 1:
            raise ValueError(f"|rot| <= |tb| - 1 fails: tb={self.tb}, rot={self.rot}")
        if (self.rot - (self.tb + 1)) % 2 != 0:
            raise ValueError(f"rot and tb+1 must share parity: tb={self.tb}, rot={self.rot}")
        if self.contact_coeff == 0:
            raise ValueError("contact coefficient must be nonzero")

    @property
    def smooth_coeff(self) -> Fraction:
        return self.tb + self.contact_coeff

    def to_jsonable(self):
        return {
            "id": self.id,
            "tb": self.tb,
            "rot": self.rot,
            "coeff": fraction_str(self.contact_coeff),
        }


@dataclass(frozen=True)
class ContactSurgeryDiagram:
    """Legendrian unknot components with a symmetric pairwise linking form."""

    components: tuple
    linking: tuple  # ((id_i, id_j, lk), ...), canonical as a diagram's edges

    def __post_init__(self):
        check_edges([c.id for c in self.components], self.linking)

    @staticmethod
    def build(components, linking: dict) -> "ContactSurgeryDiagram":
        """Construct from components and a linking dict {(i, j): lk}; zero
        entries are dropped and pairs are canonicalized."""
        return ContactSurgeryDiagram(tuple(components), canonical_edges(linking))

    @cached_property
    def _lk(self):
        return {(i, j): w for i, j, w in self.linking}

    def lk(self, i: str, j: str) -> int:
        return self._lk.get((i, j) if i < j else (j, i), 0)

    def to_jsonable(self):
        return {
            "components": [c.to_jsonable() for c in self.components],
            "linking": [[i, j, w] for i, j, w in self.linking],
        }

    @classmethod
    def from_jsonable(cls, data) -> "ContactSurgeryDiagram":
        """Parse a contact diagram document; any malformed input is a ValueError."""
        try:
            comps = tuple(
                LegendrianUnknotData(c["id"], c["tb"], c["rot"], parse_fraction(c["coeff"]))
                for c in data["components"]
            )
            return cls(comps, tuple(sorted(map(tuple, data.get("linking", [])))))
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed contact diagram JSON: {e!r}") from None


def presentation_for(h: int, k: int) -> ContactSurgeryDiagram:
    """The two-component contact surgery presentation of the (h, k) family.

    K_e: tb = -2, rot = -1, coefficient 1/(k+1)  (k+1 negative twists);
    K_a: tb = -3, rot = -2, coefficient -1/h     (h positive twists);
    lk(K_e, K_a) = -2.
    """
    check_family(h, k)
    tb_e, rot_e = negative_stabilization(STANDARD_UNKNOT_TB_ROT)
    tb_a, rot_a = negative_stabilization((tb_e, rot_e))
    k_e = LegendrianUnknotData("K_e", tb_e, rot_e, Fraction(1, k + 1))
    k_a = LegendrianUnknotData("K_a", tb_a, rot_a, Fraction(-1, h))
    return ContactSurgeryDiagram.build((k_e, k_a), {("K_e", "K_a"): tb_e})


def expand_to_unit_coefficients(d: ContactSurgeryDiagram) -> ContactSurgeryDiagram:
    """Replace each 1/m coefficient by |m| contact pushoffs with coefficient +-1.

    Pushoffs of one component keep its (tb, rot), link each other at tb
    (the contact-framed pushoff linking number), and inherit the linking
    numbers to every other component unchanged.  Components whose
    coefficient is already +-1 pass through as themselves.  The linking is
    written once, in canonical order, so it is not re-checked; a pushoff id
    that is already taken is a ValueError.
    """
    components = []
    owner = {}  # expanded id -> the component it came from
    for c in d.components:
        num, den = c.contact_coeff.numerator, c.contact_coeff.denominator
        if abs(num) != 1:
            raise UnsupportedCoefficientError(
                f"coefficient {c.contact_coeff} of {c.id!r} is not of the form 1/m"
            )
        # |m| = den pushoffs of coefficient num = +-1
        unit = Fraction(num)
        members = [c] if den == 1 else [
            LegendrianUnknotData(f"{c.id}.{i}", c.tb, c.rot, unit) for i in range(1, den + 1)
        ]
        components += members
        owner.update((p.id, c) for p in members)
    if len(owner) != len(components):
        raise ValueError("vertex ids must be distinct")
    ids = sorted(owner)
    linking = []
    for a, i in enumerate(ids):
        ci = owner[i]
        for j in ids[a + 1:]:
            cj = owner[j]
            w = ci.tb if ci is cj else d.lk(ci.id, cj.id)
            if w:
                linking.append((i, j, w))
    # canonical by construction, so __post_init__'s edge check is skipped
    expanded = object.__new__(ContactSurgeryDiagram)
    object.__setattr__(expanded, "components", tuple(components))
    object.__setattr__(expanded, "linking", tuple(linking))
    return expanded


def smooth_diagram(d: ContactSurgeryDiagram) -> FramedLinkDiagram:
    """Forget the contact structure: framings become tb + contact coefficient."""
    return FramedLinkDiagram(tuple(Vertex(c.id, c.smooth_coeff) for c in d.components), d.linking)
