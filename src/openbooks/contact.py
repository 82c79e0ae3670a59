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

from .diagram import FramedLinkDiagram, Vertex, canonical_edges, check_edges, is_json_edge_list
from .serialize import fraction_str, parse_fraction


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
    """A Legendrian unknot surgery component: classical invariants and coefficient."""

    id: str
    tb: int
    rot: int
    contact_coeff: Fraction

    def __post_init__(self):
        object.__setattr__(self, "contact_coeff", Fraction(self.contact_coeff))
        if self.tb > -1:
            raise ValueError(f"a Legendrian unknot has tb <= -1, got {self.tb}")
        if abs(self.rot) > abs(self.tb) - 1:
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
            linking = data.get("linking", [])
            if not (all(isinstance(c.id, str) and type(c.tb) is int and type(c.rot) is int
                        for c in comps) and is_json_edge_list(linking)):
                raise ValueError("contact diagram JSON needs string ids, integer tb and rot "
                                 "and [id, id, integer] linking entries")
            return cls(comps, tuple(sorted(map(tuple, linking))))
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed contact diagram JSON: {e!r}") from None


def presentation_for(h: int, k: int) -> ContactSurgeryDiagram:
    """The two-component contact surgery presentation of the (h, k) family.

    K_e: tb = -2, rot = -1, coefficient 1/(k+1)  (k+1 negative twists);
    K_a: tb = -3, rot = -2, coefficient -1/h     (h positive twists);
    lk(K_e, K_a) = -2.
    """
    if h < 1 or k < 1:
        raise ValueError(f"family is defined for h, k >= 1, got h={h}, k={k}")
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
    coefficient is already +-1 pass through as themselves.
    """
    groups = []
    for c in d.components:
        num, den = c.contact_coeff.numerator, c.contact_coeff.denominator
        if abs(num) != 1:
            raise UnsupportedCoefficientError(
                f"coefficient {c.contact_coeff} of {c.id!r} is not of the form 1/m"
            )
        count = den  # |m| where the coefficient is 1/m = num/den with num = +-1
        sign = num
        if count == 1:
            groups.append((c, [c]))
            continue
        pushoffs = [
            LegendrianUnknotData(f"{c.id}.{i}", c.tb, c.rot, Fraction(sign))
            for i in range(1, count + 1)
        ]
        groups.append((c, pushoffs))
    components = [p for _, grp in groups for p in grp]
    linking = {}
    for gi, (ci, grp_i) in enumerate(groups):
        for a in range(len(grp_i)):
            for b in range(a + 1, len(grp_i)):
                linking[(grp_i[a].id, grp_i[b].id)] = ci.tb
        for cj, grp_j in groups[gi + 1:]:
            w = d.lk(ci.id, cj.id)
            if w:
                for pa in grp_i:
                    for pb in grp_j:
                        linking[(pa.id, pb.id)] = w
    return ContactSurgeryDiagram.build(components, linking)


def smooth_diagram(d: ContactSurgeryDiagram) -> FramedLinkDiagram:
    """Forget the contact structure: framings become tb + contact coefficient."""
    return FramedLinkDiagram(tuple(Vertex(c.id, c.smooth_coeff) for c in d.components), d.linking)
