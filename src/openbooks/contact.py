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
to +-1 coefficients for the homotopy invariant computation.  The
expansion is kept as one stack record per knot, not as the O(m^2)
pairwise linkings of its pushoffs, so it costs O(h + k) to build, store
and serialize.

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
    """Legendrian unknots with a symmetric pairwise linking form, each knot
    of coefficient 1/m either drawn as itself or expanded into a stack.

    `knots` are the knots drawn and `linking` their canonical linking edges.
    A stack (companion, count, sign) stands for the knot `companion`, whose
    coefficient is sign/count, expanded into count parallel contact
    pushoffs companion.1, ..., companion.count of coefficient sign each: a
    pushoff keeps its companion's tb and rot, links its stack-mates at tb
    (the contact-framed pushoff linking number) and every other component
    as its companion does.  Stacks are sorted by companion, one per knot at
    most, and no other knot may hold a pushoff's id.  `components` lists
    the link's components, each stack in place of its companion, and is
    built on first read; unstacked() writes out their pairwise linking.
    The JSON lists the knots under "components" and, when there are any,
    the stacks under "stacks".
    """

    knots: tuple
    linking: tuple  # ((id_i, id_j, lk), ...), canonical as a diagram's edges
    stacks: tuple = ()  # ((companion id, count, sign), ...)

    def __post_init__(self):
        check_edges([c.id for c in self.knots], self.linking)
        if self.stacks:
            _check_stacks(self.knots, self.stacks)

    @staticmethod
    def build(components, linking: dict) -> "ContactSurgeryDiagram":
        """Construct from components and a linking dict {(i, j): lk}; zero
        entries are dropped and pairs are canonicalized."""
        return ContactSurgeryDiagram(tuple(components), canonical_edges(linking))

    def members(self):
        """(knot, count, coefficient) for each knot, in order: a stacked knot
        stands for its count pushoffs of coefficient sign, any other knot
        for itself, once, at its own coefficient."""
        stacks = {c: (count, sign) for c, count, sign in self.stacks}
        for c in self.knots:
            stack = stacks.get(c.id)
            yield (c, 1, c.contact_coeff) if stack is None else (c, stack[0], Fraction(stack[1]))

    def _groups(self):
        """Each knot with its components: its pushoffs, or itself."""
        stacked = {c for c, _, _ in self.stacks}
        for c, count, coeff in self.members():
            yield c, ([LegendrianUnknotData(f"{c.id}.{i}", c.tb, c.rot, coeff)
                       for i in range(1, count + 1)] if c.id in stacked else [c])

    @cached_property
    def components(self):
        """One component per pushoff, each stack in place of its companion."""
        return tuple(p for _, group in self._groups() for p in group) if self.stacks else self.knots

    def unstacked(self) -> "ContactSurgeryDiagram":
        """The same link with every stack written out: one knot per component
        and all their pairwise linking, about n^2/2 edges, for the smooth
        diagram of the expanded link."""
        if not self.stacks:
            return self
        groups = {c.id: (c, group) for c, group in self._groups()}
        linking = {}
        for c, group in groups.values():
            for a, p in enumerate(group):
                for q in group[a + 1:]:
                    linking[p.id, q.id] = c.tb
        for i, j, w in self.linking:
            for p in groups[i][1]:
                for q in groups[j][1]:
                    linking[p.id, q.id] = w
        return ContactSurgeryDiagram.build([p for _, group in groups.values() for p in group], linking)

    def to_jsonable(self):
        out = {
            "components": [c.to_jsonable() for c in self.knots],
            "linking": [[i, j, w] for i, j, w in self.linking],
        }
        if self.stacks:
            out["stacks"] = [{"companion": c, "count": count, "sign": sign}
                             for c, count, sign in self.stacks]
        return out

    @classmethod
    def from_jsonable(cls, data) -> "ContactSurgeryDiagram":
        """Parse a contact diagram document; any malformed input is a ValueError."""
        try:
            components = data["components"]
            linking, stacks = data.get("linking", []), data.get("stacks", [])
            if not all(isinstance(x, list) for x in (components, linking, stacks)):
                raise TypeError("components, linking and stacks are lists")
            knots = tuple(LegendrianUnknotData(c["id"], c["tb"], c["rot"], parse_fraction(c["coeff"]))
                          for c in components)
            stacks = sorted((s["companion"], s["count"], s["sign"]) for s in stacks)
            return cls(knots, tuple(sorted(map(tuple, linking))), tuple(stacks))
        except (KeyError, TypeError, AttributeError) as e:
            raise ValueError(f"malformed contact diagram JSON: {e!r}") from None


def _check_stacks(knots, stacks):
    """Each stack (companion, count, sign) names a knot of coefficient
    sign/count, count an int >= 1 and sign +-1, in ascending companion
    order (so once each); and no unstacked knot holds a pushoff's id.  The
    ids are checked against the knots, never by writing every pushoff."""
    coeff = {c.id: c.contact_coeff for c in knots}
    counts = {}
    last = None
    for companion, count, sign in stacks:
        if not isinstance(companion, str):
            raise TypeError(f"a stack's companion is a str id, got {companion!r}")
        if exact_int(count, "a stack's count") < 1 or exact_int(sign, "a stack's sign") not in (1, -1):
            raise ValueError(f"a stack has count >= 1 and sign +-1, got {count} and {sign}")
        if last is not None and companion <= last:
            raise ValueError("stacks must be sorted by companion, one stack per knot")
        last = companion
        if companion not in coeff:
            raise ValueError(f"stack of unknown knot {companion!r}")
        if coeff[companion] != Fraction(sign, count):
            raise ValueError(f"a stack of {count} pushoffs of coefficient {sign} expands "
                             f"1/{sign * count}, not {coeff[companion]}, at {companion!r}")
        counts[companion] = count
    for c in knots:
        stem, dot, tail = c.id.rpartition(".")
        if (dot and c.id not in counts and stem in counts and tail.isascii()
                and tail.isdecimal() and tail[0] != "0" and parse_fraction(tail) <= counts[stem]):
            raise ValueError(f"pushoff id {c.id!r} is taken")


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
    """Stack each knot of coefficient 1/m, |m| > 1, as |m| contact pushoffs
    of coefficient sign(m), in O(number of knots).

    The knots and their linking are kept as they are; the pushoffs and their
    pairwise linking are left implicit in the stack (companion, |m|,
    sign(m)), as ContactSurgeryDiagram describes.  Knots whose coefficient
    is already +-1 stay themselves.  A pushoff id that is already taken is
    a ValueError.
    """
    stacks = set(d.stacks)
    for c in d.knots:
        num, den = c.contact_coeff.numerator, c.contact_coeff.denominator
        if abs(num) != 1:
            raise UnsupportedCoefficientError(
                f"coefficient {c.contact_coeff} of {c.id!r} is not of the form 1/m"
            )
        if den > 1:
            stacks.add((c.id, den, num))
    if stacks == set(d.stacks):
        return d
    return ContactSurgeryDiagram(d.knots, d.linking, tuple(sorted(stacks)))


def smooth_diagram(d: ContactSurgeryDiagram) -> FramedLinkDiagram:
    """Forget the contact structure: framings become tb + contact coefficient,
    one vertex per component: per knot of the unstacked diagram."""
    d = d.unstacked()
    return FramedLinkDiagram(tuple(Vertex(c.id, c.smooth_coeff) for c in d.knots), d.linking)
