"""Homotopy invariant of the family's contact structures, and the tight census.

For a contact surgery presentation in which every coefficient is +-1, on a
link with integer linking matrix Q, rotation vector r and q_+ components
carrying coefficient +1, the d3 invariant of the resulting contact
structure on the surgered rational homology sphere is

    d3 = (c^2 - 2*chi - 3*sigma) / 4 + q_+

where chi = 1 + size(Q), sigma is the signature of Q, and c^2 = x . r for
the exact solution of Q x = r.  The normalization makes the empty
presentation give d3(S^3, standard) = -1/2, and adding a cancelling
(+1, -1) pushoff pair never changes the value; both facts are pinned by
calibration tests rather than trusted.  Only c^2 depends on the rotation
vector, so det Q and sigma are computed once per Q, each by linalg's
integer Bareiss elimination (the last pivot, and Jacobi's rule on the
pivots' signs), and c^2 once per rotation vector by an exact solve: the
verdict reads all three terms from one pass, and the census solves its
chain's Q once for each rotation choice.

Every tight contact structure on a lens space L(p, q) (p >= 2) arises
from Legendrian surgery on a chain of stabilized unknots realizing the
negative continued fraction expansion of p/q; the census enumerates all
rotation-number choices on that chain, of which there are the product of
(|a_i| - 1).  Comparing d3 of the family presentation against the census
values yields the overtwistedness verdict: d3 is a homotopy invariant,
and on a lens space every contact structure is either overtwisted or
Stein fillable (hence isotopic to a census structure), so a d3 value
that matches no census entry certifies overtwistedness.  A match is
always reported as INCONCLUSIVE, never as a negative certificate; the
comparison deliberately uses the d3 multiset only, without trying to
match spin-c structures across presentations.
"""

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .contact import expand_to_unit_coefficients, presentation_for, smooth_diagram
from .lens import LensSpace, family_lens, neg_cf_expand
from .serialize import fraction_str

OVERTWISTED_CERTIFIED = "OVERTWISTED_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class PM1Presentation:
    """A +-1-coefficient contact surgery presentation, smoothed.

    q: symmetric integer linking matrix (smooth framings on the diagonal);
    rho: rotation numbers; q_plus: how many coefficients are +1.
    """

    q: tuple  # tuple of tuples of ints
    rho: tuple
    q_plus: int

    def __post_init__(self):
        n = len(self.q)
        if any(len(row) != n for row in self.q):
            raise ValueError("Q must be square")
        if len(self.rho) != n:
            raise ValueError("rho length must match Q")
        for i in range(n):
            for j in range(i):
                if self.q[i][j] != self.q[j][i]:
                    raise ValueError("Q must be symmetric")
        if self.q_plus < 0:
            raise ValueError("q_plus is a count")

    @property
    def size(self) -> int:
        return len(self.q)


def from_expanded_diagram(d) -> PM1Presentation:
    """Build the presentation data from an expanded contact surgery diagram."""
    for c in d.components:
        if c.contact_coeff not in (1, -1):
            raise ValueError(
                f"component {c.id!r} has coefficient {c.contact_coeff}; expand first"
            )
    smooth = smooth_diagram(d)
    q = tuple(tuple(row) for row in smooth.linking_matrix())
    rho = tuple(c.rot for c in d.components)
    q_plus = sum(1 for c in d.components if c.contact_coeff == 1)
    return PM1Presentation(q, rho, q_plus)


def family_presentation(h: int, k: int) -> PM1Presentation:
    """Expanded +-1 presentation of the (h, k) family: k+1 positive
    coefficients on the tb = -2 pushoffs and h negative ones on tb = -3."""
    return from_expanded_diagram(expand_to_unit_coefficients(presentation_for(h, k)))


def _d3_terms(q, rotations, q_plus):
    """det Q, sigma(Q), and (d3, c^2) for each rotation vector; see d3."""
    matrix = [list(row) for row in q]
    det = linalg.det(matrix)
    if det == 0:
        raise linalg.SingularMatrixError(
            "d3 needs a rational homology sphere (det Q != 0)"
        )
    sigma = linalg.signature(matrix)
    constant = -2 * (1 + len(matrix)) - 3 * sigma  # -2 chi - 3 sigma
    values = []
    for rot in rotations:
        x = linalg.solve(matrix, list(rot))
        c_squared = sum(xi * ri for xi, ri in zip(x, rot))
        value = Fraction(c_squared + constant, 4) + q_plus
        if (value * 4 * det).denominator != 1:
            raise ArithmeticError("d3 denominator exceeded 4|det Q|")
        values.append((value, c_squared))
    return det, sigma, values


def d3(pres: PM1Presentation) -> Fraction:
    """The d3 invariant of the presentation, an exact rational.

    Requires det Q != 0 (a rational homology sphere).  The reduced
    denominator always divides 4 |det Q|, which is checked.
    """
    if pres.size == 0:
        return Fraction(-1, 2)
    _, _, [(value, _)] = _d3_terms(pres.q, [pres.rho], pres.q_plus)
    return value


@dataclass(frozen=True)
class TightDescriptor:
    """One tight structure on a lens space: surgery chain, rotations, d3."""

    chain: tuple  # framings a_i <= -2 along the chain
    rot: tuple
    d3: Fraction

    def to_jsonable(self):
        return {
            "chain": list(self.chain),
            "rot": list(self.rot),
            "d3": fraction_str(self.d3),
        }


def _chain_matrix(chain):
    n = len(chain)
    q = [[0] * n for _ in range(n)]
    for i, a in enumerate(chain):
        q[i][i] = a
    for i in range(n - 1):
        q[i][i + 1] = 1
        q[i + 1][i] = 1
    return q


def tight_census(space: LensSpace):
    """All tight contact structures on L(p, q), p >= 2, with their d3 values.

    The chain is the negated negative continued fraction expansion of p/q;
    each component admits rotation numbers a_i + 2, a_i + 4, ..., -a_i - 2,
    so the census has prod(|a_i| - 1) entries.  Sorted by rotation vector.
    """
    if space.p < 2:
        raise ValueError(f"census needs p >= 2, got {space}")
    chain = tuple(-a for a in neg_cf_expand(Fraction(space.p, space.q)))
    rotations = sorted(itertools.product(*(range(a + 2, -a - 1, 2) for a in chain)))
    _, _, values = _d3_terms(_chain_matrix(chain), rotations, 0)
    return tuple(
        TightDescriptor(chain, rot, value) for rot, (value, _) in zip(rotations, values)
    )


def census_size_formula(space: LensSpace) -> int:
    """prod(|a_i| - 1) over the chain; the expected census count."""
    chain = neg_cf_expand(Fraction(space.p, space.q))
    return math.prod(a - 1 for a in chain)


@dataclass(frozen=True)
class Verdict:
    """Overtwistedness verdict for one (h, k), with the full comparison data."""

    status: str
    h: int
    k: int
    lens: LensSpace
    d3_value: Fraction
    census_d3: tuple
    sigma: int
    c_squared: Fraction
    q_plus: int
    det: int
    # the family presentation the values came from; not serialized or compared
    presentation: PM1Presentation = field(default=None, compare=False, repr=False)

    @property
    def certified(self) -> bool:
        return self.status == OVERTWISTED_CERTIFIED

    def to_jsonable(self):
        return {
            "status": self.status,
            "h": self.h,
            "k": self.k,
            "lens": self.lens.to_jsonable(),
            "d3": fraction_str(self.d3_value),
            "census_d3": [fraction_str(v) for v in self.census_d3],
            "sigma": self.sigma,
            "c_squared": fraction_str(self.c_squared),
            "q_plus": self.q_plus,
            "det": self.det,
        }


def overtwisted_verdict(h: int, k: int) -> Verdict:
    """Compare d3 of the (h, k) contact structure with the tight census.

    OVERTWISTED_CERTIFIED when the value differs from every census value on
    the underlying lens space; INCONCLUSIVE (with the full data) otherwise.
    """
    if h < 1 or k < 1:
        raise ValueError(f"family is defined for h, k >= 1, got h={h}, k={k}")
    pres = family_presentation(h, k)
    det, sigma, [(value, c_squared)] = _d3_terms(pres.q, [pres.rho], pres.q_plus)
    space = family_lens(h, k)
    census = tight_census(space)
    census_values = tuple(t.d3 for t in census)
    status = OVERTWISTED_CERTIFIED if value not in census_values else INCONCLUSIVE
    return Verdict(
        status=status,
        h=h,
        k=k,
        lens=space,
        d3_value=value,
        census_d3=census_values,
        sigma=sigma,
        c_squared=c_squared,
        q_plus=pres.q_plus,
        det=int(det),
        presentation=pres,
    )
