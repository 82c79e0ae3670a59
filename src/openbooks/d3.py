"""Homotopy invariant of the family's contact structures, and the tight census.

For a contact surgery presentation in which every coefficient is +-1, on a
link with integer linking matrix Q, rotation vector r and q_+ components
carrying coefficient +1, the d3 invariant of the resulting contact
structure on the surgered rational homology sphere is

    d3 = (c^2 - 2*chi - 3*sigma) / 4 + q_+

where chi = 1 + size(Q), sigma is the signature of Q, and c^2 = r^T Q^-1 r.
The normalization makes the empty presentation give d3(S^3, standard) =
-1/2, and adding a cancelling (+1, -1) pushoff pair never changes the
value; both facts are pinned by calibration tests rather than trusted.
Only c^2 depends on the rotation vector, so each Q is eliminated once, by
linalg.solve on sparse integer rows with right-hand sides r riding along:
the last pivot is det Q, Jacobi's rule gives sigma, and each r gets its
bordered corner det [[Q, r], [r^T, 0]] = -r^T adj(Q) r, so each d3 is one
exact Fraction(base - corner, 4 det Q).  A verdict is two such passes.
The family's rows come straight from the expanded diagram's framings and
linking edges, with rho as the right-hand side; its pushoff stacks are
dense, but linalg slides each pushoff over its twin first, so the pass
costs O(h + k) pivot steps.  The census chain carries one right-hand side
per pair of components that can rotate (framing <= -3), which gives adj(Q)
on them and so every entry's corner, however many entries there are.

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
from .contact import expand_to_unit_coefficients, presentation_for
from .lens import LensSpace, family_lens, neg_cf_expand
from .pages import check_family
from .serialize import exact_int, fraction_str

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
        if tuple(map(tuple, self.q)) != tuple(zip(*self.q)):
            raise ValueError("Q must be symmetric")
        if exact_int(self.q_plus, "q_plus") < 0:
            raise ValueError("q_plus is a count")


def _expanded_rows(d):
    """The linking matrix of an expanded contact surgery diagram as sparse
    integer rows, with rho in column n, and q_+.  Framings are tb + the
    contact coefficient; each linking edge gives both of its entries, so the
    rows are symmetric as written."""
    index = {}
    rows = []
    q_plus = 0
    n = len(d.components)
    for i, c in enumerate(d.components):
        if c.contact_coeff not in (1, -1):
            raise ValueError(
                f"component {c.id!r} has coefficient {c.contact_coeff}; expand first"
            )
        index[c.id] = i
        q_plus += c.contact_coeff == 1
        rows.append({j: x for j, x in ((i, c.tb + c.contact_coeff.numerator), (n, c.rot)) if x})
    for a, b, w in d.linking:
        i, j = index[a], index[b]
        rows[i][j] = rows[j][i] = w
    return rows, q_plus


def from_expanded_diagram(d) -> PM1Presentation:
    """The presentation data of an expanded contact surgery diagram, dense."""
    rows, q_plus = _expanded_rows(d)
    n = len(rows)
    q = tuple(tuple(row.get(j, 0) for j in range(n)) for row in rows)
    return PM1Presentation(q, tuple(c.rot for c in d.components), q_plus)


def _solve(rows, n, count):
    """linalg.solve, with the error d3 gives for a singular Q."""
    try:
        return linalg.solve(rows, n, count)
    except linalg.SingularMatrixError:
        raise linalg.SingularMatrixError(
            "d3 needs a rational homology sphere (det Q != 0)"
        ) from None


def _d3_values(det, sigma, n, q_plus, corners, scale=1):
    """d3 = (c^2 - 2 chi - 3 sigma) / 4 + q_+ for each corner, one Fraction
    apiece.  The elimination ran on scale * Q and scale * r, so det is
    det(scale Q), c^2 = -corner / (scale det), and d3 = (base - corner) /
    (4 scale det); 4 |det Q| d3 = (base - corner) / scale^(n+1) is checked
    to be an integer."""
    denominator = 4 * scale * det
    base = (4 * q_plus - 2 * (1 + n) - 3 * sigma) * scale * det
    bound = scale ** (n + 1)
    values = []
    for corner in corners:
        numerator = base - corner
        if numerator % bound:
            raise ArithmeticError("d3 denominator exceeded 4|det Q|")
        values.append(Fraction(numerator, denominator))
    return values


def d3(pres: PM1Presentation) -> Fraction:
    """The d3 invariant of the presentation, an exact rational.

    Requires det Q != 0 (a rational homology sphere).  The reduced
    denominator always divides 4 |det Q|, which is checked.
    """
    rows, scale = linalg.symmetric_rows(pres.q, [pres.rho])
    n = len(rows)
    det, sigma, corners = _solve(rows, n, 1)
    [value] = _d3_values(det, sigma, n, pres.q_plus, corners, scale)
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


def tight_census(space: LensSpace):
    """All tight contact structures on L(p, q), p >= 2, with their d3 values.

    The chain is the negated negative continued fraction expansion of p/q;
    each component admits rotation numbers a_i + 2, a_i + 4, ..., -a_i - 2,
    so the census has prod(|a_i| - 1) entries.  Sorted by rotation vector.

    A rotation vector r is 0 off the support S = {i : a_i <= -3}, so the
    one elimination carries e_i and, for i < j in S, e_i + e_j: their
    corners give A = adj(Q) on S by polarization (2 A_ij, checked even),
    and each entry's corner -r^T A r is an integer sum over S.
    """
    if space.p < 2:
        raise ValueError(f"census needs p >= 2, got {space}")
    chain = tuple(-a for a in neg_cf_expand(Fraction(space.p, space.q)))
    n = len(chain)
    support = [i for i, a in enumerate(chain) if a <= -3]
    pairs = [(i, j) for t, i in enumerate(support) for j in support[t:]]
    rows = [{i: a} for i, a in enumerate(chain)]
    for i in range(1, n):
        rows[i - 1][i] = rows[i][i - 1] = 1
    for t, (i, j) in enumerate(pairs):
        rows[i][n + t] = rows[j][n + t] = 1  # e_i when i == j
    det, sigma, corners = _solve(rows, n, len(pairs))
    block = {pair: -corner for pair, corner in zip(pairs, corners)}
    terms = []  # (i, j, the coefficient of r_i r_j in r^T adj(Q) r)
    for i, j in pairs:
        coefficient = block[i, j]
        if i != j:
            coefficient -= block[i, i] + block[j, j]
            if coefficient % 2:
                raise ArithmeticError("adj(Q) polarization is not exact")
        terms.append((i, j, coefficient))
    # a product of ascending ranges comes out in sorted order
    rotations = list(itertools.product(*(range(a + 2, -a - 1, 2) for a in chain)))
    corners = [-sum([x * r[i] * r[j] for i, j, x in terms]) for r in rotations]
    values = _d3_values(det, sigma, n, 0, corners)
    return tuple(TightDescriptor(chain, rot, value) for rot, value in zip(rotations, values))


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
    # the expanded diagram the values came from; not serialized or compared
    expanded: object = field(default=None, compare=False, repr=False)

    @property
    def presentation(self) -> PM1Presentation:
        """The dense presentation of the expanded diagram, built on each
        access: the verdict itself never needs Q densely."""
        return from_expanded_diagram(self.expanded)

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
    check_family(h, k)
    expanded = expand_to_unit_coefficients(presentation_for(h, k))
    space = family_lens(h, k)
    rows, q_plus = _expanded_rows(expanded)
    n = len(rows)
    det, sigma, [corner] = _solve(rows, n, 1)
    [value] = _d3_values(det, sigma, n, q_plus, [corner])
    census_values = tuple(t.d3 for t in tight_census(space))
    status = OVERTWISTED_CERTIFIED if value not in census_values else INCONCLUSIVE
    return Verdict(
        status=status,
        h=h,
        k=k,
        lens=space,
        d3_value=value,
        census_d3=census_values,
        sigma=sigma,
        c_squared=Fraction(-corner, det),
        q_plus=q_plus,
        det=det,
        expanded=expanded,
    )
