"""Homotopy invariant of the family's contact structures, and the tight census.

For a contact surgery presentation in which every coefficient is +-1, on a
link with integer linking matrix Q, rotation vector r and q_+ components
carrying coefficient +1, the d3 invariant of the resulting contact
structure on the surgered rational homology sphere is

    d3 = (c^2 - 2*chi - 3*sigma) / 4 + q_+

where chi = 1 + size(Q), sigma is the signature of Q, and c^2 = r^T Q^-1 r
(Ding-Geiges-Stipsicz 2004).  d3 is the one function that computes it, on
an expanded contact surgery diagram, and the verdict calls it.  The
calibration tests call it too: they pin that the empty presentation gives
d3(S^3, standard) = -1/2 and that a cancelling (+1, -1) pushoff pair never
changes the value, and compare it with the test suite's dense oracle,
which shares no code with it.  Only c^2 depends on the rotation vector, so each
Q is eliminated once, by linalg.solve on sparse integer rows with
right-hand sides r riding along: the last pivot is det Q, Jacobi's rule
gives sigma, and each r gets its bordered corner det [[Q, r], [r^T, 0]] =
-r^T adj(Q) r, so each d3 is one exact Fraction(base - corner, 4 det Q).
A verdict is two such passes.  d3 writes its rows straight from the
diagram's pushoff stacks, each stack as the chain a handle slide of each
pushoff over the one before makes of it, with rho as the right-hand side,
so the rows have O(h + k) entries and the pass costs O(h + k) pivot steps.
The census chain carries one right-hand side per pair of components that
can rotate (framing <= -3), which gives adj(Q) on them and so every
entry's corner, however many entries there are; the verdict reads the d3
values only, so no census rotation vector is written out over the whole
chain.

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
from .serialize import fraction_str

OVERTWISTED_CERTIFIED = "OVERTWISTED_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


def _signed_members(d):
    """(knot, count, sign) for each knot of an expanded contact surgery
    diagram (ContactSurgeryDiagram.members): a coefficient other than +-1
    is a ValueError."""
    out = []
    for c, count, coeff in d.members():
        if coeff not in (1, -1):
            raise ValueError(f"component {c.id!r} has coefficient {coeff}; expand first")
        out.append((c, count, coeff.numerator))
    return out


def _slid_rows(d):
    """The linking matrix of an expanded contact surgery diagram as sparse
    integer rows, each pushoff stack written already slid into a chain,
    with rho in column n, and q_+.  Framings are tb + the contact
    coefficient.

    A stack of m pushoffs of a knot (tb, rot), each of coefficient eps, is
    the block tb J + eps I of Q (J all ones), and each member links every
    other component as the knot does.  In the basis e_1, e_2 - e_1, ...,
    e_m - e_(m-1), a handle slide of each member over the one before
    (Q' = P^T Q P, r' = P^T r, det P = 1, so det, sigma and every c^2
    stay), the block is a chain: the first member keeps the diagonal
    tb + eps, the rotation and the linking to the other knots' first
    members; each later member has 2 eps on the diagonal, -eps to its
    neighbours in the stack, rotation 0 and nothing outside the stack.  So
    the rows have O(h + k) entries, and no pushoff linking is written."""
    members = _signed_members(d)
    n = sum(count for _, count, _ in members)
    first = {}  # knot id -> the row of its first member
    rows = []
    q_plus = 0
    for c, count, sign in members:
        i = len(rows)
        first[c.id] = i
        rows.append({j: x for j, x in ((i, c.tb + sign), (n, c.rot)) if x})
        for j in range(i + 1, i + count):  # each later member, a chain link
            rows[j - 1][j] = -sign
            rows.append({j - 1: -sign, j: 2 * sign})
        if sign == 1:
            q_plus += count
    for a, b, w in d.linking:
        i, j = first[a], first[b]
        rows[i][j] = rows[j][i] = w
    return rows, q_plus


def from_expanded_diagram(d):
    """Q and rho of an expanded contact surgery diagram, densely, as tuples,
    written block by block from its stacks: the stack of a knot (tb, rot)
    of m pushoffs of coefficient eps is the block tb J + eps I of Q, and a
    linking w between two knots fills the block between their stacks.  Only
    a caller that prints or compares Q needs it; the verdict never does."""
    members = _signed_members(d)
    n = sum(count for _, count, _ in members)
    q = [[0] * n for _ in range(n)]
    blocks = {}  # knot id -> the range of its components
    rho = []
    for c, count, sign in members:
        block = blocks[c.id] = range(len(rho), len(rho) + count)
        rho += [c.rot] * count
        for i in block:
            q[i][block.start:block.stop] = [c.tb] * count
            q[i][i] += sign
    for a, b, w in d.linking:
        for rows, cols in ((blocks[a], blocks[b]), (blocks[b], blocks[a])):
            for i in rows:
                q[i][cols.start:cols.stop] = [w] * len(cols)
    return tuple(map(tuple, q)), tuple(rho)


def _solve(rows, n, count):
    """linalg.solve, with the error d3 gives for a singular Q."""
    try:
        return linalg.solve(rows, n, count)
    except linalg.SingularMatrixError:
        raise linalg.SingularMatrixError(
            "d3 needs a rational homology sphere (det Q != 0)"
        ) from None


def _d3_values(det, sigma, n, q_plus, corners):
    """d3 = (c^2 - 2 chi - 3 sigma) / 4 + q_+ for each corner, one Fraction
    apiece: c^2 = -corner / det, so d3 = (base - corner) / (4 det)."""
    base = (4 * q_plus - 2 * (1 + n) - 3 * sigma) * det
    return [Fraction(base - corner, 4 * det) for corner in corners]


def d3(d):
    """(d3, det Q, sigma(Q), c^2, q_+) of an expanded contact surgery
    diagram, from one elimination of the rows _slid_rows writes: the d3
    route of the verdict and of the calibration.  Requires det Q != 0."""
    rows, q_plus = _slid_rows(d)
    n = len(rows)
    det, sigma, [corner] = _solve(rows, n, 1)
    [value] = _d3_values(det, sigma, n, q_plus, [corner])
    return value, det, sigma, Fraction(-corner, det), q_plus


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


def _census(space: LensSpace):
    """The chain of L(p, q), p >= 2, the support S = {i : a_i <= -3} of its
    rotation vectors, every rotation vector restricted to S, in sorted
    order, and the d3 of each, from one elimination.

    The chain is the negated negative continued fraction expansion of p/q;
    component i admits rotation numbers a_i + 2, a_i + 4, ..., -a_i - 2,
    which is only 0 off S.  So the one elimination carries e_i and, for
    i < j in S, e_i + e_j: their corners give A = adj(Q) on S by
    polarization (2 A_ij, checked even), and each entry's corner
    -r^T A r is an integer sum over S.  Nothing here is O(len(chain)) per
    entry.
    """
    if space.p < 2:
        raise ValueError(f"census needs p >= 2, got {space}")
    chain = tuple(-a for a in neg_cf_expand(Fraction(space.p, space.q)))
    n = len(chain)
    support = [i for i, a in enumerate(chain) if a <= -3]
    pairs = [(i, j) for i in range(len(support)) for j in range(i, len(support))]
    rows = [{i: a} for i, a in enumerate(chain)]
    for i in range(1, n):
        rows[i - 1][i] = rows[i][i - 1] = 1
    for col, (i, j) in enumerate(pairs, n):  # positions in the support
        rows[support[i]][col] = rows[support[j]][col] = 1  # e_i when i == j
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
    rotations = list(itertools.product(*(range(chain[i] + 2, -chain[i] - 1, 2) for i in support)))
    corners = [-sum([x * r[i] * r[j] for i, j, x in terms]) for r in rotations]
    return chain, support, rotations, _d3_values(det, sigma, n, 0, corners)


def tight_census(space: LensSpace):
    """All tight contact structures on L(p, q), p >= 2, with their d3 values:
    prod(|a_i| - 1) entries over the chain a, sorted by rotation vector."""
    chain, support, rotations, values = _census(space)
    census = []
    for r, value in zip(rotations, values):
        rot = [0] * len(chain)
        for i, x in zip(support, r):
            rot[i] = x
        census.append(TightDescriptor(chain, tuple(rot), value))
    return tuple(census)


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
    def presentation(self):
        """(Q, rho) of the expanded diagram, densely, built on each access:
        the verdict itself never needs Q densely."""
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
    value, det, sigma, c_squared, q_plus = d3(expanded)
    census_values = tuple(_census(space)[-1])  # the d3 values only
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
        q_plus=q_plus,
        det=det,
        expanded=expanded,
    )
