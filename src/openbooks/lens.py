"""Negative continued fractions and lens space identification.

The orientation convention throughout: L(p, q) is the result of rational
surgery on an unknot in S^3 with coefficient -p/q.  A linear chain of
unknots with integer framings [-a_1, ..., -a_n] and consecutive linking
number +1 is equivalent, by repeated slam dunks, to a single unknot with
coefficient -p/q where

    p/q = a_1 - 1/(a_2 - 1/( ... - 1/a_n)).

Degenerate conventions: p = 0 is S^1 x S^2 (stored as (0, 1)) and p = 1
is S^3 (stored as (1, 0)).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .pages import check_family
from .serialize import exact_fraction


class _Pole:
    """Value of a continued fraction that diverges to infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "POLE"


POLE = _Pole()


def neg_cf_expand(x) -> list:
    """Negative continued fraction expansion of an int or Fraction x > 1.

    Returns the unique list [a_1, ..., a_n] with every a_i >= 2 and
    x = a_1 - 1/(a_2 - 1/(... - 1/a_n)).  The recursion takes a_1 to be
    the ceiling of x and continues with 1/(a_1 - x).
    """
    x = exact_fraction(x)
    if x <= 1:
        raise ValueError(f"expansion needs x > 1, got {x}")
    p, q = x.numerator, x.denominator
    out = []
    while True:
        a = -((-p) // q)  # ceiling of p/q
        out.append(a)
        p, q = q, a * q - p
        if q == 0:
            return out


def cf_evaluate(coeffs):
    """Evaluate a_1 - 1/(a_2 - 1/(... - 1/a_n)) exactly, right to left.

    The evaluation is projective: the running value is carried as a
    numerator/denominator pair, so interior poles pass through cleanly
    (a - 1/infinity is a).  Returns a Fraction, or POLE when the value of
    the whole expression is infinite.  The empty sequence evaluates to
    POLE (the surgery coefficient of no surgery at all).  Every
    coefficient must be an int; any other type, a bool or a float
    included, is a TypeError.  The test sits in the loop, where on
    CPython 3.11 it measured cheaper than one C-level type scan of the
    list before it.
    """
    p, q = 1, 0
    for a in reversed(coeffs):
        if type(a) is not int:
            raise TypeError(f"continued fraction coefficients must be ints, got {a!r}")
        p, q = a * p - q, p
    if q == 0:
        return POLE
    return Fraction(p, q)


@dataclass(frozen=True)
class LensSpace:
    """A normalized lens space L(p, q); -p/q surgery on an unknot.

    Invariants: p, q ints (not bools); p >= 0; for p >= 2, 0 < q < p with
    gcd(p, q) = 1; (1, 0) is S^3 and (0, 1) is S^1 x S^2.
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"L(p, q) takes int p and q, got {p!r} and {q!r}")
        if p < 0:
            raise ValueError("p must be nonnegative")
        if p == 0 and q != 1:
            raise ValueError("S^1 x S^2 is stored as (0, 1)")
        if p == 1 and q != 0:
            raise ValueError("S^3 is stored as (1, 0)")
        if p >= 2:
            if not (0 < q < p):
                raise ValueError("need 0 < q < p")
            if math.gcd(p, q) != 1:
                raise ValueError("p and q must be coprime")

    @classmethod
    def normalized(cls, p, q) -> "LensSpace":
        """Normalize an arbitrary surgery pair (p, q) with -p/q convention.

        Handles q = 0 (infinite coefficient: S^3), negative p (orientation
        bookkeeping: (p, q) and (-p, -q) name the same oriented manifold),
        and reduces q modulo p.  0/0 is no coefficient: a ValueError.
        """
        if type(p) is not int or type(q) is not int:
            raise TypeError(f"L(p, q) takes int p and q, got {p!r} and {q!r}")
        if p == q == 0:
            raise ValueError("0/0 is not a surgery coefficient")
        if q == 0:
            return cls(1, 0)
        g = math.gcd(p, q)
        p, q = p // g, q // g
        if p < 0:
            p, q = -p, -q
        if p == 0:
            return cls(0, 1)
        if p == 1:
            return cls(1, 0)
        return cls(p, q % p)

    def surgery_fraction(self):
        """The coefficient p/q this space is the -p/q surgery for (POLE for S^3)."""
        if self.q == 0:
            return POLE
        return Fraction(self.p, self.q)

    def to_jsonable(self):
        return {"p": self.p, "q": self.q}

    def __str__(self):
        if self.p == 0:
            return "S1xS2"
        if self.p == 1:
            return "S3"
        return f"L({self.p},{self.q})"


def chain_to_lens(chain) -> LensSpace:
    """Identify the linear chain of framed unknots with a lens space.

    `chain` is either a framed link diagram that is a linear chain or the
    sequence of its integer framings (consecutive components linking once).
    The chain is slam-dunked to a single rational coefficient and read off
    under the -p/q convention.  A POLE means the coefficient is infinite,
    i.e. the chain is S^3.
    """
    if hasattr(chain, "chain_framings"):
        framings = chain.chain_framings()  # raises on non-chain diagrams
    else:
        framings = list(chain)
    if not all(type(f) is int or exact_fraction(f).denominator == 1 for f in framings):
        raise ValueError("chain framings must be integers")
    coeffs = [-f.numerator for f in framings]
    v = cf_evaluate(coeffs)
    if v is POLE:
        return LensSpace(1, 0)
    return LensSpace.normalized(v.numerator, v.denominator)


def lens_equal(l1: LensSpace, l2: LensSpace, oriented: bool = True) -> bool:
    """Classical classification of lens spaces.

    Oriented: L(p, q) = L(p, q') iff q' = q or q q' = 1 (mod p).
    Unoriented additionally allows q' = -q or q q' = -1 (mod p).
    """
    if l1.p != l2.p:
        return False
    p = l1.p
    if p <= 1:
        return True
    q1, q2 = l1.q, l2.q
    if (q2 - q1) % p == 0 or (q1 * q2 - 1) % p == 0:
        return True
    if not oriented:
        if (q2 + q1) % p == 0 or (q1 * q2 + 1) % p == 0:
            return True
    return False


def family_lens(h: int, k: int) -> LensSpace:
    """The lens space L((h+1)(2k-1)+2, (h+1)k+1) attached to the (h, k) family."""
    check_family(h, k)
    return LensSpace.normalized((h + 1) * (2 * k - 1) + 2, (h + 1) * k + 1)
