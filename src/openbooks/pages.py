"""The four-holed sphere page, its marked curves and arcs, and twist words.

The surface is a fixed combinatorial object: four boundary components
∂a, ∂b, ∂c, ∂d; boundary-parallel curves a, b, c, d; and a separating
curve e that splits off the pair of pants containing ∂a and ∂b.  Two
properly embedded reference arcs are marked, γ_cd joining ∂c to ∂d and
γ_ab joining ∂a to ∂b, both running in the complement of e.  Everything
downstream consumes only this table data: which boundary a curve is
parallel to, and minimal geometric intersection numbers between the
named curves and arcs.  There is no general curve machinery here.

A twist word is a finite composition of Dehn twists along the named
curves, recorded left to right with integer exponents.  The family of
monodromies studied by the rest of the package is

    family_word(h, k)  =  a^h  b  c  d  e^-(k+1),      h, k >= 1,

a positive twist about a repeated h times, single positive twists about
b, c, d, and k+1 negative twists about the separating curve e.
"""

from dataclasses import dataclass

from .serialize import exact_int

BOUNDARY_A = "∂a"
BOUNDARY_B = "∂b"
BOUNDARY_C = "∂c"
BOUNDARY_D = "∂d"


@dataclass(frozen=True)
class PageSpec:
    """A planar page: genus zero with three or four boundary components."""

    genus: int
    boundaries: tuple

    def __post_init__(self):
        if self.genus != 0:
            raise ValueError("only planar pages are modeled")
        if len(self.boundaries) not in (3, 4):
            raise ValueError("page must have 3 or 4 boundary components")
        if len(set(self.boundaries)) != len(self.boundaries):
            raise ValueError("boundary names must be distinct")


FOUR_HOLED_SPHERE = PageSpec(0, (BOUNDARY_A, BOUNDARY_B, BOUNDARY_C, BOUNDARY_D))


@dataclass(frozen=True)
class NamedCurve:
    """A marked simple closed curve: boundary-parallel or separating.

    For a boundary-parallel curve, `boundary` names the component it is
    parallel to.  For the separating curve, `partition` records the two
    sides as a pair of frozensets of boundary names.
    """

    name: str
    boundary: str = None
    partition: tuple = None

    def __post_init__(self):
        if (self.boundary is None) == (self.partition is None):
            raise ValueError("curve is either boundary-parallel or separating")

    @property
    def is_boundary_parallel(self) -> bool:
        return self.boundary is not None


@dataclass(frozen=True)
class NamedArc:
    """A marked properly embedded arc with its curve intersection row."""

    name: str
    endpoints: tuple
    intersections: tuple  # ((curve name, intersection number), ...)


CURVES = {
    "a": NamedCurve("a", boundary=BOUNDARY_A),
    "b": NamedCurve("b", boundary=BOUNDARY_B),
    "c": NamedCurve("c", boundary=BOUNDARY_C),
    "d": NamedCurve("d", boundary=BOUNDARY_D),
    # e separates {∂a, ∂b} from {∂c, ∂d}; both reference arcs avoid it.
    "e": NamedCurve(
        "e",
        partition=(
            frozenset({BOUNDARY_A, BOUNDARY_B}),
            frozenset({BOUNDARY_C, BOUNDARY_D}),
        ),
    ),
}

ARCS = {
    "γ_cd": NamedArc(
        "γ_cd",
        endpoints=(BOUNDARY_C, BOUNDARY_D),
        intersections=(("a", 0), ("b", 0), ("c", 1), ("d", 1), ("e", 0)),
    ),
    "γ_ab": NamedArc(
        "γ_ab",
        endpoints=(BOUNDARY_A, BOUNDARY_B),
        intersections=(("a", 1), ("b", 1), ("c", 0), ("d", 0), ("e", 0)),
    ),
}

# boundary component -> the curve parallel to it
BOUNDARY_CURVE = {c.boundary: name for name, c in CURVES.items() if c.is_boundary_parallel}


def geometric_intersection(curve, arc) -> int:
    """Minimal geometric intersection number of a named curve with a named arc."""
    cname = curve.name if isinstance(curve, NamedCurve) else curve
    aname = arc.name if isinstance(arc, NamedArc) else arc
    if cname not in CURVES:
        raise KeyError(f"unknown curve {cname!r}")
    if aname not in ARCS:
        raise KeyError(f"unknown arc {aname!r}")
    return dict(ARCS[aname].intersections)[cname]


def _normalize(letters):
    out = []
    for name, exp in letters:
        if name not in CURVES:
            raise KeyError(f"unknown curve {name!r}")
        if exact_int(exp, "a twist exponent") == 0:
            continue
        if out and out[-1][0] == name:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((name, merged))
        else:
            out.append((name, exp))
    return tuple(out)


@dataclass(frozen=True)
class TwistWord:
    """A composition of Dehn twists along named curves, left to right.

    Letters are (curve name, nonzero int exponent) pairs; adjacent letters
    along the same curve are merged, so words are always in normal form.
    """

    letters: tuple

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", _normalize(letters))

    def __len__(self) -> int:
        return len(self.letters)

    def is_positive(self) -> bool:
        """True when every letter is a positive twist (empty word included)."""
        return all(exp >= 1 for _, exp in self.letters)

    def to_jsonable(self):
        return [[name, exp] for name, exp in self.letters]

    @classmethod
    def from_jsonable(cls, data) -> "TwistWord":
        """Parse [[curve, exponent], ...]; any malformed input is a ValueError."""
        try:
            if isinstance(data, list):
                return cls(data)
        except KeyError as e:
            raise ValueError(f"twist word names unknown curves: {e.args[0]}") from None
        except (TypeError, ValueError):
            pass
        raise ValueError(f"twist word must be a list of [curve, exponent] pairs: {data!r}")

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return " ".join(f"{n}^{e}" if e != 1 else n for n, e in self.letters)


def check_family(h, k):
    """The family's domain, ints h, k >= 1; a bool or any other type is a TypeError."""
    if exact_int(h, "h") < 1 or exact_int(k, "k") < 1:
        raise ValueError(f"family is defined for h, k >= 1, got h={h}, k={k}")


def family_word(h: int, k: int) -> TwistWord:
    """The twist word a^h b c d e^-(k+1) on the four-holed sphere.

    Defined for h, k >= 1.
    """
    check_family(h, k)
    return TwistWord((("a", h), ("b", 1), ("c", 1), ("d", 1), ("e", -(k + 1))))
