"""Exact calculus for a family of planar open books.

Twist words on the four-holed sphere, their contact surgery
presentations, Kirby-move reduction of the underlying 3-manifold to a
lens space, homotopy-invariant overtwistedness certificates, and
machine-checkable right-veering derivations.  All arithmetic is exact.
"""

__version__ = "0.1.0"

from .contact import (
    ContactSurgeryDiagram,
    LegendrianUnknotData,
    expand_to_unit_coefficients,
    presentation_for,
    smooth_diagram,
)
from .d3 import (
    TightDescriptor,
    Verdict,
    d3,
    overtwisted_verdict,
    tight_census,
)
from .diagram import INFINITE, FramedLinkDiagram, MoveRecord, Vertex
from .kirby import (
    blow_down,
    blow_up,
    handle_slide,
    inverse_slam_dunk,
    reduce_family_diagram,
    reverse_orientation,
    slam_dunk,
)
from .lens import (
    POLE,
    LensSpace,
    cf_evaluate,
    chain_to_lens,
    family_lens,
    lens_equal,
    neg_cf_expand,
)
from .pages import (
    FOUR_HOLED_SPHERE,
    PageSpec,
    TwistWord,
    family_word,
    geometric_intersection,
)
from .report import FamilyReport, run_family, run_sweep
from .veering import (
    Certificate,
    DestabilizationReport,
    Unknown,
    arikan_tight,
    destabilization_report,
    prove_right_veering,
)
