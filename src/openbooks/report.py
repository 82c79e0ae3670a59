"""End-to-end reports for the twist-word family.

run_family wires the whole pipeline together for one (h, k): twist word,
contact surgery presentation, pushoff expansion, smooth diagram, scripted
move reduction, lens identification, d3 comparison against the tight
census, right-veering certificate, and the non-destabilizability report.
Every cross-check between independently computed quantities is recorded;
a failed check raises InternalCheckError naming every failed check.
"""

from dataclasses import dataclass

from .contact import ContactSurgeryDiagram
from .d3 import overtwisted_verdict
from .kirby import reduce_family_diagram
from .lens import chain_to_lens, lens_equal
from .pages import check_family, family_word
from .serialize import canonical_line, fraction_str
from .veering import NOT_DESTABILIZABLE, destabilization_report, prove_right_veering


class InternalCheckError(RuntimeError):
    """A cross-check between independently computed pipeline stages failed."""


def _describe(node) -> str:
    """One derivation tree as a term, e.g. COMP(POS, ARC[g]).  A module-level
    function: a nested one that recursed through its own closure would leave
    a reference cycle behind on every report."""
    if node.rule == "COMP":
        return "COMP(" + ", ".join([_describe(c) for c in node.children]) + ")"
    if node.rule == "ARC":
        return f"ARC[{node.arc}]"
    return node.rule


def _certificate_summary(cert):
    return {b: _describe(node) for b, node in cert.goals}


@dataclass(frozen=True)
class FamilyReport:
    h: int
    k: int
    word: object
    contact: object
    expanded: object
    reduced: object
    chain: tuple
    lens: object
    order: int
    verdict: object
    certificate: object
    destabilization: object
    checks: tuple  # ((name, bool), ...)

    def to_jsonable(self, verbose: bool = False):
        reduced = self.reduced.to_jsonable()
        if not verbose:
            reduced = {k: v for k, v in reduced.items() if k != "moves"}
        out = {
            "h": self.h,
            "k": self.k,
            "word": self.word.to_jsonable(),
            "contact_diagram": self.contact.to_jsonable(),
            "expanded_diagram": self.expanded.to_jsonable(),
            "reduced_diagram": reduced,
            "chain": [fraction_str(f) for f in self.chain],
            "lens": self.lens.to_jsonable(),
            "h1_order": self.order,
            "verdict": self.verdict.to_jsonable(),
            "certificate": {
                "goals": _certificate_summary(self.certificate),
                "validates": True,
            },
            "destabilization": self.destabilization.to_jsonable(),
            "checks": {name: ok for name, ok in self.checks},
        }
        if verbose:
            out["certificate"]["tree"] = self.certificate.to_jsonable()
        return out


def _require(h, k, checks):
    failed = [name for name, ok in checks if not ok]
    if failed:
        raise InternalCheckError(
            f"cross-check failed for (h, k) = ({h}, {k}): {', '.join(failed)}"
        )


def run_family(h: int, k: int) -> FamilyReport:
    """Run the full pipeline for one (h, k) and cross-check every stage."""
    check_family(h, k)
    order = (h + 1) * (2 * k - 1) + 2
    word = family_word(h, k)
    reduced = reduce_family_diagram(h, k)
    chain = tuple(reduced.chain_framings())
    lens_from_chain = chain_to_lens(chain)
    verdict = overtwisted_verdict(h, k)
    expanded, lens_formula = verdict.expanded, verdict.lens
    # the presentation the verdict expanded: its knots and their linking
    contact = ContactSurgeryDiagram(expanded.knots, expanded.linking)
    cert = prove_right_veering(word)

    checks = []
    checks.append(("lens_chain_equals_formula",
                   lens_equal(lens_from_chain, lens_formula, oriented=True)))
    checks.append(("h1_equals_order_formula", reduced.h1 == order))
    checks.append(("h1_equals_lens_p", reduced.h1 == lens_formula.p))
    checks.append(("move_log_h1_constant",
                   all(r.h1_before == order and r.h1_after == order
                       for r in reduced.move_log)))
    checks.append(("verdict_consistent",
                   verdict.certified == (verdict.d3_value not in verdict.census_d3)))
    checks.append(("expanded_det_matches", abs(verdict.det) == order))
    plus = sum(count for _, count, coeff in expanded.members() if coeff == 1)
    minus = sum(count for _, count, coeff in expanded.members() if coeff == -1)
    checks.append(("expansion_counts", plus == k + 1 and minus == h))
    # the report re-validates the certificate against this (h, k)'s word and
    # raises ValueError for a missing, mismatched or invalid one
    try:
        destab = destabilization_report(h, k, verdict, cert)
    except ValueError:
        destab = None
    checks.append(("certificate_validates", destab is not None))
    checks.append(("destabilization_closes",
                   destab is not None and destab.conclusion == NOT_DESTABILIZABLE
                   and destab.unverified_computed_count == 0))
    _require(h, k, checks)

    return FamilyReport(
        h=h,
        k=k,
        word=word,
        contact=contact,
        expanded=expanded,
        reduced=reduced,
        chain=chain,
        lens=lens_formula,
        order=order,
        verdict=verdict,
        certificate=cert,
        destabilization=destab,
        checks=tuple(checks),
    )


def run_sweep(hmax: int, kmax: int, out_path=None):
    """One report per (h, k), h-major; optionally written as JSON lines.

    Returns a summary with the verdict histogram and the d3 table.
    """
    if hmax < 1 or kmax < 1:
        raise ValueError("sweep bounds must be >= 1")
    histogram = {}
    d3_table = {}
    lines = []
    for h in range(1, hmax + 1):
        for k in range(1, kmax + 1):
            report = run_family(h, k)
            status = report.verdict.status
            histogram[status] = histogram.get(status, 0) + 1
            d3_table[(h, k)] = report.verdict.d3_value
            if out_path is not None:
                lines.append(canonical_line(report.to_jsonable()))
    if out_path is not None:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as e:
            raise OSError(f"cannot write sweep output to {out_path!r}: {e}") from e
    return {
        "rows": hmax * kmax,
        "verdicts": dict(sorted(histogram.items())),
        "d3": {f"{h},{k}": fraction_str(v) for (h, k), v in sorted(d3_table.items())},
        "out": out_path,
    }
