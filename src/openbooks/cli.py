"""Command-line front end.

Verbs:
  family            full pipeline report for one (h, k)
  sweep             reports over a parameter grid, JSON-lines output
  kirby replay      apply a move script to a diagram file
  lens cf|chain|eq  continued fraction and lens space utilities
  census            tight structures on L(p, q) with d3 values
  d3 family         the d3 invariant data of one (h, k)
  rv prove|check    right-veering certificates

Exit codes: 0 success, 2 usage error, 3 failed cross-check or validation.
"""

import argparse
import json
import re
import sys

from . import certcheck
from .d3 import overtwisted_verdict, tight_census
from .diagram import FramedLinkDiagram, InvariantViolationError, ScriptState, order_to_jsonable
from .kirby import IllegalMoveError, check_script, replay_step
from .lens import LensSpace, chain_to_lens, lens_equal, neg_cf_expand
from .pages import family_word
from .report import InternalCheckError, run_family, run_sweep
from .serialize import canonical_dumps, fraction_str, parse_fraction
from .veering import Certificate, prove_right_veering

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3

# Larger inputs are usage errors, so that no argument starts an unbounded
# computation.  family works in O(h + k): h + 9 Kirby moves, the sparse
# rows of the (h+k+1)-square Q written from two pushoff stacks and
# eliminated once, a census of k entries, a report of O(h + k) bytes,
# about 0.35 s at the limit.  d3 family also prints the dense Q, so it
# keeps the old limit, about 0.025 s there.  sweep runs one family report
# per grid cell, about 0.6 s at its limit (times at the benchmark speed
# probe's 1 ms reference).  A census of L(p, q) has a chain of fewer than
# p components and fewer than p entries, and the continued fraction of p/q
# has at most q coefficients.  kirby replay checks |H1| after every step,
# on a graph with a cycle by eliminating the whole diagram, so the script's
# steps are bounded, and so are the diagram's vertices and edges, on input
# and after each step, since one blow-up can link a new vertex to all of
# them; the worst case found, a cubic expander at the edge limit under 250
# steps, takes 3 to 6 s.  The reduction of a family within MAX_D3_FAMILY_DIM
# starts from two vertices and takes at most 208 steps.
MAX_FAMILY_DIM = 10001
MAX_D3_FAMILY_DIM = 201
MAX_SWEEP_SIDE = 20
MAX_CENSUS_P = 1000
MAX_CF_DENOMINATOR = 10000
MAX_REPLAY_VERTICES = 250
MAX_REPLAY_EDGES = 250
MAX_REPLAY_STEPS = 250

# argparse reads "-3/2", "-2,-3" or "-5,-2" as an option, since only a lone
# number looks negative to it; the lens verbs, which have no option that
# starts with a digit, read them as positional arguments with this matcher
NEGATIVE_ARGUMENT = re.compile(r"^-\d")


def _check_limit(name, value, limit):
    if value > limit:
        raise ValueError(f"{name} = {value} is above the limit {limit}")


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_pq(text):
    try:
        p, q = text.split(",")
        return int(p), int(q)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected p,q from {text!r}")


def _load_json(text):
    """Parse JSON text; input nested past the decoder's recursion limit is
    a ValueError, like any other malformed document."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return _load_json(fh.read())


def _parse_chain(text):
    """A framing list, JSON "[-2,-3]" or comma-separated "-2,-3", of
    integers; a JSON float or bool is refused, not rounded."""
    if text.strip().startswith("["):
        values = _load_json(text)
        if isinstance(values, list) and all(type(v) is int for v in values):
            return values
    else:
        try:
            return [int(v) for v in text.split(",") if v.strip()]
        except ValueError:
            pass
    raise ValueError(f"expected a list of integer framings, got {text!r}")


def _emit(payload, as_json, text_lines):
    if as_json:
        sys.stdout.write(canonical_dumps(payload))
    else:
        for line in text_lines:
            print(line)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="openbooks",
        description="exact calculus for a family of planar open books",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_family = sub.add_parser("family", help="full report for one (h, k)")
    p_family.add_argument("--h", type=_positive_int, required=True)
    p_family.add_argument("--k", type=_positive_int, required=True)
    p_family.add_argument("--json", action="store_true")
    p_family.add_argument("--verbose", action="store_true",
                          help="include the move log and full certificate")
    p_family.set_defaults(run=_cmd_family)

    p_sweep = sub.add_parser("sweep", help="reports over a grid of (h, k)")
    p_sweep.add_argument("--hmax", type=_positive_int, required=True)
    p_sweep.add_argument("--kmax", type=_positive_int, required=True)
    p_sweep.add_argument("--out", help="write one JSON report per line here")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(run=_cmd_sweep)

    p_kirby = sub.add_parser("kirby", help="move engine utilities")
    kirby_sub = p_kirby.add_subparsers(dest="kirby_verb", required=True)
    p_replay = kirby_sub.add_parser("replay", help="apply a move script to a diagram")
    p_replay.add_argument("--diagram", required=True, help="diagram JSON file")
    p_replay.add_argument("--script", required=True, help="move script JSON file")
    p_replay.add_argument("--json", action="store_true")
    p_replay.set_defaults(run=_cmd_kirby_replay)

    p_lens = sub.add_parser("lens", help="continued fractions and lens spaces")
    lens_sub = p_lens.add_subparsers(dest="lens_verb", required=True)
    p_cf = lens_sub.add_parser("cf", help="negative continued fraction of p/q")
    p_cf.add_argument("value", help="a rational > 1 written p/q, e.g. 8/5")
    p_cf._negative_number_matcher = NEGATIVE_ARGUMENT
    p_cf.add_argument("--json", action="store_true")
    p_cf.set_defaults(run=_cmd_lens_cf)
    p_chain = lens_sub.add_parser("chain", help="identify a chain of framed unknots")
    p_chain.add_argument("framings", help='integer framing list, e.g. "[-2,-3,-2]" or -2,-3,-2')
    p_chain._negative_number_matcher = NEGATIVE_ARGUMENT
    p_chain.add_argument("--json", action="store_true")
    p_chain.set_defaults(run=_cmd_lens_chain)
    p_eq = lens_sub.add_parser("eq", help="compare two lens spaces")
    p_eq.add_argument("left", type=_parse_pq, help="p,q")
    p_eq.add_argument("right", type=_parse_pq, help="p,q")
    p_eq._negative_number_matcher = NEGATIVE_ARGUMENT
    p_eq.add_argument("--unoriented", action="store_true")
    p_eq.add_argument("--json", action="store_true")
    p_eq.set_defaults(run=_cmd_lens_eq)

    p_census = sub.add_parser("census", help="tight structures on L(p, q)")
    p_census.add_argument("p", type=int)
    p_census.add_argument("q", type=int)
    p_census.add_argument("--json", action="store_true")
    p_census.set_defaults(run=_cmd_census)

    p_d3 = sub.add_parser("d3", help="homotopy invariant computations")
    d3_sub = p_d3.add_subparsers(dest="d3_verb", required=True)
    p_d3f = d3_sub.add_parser("family", help="d3 data of one (h, k)")
    p_d3f.add_argument("h", type=_positive_int)
    p_d3f.add_argument("k", type=_positive_int)
    p_d3f.add_argument("--json", action="store_true")
    p_d3f.set_defaults(run=_cmd_d3_family)

    p_rv = sub.add_parser("rv", help="right-veering certificates")
    rv_sub = p_rv.add_subparsers(dest="rv_verb", required=True)
    p_prove = rv_sub.add_parser("prove", help="certify the (h, k) family word")
    p_prove.add_argument("--h", type=_positive_int, required=True)
    p_prove.add_argument("--k", type=_positive_int, required=True)
    p_prove.add_argument("--out", help="write the certificate JSON here")
    p_prove.add_argument("--json", action="store_true")
    p_prove.set_defaults(run=_cmd_rv_prove)
    p_check = rv_sub.add_parser("check", help="validate a certificate file")
    p_check.add_argument("certificate", help="certificate JSON file")
    p_check.set_defaults(run=_cmd_rv_check)

    return parser


def _cmd_family(args) -> int:
    _check_limit("h + k + 1", args.h + args.k + 1, MAX_FAMILY_DIM)
    report = run_family(args.h, args.k)
    payload = report.to_jsonable(verbose=args.verbose)
    lines = [
        f"(h, k) = ({args.h}, {args.k})",
        f"word: {report.word}",
        f"lens space: {report.lens}  (|H1| = {report.order})",
        f"chain: {[fraction_str(f) for f in report.chain]}",
        f"d3: {fraction_str(report.verdict.d3_value)}  "
        f"census: {[fraction_str(v) for v in report.verdict.census_d3]}",
        f"verdict: {report.verdict.status}",
        f"right-veering: certificate validates at {', '.join(report.certificate.boundaries)}",
        f"destabilization: {report.destabilization.conclusion} "
        f"({report.destabilization.axiom_count} cited axioms)",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _check_limit("hmax", args.hmax, MAX_SWEEP_SIDE)
    _check_limit("kmax", args.kmax, MAX_SWEEP_SIDE)
    summary = run_sweep(args.hmax, args.kmax, args.out)
    lines = [f"rows: {summary['rows']}"]
    for status, count in summary["verdicts"].items():
        lines.append(f"{status}: {count}")
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(summary, args.json, lines)
    return EXIT_OK


def _check_diagram_size(size, when):
    vertices, edges = size
    _check_limit(f"vertices{when}", vertices, MAX_REPLAY_VERTICES)
    _check_limit(f"edges{when}", edges, MAX_REPLAY_EDGES)


def _replay_within_limits(d, script):
    """replay, with the size of the diagram checked after each step, so that
    a step which takes it past a limit ends the script."""
    _check_diagram_size((len(d.vertices), len(d.edges)), "")
    _check_limit("script steps", len(script) if type(script) is list else 0, MAX_REPLAY_STEPS)
    state = ScriptState(d)
    for i, step in enumerate(check_script(script)):
        replay_step(state, step, i)
        _check_diagram_size(state.size(), f" after step {i + 1}")
    return state.freeze()


def _cmd_kirby_replay(args) -> int:
    d = FramedLinkDiagram.from_jsonable(_read_json(args.diagram))
    script = _read_json(args.script)
    result = _replay_within_limits(d, script)
    payload = result.to_jsonable()
    payload["h1_order"] = order_to_jsonable(result.h1)
    lines = [
        f"applied {len(script)} moves; |H1| = {payload['h1_order']}",
        f"vertices: {[(v.id, fraction_str(v.framing)) for v in result.vertices]}",
        f"edges: {list(result.edges)}",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_lens_cf(args) -> int:
    x = parse_fraction(args.value)
    _check_limit("q", x.denominator, MAX_CF_DENOMINATOR)
    cf = neg_cf_expand(x)
    payload = {
        "p": x.numerator,
        "q": x.denominator,
        "cf": cf,
        "chain": [-a for a in cf],
    }
    _emit(payload, args.json, [f"{x} = {cf}", f"chain: {[-a for a in cf]}"])
    return EXIT_OK


def _cmd_lens_chain(args) -> int:
    framings = _parse_chain(args.framings)
    space = chain_to_lens(framings)
    payload = {"p": space.p, "q": space.q, "chain": framings}
    if space.q:
        payload["cf"] = neg_cf_expand(space.surgery_fraction()) if space.p > 1 else []
    _emit(payload, args.json, [f"chain {framings} = {space}"])
    return EXIT_OK


def _cmd_lens_eq(args) -> int:
    left = LensSpace.normalized(*args.left)
    right = LensSpace.normalized(*args.right)
    equal = lens_equal(left, right, oriented=not args.unoriented)
    payload = {
        "left": left.to_jsonable(),
        "right": right.to_jsonable(),
        "oriented": not args.unoriented,
        "equal": equal,
    }
    word = "=" if equal else "!="
    _emit(payload, args.json, [f"{left} {word} {right}"])
    return EXIT_OK


def _cmd_census(args) -> int:
    space = LensSpace.normalized(args.p, args.q)
    _check_limit("p", space.p, MAX_CENSUS_P)
    census = tight_census(space)
    payload = {
        "lens": space.to_jsonable(),
        "count": len(census),
        "census": [t.to_jsonable() for t in census],
    }
    lines = [f"{space}: {len(census)} tight structures"]
    for t in census:
        lines.append(f"  chain {list(t.chain)} rot {list(t.rot)} d3 {fraction_str(t.d3)}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_d3_family(args) -> int:
    _check_limit("h + k + 1", args.h + args.k + 1, MAX_D3_FAMILY_DIM)
    verdict = overtwisted_verdict(args.h, args.k)
    payload = verdict.to_jsonable()
    q, rho = verdict.presentation
    payload["Q"] = [list(row) for row in q]
    payload["rho"] = list(rho)
    lines = [
        f"(h, k) = ({args.h}, {args.k}) on {verdict.lens}",
        f"d3 = {fraction_str(verdict.d3_value)}  (sigma = {verdict.sigma}, "
        f"c^2 = {fraction_str(verdict.c_squared)}, q_+ = {verdict.q_plus})",
        f"census d3: {[fraction_str(v) for v in verdict.census_d3]}",
        f"verdict: {verdict.status}",
    ]
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_rv_prove(args) -> int:
    result = prove_right_veering(family_word(args.h, args.k))
    if not isinstance(result, Certificate):
        print(f"UNKNOWN at {', '.join(result.failed_goals)}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    payload = result.to_jsonable()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(payload))
    lines = [f"{b}: rule {node.rule}" for b, node in result.goals]
    if args.out:
        lines.append(f"wrote {args.out}")
    _emit(payload, args.json, lines)
    return EXIT_OK


def _cmd_rv_check(args) -> int:
    cert = Certificate.from_jsonable(_read_json(args.certificate))
    try:
        certcheck.check_certificate(cert)
    except certcheck.CertificateError as e:
        print(f"certificate INVALID: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"certificate valid for word {cert.word}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except InternalCheckError as e:
        print(f"internal cross-check failure: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (IllegalMoveError, InvariantViolationError, certcheck.CertificateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
