"""The three benchmark workloads: seeded inputs, timed requests, checks.

Every call into openbooks goes through a module attribute looked up at
call time (``ob.kirby.replay(...)``), so the traced worker's wrappers see
it.  A workload yields blocks of requests; a run stops only between
blocks, so every run covers whole blocks.

Expected values come from closed formulas the benchmark computes itself:
the family's manifold is L(p, q) with p = (h+1)(2k-1)+2 and
q = (h+1)k+1 mod p.
"""

import importlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable


class CheckFailed(Exception):
    """An op returned a wrong result."""


def expect(ok, what):
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Request:
    """One timed request.  ``run()`` returns how many of its ``ops`` failed
    their checks; an exception counts all of them as failed."""

    label: str
    ops: int
    keys: tuple  # one key per op, for the repeat share
    dense_dim: int  # largest dense matrix dimension h+k+1 it builds, 0 if none
    run: Callable[[], int]


def family_pq(h, k):
    p = (h + 1) * (2 * k - 1) + 2
    return p, ((h + 1) * k + 1) % p


def load_openbooks():
    """Import openbooks and return its modules by layer name."""
    names = ("certcheck", "contact", "d3", "diagram", "kirby", "lens",
             "pages", "report", "serialize", "veering")
    package = importlib.import_module("openbooks")
    mods = {n: importlib.import_module(f"openbooks.{n}") for n in names}
    return SimpleNamespace(package=package, **mods)


# -- sweep -------------------------------------------------------------------

SWEEP_HMAX = SWEEP_KMAX = 10
SWEEP_GRID = tuple(itertools.product(range(1, SWEEP_HMAX + 1), range(1, SWEEP_KMAX + 1)))
# Verdict histogram of the 10 x 10 grid: every d3 value misses the census.
SWEEP_VERDICTS = {"OVERTWISTED_CERTIFIED": len(SWEEP_GRID)}


class Sweep:
    """``report.run_sweep`` over the paper's 10 x 10 grid, to a JSON-lines file.

    One block is one ``run_sweep`` call of 100 rows (ops).  Each block runs
    in a fresh process, so no (h, k) repeats inside a process and a result
    cache cannot help.  The grid is the paper's; the seed does not change it.
    """

    name = "sweep"

    def __init__(self, ob, seed, workdir):
        self.ob = ob
        self.out = workdir / "rows.jsonl"

    def warm_up(self):
        # (11, 1) lies outside the grid, so no measured row is precomputed.
        report = self.ob.report.run_family(SWEEP_HMAX + 1, 1)
        self.ob.serialize.canonical_line(report.to_jsonable())

    def blocks(self):
        dense = max(h + k + 1 for h, k in SWEEP_GRID)
        while True:
            yield [Request("sweep", len(SWEEP_GRID), SWEEP_GRID, dense, self._pass)]

    def _pass(self):
        try:
            summary = self.ob.report.run_sweep(SWEEP_HMAX, SWEEP_KMAX, str(self.out))
            rows = [json.loads(line) for line in self.out.read_text("utf-8").splitlines()]
        finally:
            self.out.unlink(missing_ok=True)
        histogram = {}
        for r in rows:
            status = r["verdict"]["status"]
            histogram[status] = histogram.get(status, 0) + 1
        expect(summary["rows"] == len(SWEEP_GRID) and len(rows) == len(SWEEP_GRID),
               "sweep row count")
        expect(sorted((r["h"], r["k"]) for r in rows) == list(SWEEP_GRID), "sweep grid")
        expect(summary["verdicts"] == histogram == SWEEP_VERDICTS, "verdict histogram")
        return sum(1 for r in rows if not self._row_ok(r))

    @staticmethod
    def _row_ok(row):
        h, k = row["h"], row["k"]
        p, q = family_pq(h, k)
        checks = row["checks"]
        return (len(checks) > 0 and all(v is True for v in checks.values())
                and row["h1_order"] == p
                and row["lens"] == {"p": p, "q": q}
                and len(row["chain"]) == h + 2)


# -- queries -----------------------------------------------------------------

# The traffic model below is assumed, not measured: the verbs are the
# command line's and the key ranges those of the acceptance suite, while
# the mix, the Zipf exponent and the rationals' sizes are choices.
# The key population and its popularity order are part of the model and
# fixed; --seed draws the request stream from it.  Seeding the
# order too would let a seed decide whether the hottest run_family key is
# (1, 1) or (6, 6), which moves ops_per_s by more than any bound.
POPULATION_SEED = 20110726
ZIPF_S = 1.1
# Requests per block of each verb, sent in seeded order.  A fixed mix puts
# the median op inside the cheap lens verbs (60% of requests) on every
# seed, not on the edge between two verbs of different cost.
VERBS = (
    ("family", 4),
    ("census", 2),
    ("cf", 5),
    ("chain", 4),
    ("eq", 3),
    ("rv", 2),
)
FAMILY_MAX = 6        # run_family keys: 1 <= h, k <= 6
CENSUS_PMAX = 60      # tight_census keys: L(p, q), 2 <= p <= 60
RV_MAX = 100          # right-veering keys: 1 <= h, k <= 100
CF_KEYS = 1024        # large rationals given by their negative continued
CF_LEN = (24, 40)     # fraction: this many coefficients,
CF_COEFF = (2, 30)    # each in this range


def _neg_cf_value(coeffs):
    """a_1 - 1/(a_2 - 1/(...)), evaluated here independently of openbooks.

    Integer continuants, not Fraction steps: every set-up process builds
    the key population, and this keeps that a few milliseconds."""
    n, d = coeffs[-1], 1
    for a in reversed(coeffs[:-1]):
        n, d = a * n - d, n
    return Fraction(n, d)


class Queries:
    """One closed-loop client sending small mixed requests with Zipf-repeated keys.

    The verbs mirror the command line: ``family --json``, ``census``,
    ``lens cf``, ``lens chain``, ``lens eq`` and ``rv prove`` + ``rv check``.
    Each block is one mix of requests; a request is one op.
    """

    name = "queries"

    def __init__(self, ob, seed, workdir):
        self.ob = ob
        self.rng = random.Random(seed)
        pop = random.Random(POPULATION_SEED)
        family = list(itertools.product(range(1, FAMILY_MAX + 1), repeat=2))
        census = [(p, q) for p in range(2, CENSUS_PMAX + 1)
                  for q in range(1, p) if math.gcd(p, q) == 1]
        rv = list(itertools.product(range(1, RV_MAX + 1), repeat=2))
        chains = [tuple(pop.randint(*CF_COEFF) for _ in range(pop.randint(*CF_LEN)))
                  for _ in range(CF_KEYS)]
        for keys in (family, census, rv):
            pop.shuffle(keys)
        large = [(c, _neg_cf_value(c)) for c in chains]
        self.keys = {
            "family": family,
            "census": census,
            "cf": large,
            "chain": large,
            "eq": [(x.numerator, x.denominator, pow(x.denominator, -1, x.numerator))
                   for _, x in large],
            "rv": rv,
        }
        self.mix = [v for v, n in VERBS for _ in range(n)]
        self.zipf_cum = {
            v: list(itertools.accumulate(r ** -ZIPF_S for r in range(1, len(keys) + 1)))
            for v, keys in self.keys.items()
        }

    def warm_up(self):
        # keys outside every population, so no measured request is precomputed
        chain = (3, 2, 5, 7)
        x = _neg_cf_value(chain)
        self._run("family", (FAMILY_MAX + 1, 1))
        self._run("census", (CENSUS_PMAX + 1, 2))
        self._run("cf", (chain, x))
        self._run("chain", (chain, x))
        self._run("eq", (x.numerator, x.denominator, pow(x.denominator, -1, x.numerator)))
        self._run("rv", (RV_MAX + 1, 1))

    def blocks(self):
        rng = self.rng
        while True:
            verbs = list(self.mix)
            rng.shuffle(verbs)
            yield [self._request(verb, rng.choices(range(len(self.keys[verb])),
                                                   cum_weights=self.zipf_cum[verb])[0])
                   for verb in verbs]

    def _request(self, verb, rank):
        key = self.keys[verb][rank]
        dense = key[0] + key[1] + 1 if verb == "family" else 0
        return Request("queries." + verb, 1, ((verb, rank),), dense,
                       lambda: self._run(verb, key))

    def _run(self, verb, key):
        ob = self.ob
        if verb == "family":
            h, k = key
            payload = ob.report.run_family(h, k).to_jsonable()
            ob.serialize.canonical_line(payload)
            p, q = family_pq(h, k)
            expect(payload["checks"] and all(payload["checks"].values()), "family checks")
            expect(payload["h1_order"] == p, "family h1_order")
            expect(payload["lens"] == {"p": p, "q": q}, "family lens")
        elif verb == "census":
            space = ob.lens.LensSpace.normalized(*key)
            census = ob.d3.tight_census(space)
            ob.serialize.canonical_line([t.to_jsonable() for t in census])
            expect(len(census) == ob.d3.census_size_formula(space), "census size")
        elif verb == "cf":
            chain, x = key
            coeffs = ob.lens.neg_cf_expand(x)
            expect(list(coeffs) == list(chain), "neg_cf_expand coefficients")
            expect(ob.lens.cf_evaluate(coeffs) == x, "cf_evaluate(neg_cf_expand(x)) == x")
        elif verb == "chain":
            chain, x = key
            space = ob.lens.chain_to_lens([-a for a in chain])
            expect((space.p, space.q) == (x.numerator, x.denominator), "chain_to_lens")
        elif verb == "eq":
            p, q, q_inv = key
            LensSpace = ob.lens.LensSpace
            base = LensSpace(p, q)
            expect(ob.lens.lens_equal(base, LensSpace(p, q_inv), oriented=True),
                   "L(p, q) = L(p, 1/q)")
            expect(ob.lens.lens_equal(base, LensSpace(p, p - q), oriented=False),
                   "L(p, q) = L(p, -q) unoriented")
            expect(not ob.lens.lens_equal(base, LensSpace(p + 1, 1), oriented=False),
                   "L(p, q) != L(p+1, 1)")
        else:  # rv
            cert = ob.veering.prove_right_veering(ob.pages.family_word(*key))
            expect(isinstance(cert, ob.veering.Certificate), "certificate found")
            expect(ob.certcheck.check_certificate(cert) is True, "certificate validates")
        return 0


# -- audit -------------------------------------------------------------------

# Large h, small k.  One block visits the AUDIT_STRATA values
# h = AUDIT_H0 + AUDIT_STRIDE * i once each, in seeded order, at one k;
# the k of successive blocks is a seeded permutation of 1..AUDIT_STRATA,
# then of the next AUDIT_STRATA values, and so on.  So no (h, k) repeats in
# a run, and every block does the same work whatever the seed: the cost of
# a case grows with h (about h^2); k only changes the size of a few integers.
# The number of strata is odd, so the median case lies in the middle of the
# middle stratum, not on the edge between two strata of different cost.
AUDIT_H0 = 40
AUDIT_STRIDE = 12
AUDIT_STRATA = 15
AUDIT_HS = tuple(AUDIT_H0 + AUDIT_STRIDE * i for i in range(AUDIT_STRATA))


class Audit:
    """Verification traffic on the Kirby layer: produce, serialize, replay.

    One op is one case: reduce the family diagram, write the verbose move
    log as canonical JSON and parse it back, replay it on the parsed start
    diagram and compare, identify the lens space, and round-trip a
    right-veering certificate through JSON into the checker.
    """

    name = "audit"

    def __init__(self, ob, seed, workdir):
        self.ob = ob
        self.rng = random.Random(seed)

    def warm_up(self):
        self._case(AUDIT_H0 // 2, 1)  # below the measured h range

    def blocks(self):
        rng = self.rng
        for first in itertools.count(1, AUDIT_STRATA):
            ks = list(range(first, first + AUDIT_STRATA))
            rng.shuffle(ks)
            for k in ks:
                hs = list(AUDIT_HS)
                rng.shuffle(hs)
                yield [self._request(h, k) for h in hs]

    def _request(self, h, k):
        return Request("audit.case", 1, ((h, k),), 0, lambda: self._case(h, k))

    def _case(self, h, k):
        ob = self.ob
        p, q = family_pq(h, k)
        reduced = ob.kirby.reduce_family_diagram(h, k)
        expect(reduced.h1 == p, "reduced |H1|")
        log_text = ob.serialize.canonical_dumps(reduced.to_jsonable())
        start = ob.contact.smooth_diagram(ob.contact.presentation_for(h, k))
        start_text = ob.serialize.canonical_line(start.to_jsonable())
        moves = json.loads(log_text)["moves"]
        parsed_start = ob.diagram.FramedLinkDiagram.from_jsonable(json.loads(start_text))
        replayed = ob.kirby.replay(parsed_start, moves)
        expect(len(moves) == len(reduced.move_log), "move log length")
        expect(replayed.same_diagram(reduced), "replay reproduces the reduction")
        space = ob.lens.chain_to_lens(reduced)
        expect((space.p, space.q) == (p, q), "chain_to_lens")
        expect(ob.lens.lens_equal(space, ob.lens.family_lens(h, k)), "family_lens")
        cert = ob.veering.prove_right_veering(ob.pages.family_word(h, k))
        cert_text = ob.serialize.canonical_dumps(cert.to_jsonable())
        parsed_cert = ob.veering.Certificate.from_jsonable(json.loads(cert_text))
        expect(parsed_cert == cert, "certificate JSON round trip")
        expect(ob.certcheck.check_certificate(parsed_cert) is True, "certificate validates")
        return 0


WORKLOADS = {w.name: w for w in (Sweep, Queries, Audit)}
