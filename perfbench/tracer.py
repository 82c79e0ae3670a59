"""In-memory span tracing of openbooks layer entry points.

Tracing is installed from outside the package: each traced function is
replaced, in every ``openbooks`` module that holds a reference to it, by a
wrapper that records a span (name, start, end, parent).  The package's
own modules bind many functions by name (``from .linalg import
det_sparse_rows``), so swapping only the defining module would miss those
call sites.  Only the traced worker process ever installs the wrappers;
the end-to-end run never imports this module.
"""

import importlib
import sys
from time import perf_counter

# (span name, defining module, attribute); a class name in the attribute
# (``Class.method``) traces a classmethod on that class.
LAYERS = (
    ("report.run_sweep", "openbooks.report", "run_sweep"),
    ("report.run_family", "openbooks.report", "run_family"),
    ("contact.expand_to_unit_coefficients", "openbooks.contact", "expand_to_unit_coefficients"),
    ("kirby.reduce_family_diagram", "openbooks.kirby", "reduce_family_diagram"),
    ("kirby.replay", "openbooks.kirby", "replay"),
    ("diagram.compute_h1", "openbooks.diagram", "compute_h1"),
    ("diagram.from_jsonable", "openbooks.diagram", "FramedLinkDiagram.from_jsonable"),
    ("linalg.det_sparse_rows", "openbooks.linalg", "det_sparse_rows"),
    ("linalg.det", "openbooks.linalg", "det"),
    ("linalg.solve", "openbooks.linalg", "solve"),
    ("linalg.signature", "openbooks.linalg", "signature"),
    ("d3.d3", "openbooks.d3", "d3"),
    ("d3.overtwisted_verdict", "openbooks.d3", "overtwisted_verdict"),
    ("d3.tight_census", "openbooks.d3", "tight_census"),
    ("lens.neg_cf_expand", "openbooks.lens", "neg_cf_expand"),
    ("lens.cf_evaluate", "openbooks.lens", "cf_evaluate"),
    ("lens.chain_to_lens", "openbooks.lens", "chain_to_lens"),
    ("lens.lens_equal", "openbooks.lens", "lens_equal"),
    ("lens.family_lens", "openbooks.lens", "family_lens"),
    ("veering.prove_right_veering", "openbooks.veering", "prove_right_veering"),
    ("Certificate.from_jsonable", "openbooks.veering", "Certificate.from_jsonable"),
    ("certcheck.check_certificate", "openbooks.certcheck", "check_certificate"),
    # both canonical JSON writers are one layer
    ("serialize", "openbooks.serialize", "canonical_line"),
    ("serialize", "openbooks.serialize", "canonical_dumps"),
)


def _pushoffs(args, result):
    before = {c.id for c in args[0].components}
    return sum(1 for c in result.components if c.id not in before)


# span name -> (counter name, function of (args, result) giving the increment)
COUNTERS = {
    "contact.expand_to_unit_coefficients": ("contact.pushoffs", _pushoffs),
    "kirby.reduce_family_diagram": ("kirby.moves", lambda a, r: len(r.move_log)),
    "kirby.replay": ("kirby.moves", lambda a, r: len(a[1])),
    "d3.tight_census": ("d3.tight_census.entries", lambda a, r: len(r)),
    "serialize": ("serialize.bytes", lambda a, r: len(r.encode("utf-8"))),
}

# span name -> (maximum name, function of (args, result))
MAXIMA = {
    "linalg.det": ("linalg.det.dim_max", lambda a, r: len(a[0])),
}


class Tracer:
    """Spans kept in parallel lists; index -1 is "no parent"."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self._stack = [-1]
        self.counters = {}
        self.maxima = {}

    def span(self, name):
        """Context manager for a span around benchmark-side code."""
        return _Span(self, name)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        maximum = MAXIMA.get(name)

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                key, inc = counter
                self.counters[key] = self.counters.get(key, 0) + inc(args, result)
            if maximum is not None:
                key, val = maximum
                self.maxima[key] = max(self.maxima.get(key, 0), val(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Swap every LAYERS entry point for its traced wrapper."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "openbooks" or n.startswith("openbooks.")]
        for name, modname, attr in LAYERS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth].__func__
                setattr(cls, meth, classmethod(self.wrap(name, orig)))
                continue
            orig = getattr(module, attr)
            traced = self.wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, traced)

    def summary(self):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest on one thread, so children never overlap.
        """
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur, self_s + dur - child[i])
        return out


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer._open(self.name)

    def __exit__(self, *exc):
        self.tracer._close(self.idx)
        return False
