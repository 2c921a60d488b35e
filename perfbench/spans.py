"""In-memory span tracing around the library's public functions.

``Tracer.install()`` replaces every public cwclifford function in every
cwclifford module namespace that binds it (``qpair`` does ``from .core
import gp``, so patching ``core.gp`` alone would miss its callers), plus the
methods ``CliffordMap.__init__``/``__call__``, ``CWElement.__mul__`` (block
products only) and ``SymmetricMap.from_matrix``.  ``uninstall()`` restores
the originals.

A span is (name, start, end, parent, job).  Spans live in flat arrays while
the run lasts and are saved once at the end.  Counters (``gp`` blade pairs,
``represent`` bytes, verified and matched results) are taken inside the
span of the call they count.  A layer's self time is the
span's duration minus the durations of its direct child spans.  A call to a
function whose span name equals the enclosing span's name (recursion, or a
wrapper calling a function of the same group) does not open a new span.

The tiny blade helpers (``blade_mul`` and friends) are never wrapped: one
rotated n = 8 job calls ``blade_mul`` about 600k times and the wrapper
would dominate.  The kernel operation count is derived from ``gp``'s
arguments instead.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("core", "gammarep", "qpair", "omega", "cw", "search", "textio",
          "cli")
UNWRAPPED = {"blade_mul", "grade", "blade_indices", "blade_from_indices",
             "blade_square_sign"}
# function name -> span name; functions not listed get "<layer>.other"
SPAN_NAMES = {
    "core": {"gp": "core.gp"},
    "gammarep": {"represent": "gammarep.represent",
                 "build_rep": "gammarep.build_rep"},
    "qpair": {"extract_B": "qpair.extract_B", "q_map": "qpair.q_map",
              "rotate_multivector": "qpair.rotate_multivector",
              "classify_family": "qpair.classify_family",
              "make_monomial": "qpair.construct",
              "make_pseudo_monomial": "qpair.construct",
              "make_linear": "qpair.construct",
              "make_generalized": "qpair.construct",
              "linear_pair_from_parts": "qpair.construct"},
    "omega": {"omega_in_soB": "omega.omega_in_soB",
              "classify_distinguished": "omega.classify_distinguished",
              "closing_identities": "omega.closing_identities",
              "omega_tensor": "omega.omega_tensor"},
    "cw": {"curvature_sweep": "cw.curvature_sweep",
           "check_restriction": "cw.check_restriction",
           "flatness_report": "cw.flatness_report",
           "build_clifford_map": "cw.build",
           "build_flat_rep_alphazero": "cw.build",
           "build_flat_rep_alphanotzero": "cw.build"},
    "search": {"search_pairs_for_B": "search.search_pairs_for_B",
               "enumerate_two_monomial_cases": "search.enumerate"},
    "textio": {"load_json": "textio.load", "load_pair_file": "textio.load",
               "load_b_file": "textio.load", "load_params_file": "textio.load",
               "dumps": "textio.dumps"},
    "cli": {"main": "cli.main"},
}


def _nterms(x) -> int:
    # O(1) on the dict-backed Multivector; any other representation falls
    # back to the public term iterator
    terms = getattr(x, "_terms", None)
    if isinstance(terms, dict):
        return len(terms)
    return sum(1 for _ in x.terms())


class Tracer:
    def __init__(self):
        self.span_names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.job_id = -1
        self.active = False
        self.counters = Counter()
        self._patches = []

    # -- recording ------------------------------------------------------------

    def _sid(self, span: str) -> int:
        sid = self._ids.get(span)
        if sid is None:
            sid = self._ids[span] = len(self.span_names)
            self.span_names.append(span)
        return sid

    def _wrap(self, fn, span: str, hook=None, when=None):
        tracer, sid = self, self._sid(span)
        names, parents, jobs = self.name, self.parent, self.job
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cur = tracer.current
            if not tracer.active or (cur >= 0 and names[cur] == sid) or (
                    when is not None and not when(args)):
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(sid)
            parents.append(cur)
            jobs.append(tracer.job_id)
            ends.append(0.0)
            tracer.current = idx
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(tracer.counters, args, result)
            finally:
                ends[idx] = perf_counter()
                tracer.current = cur
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import cwclifford
        from cwclifford import cw, qpair
        modules = [cwclifford] + [importlib.import_module(f"cwclifford.{m}")
                                  for m in LAYERS]
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("cwclifford.") or \
                        obj.__name__ in UNWRAPPED:
                    continue
                wrapper = wrappers.get(obj)
                if wrapper is None:
                    layer = home.split(".")[-1]
                    span = SPAN_NAMES.get(layer, {}).get(obj.__name__,
                                                         f"{layer}.other")
                    wrapper = wrappers[obj] = self._wrap(
                        obj, span, HOOKS.get(obj.__name__))
                self._patch(mod, attr, wrapper)
        cls = cw.CliffordMap
        self._patch(cls, "__init__", self._wrap(cls.__init__, "cw.build"))
        self._patch(cls, "__call__", self._wrap(cls.__call__, "cw.rho"))
        blocks = cw.CWElement
        self._patch(blocks, "__mul__", self._wrap(
            blocks.__mul__, "cw.block_mul",
            when=lambda args: isinstance(args[1], blocks)))
        sym = qpair.SymmetricMap
        self._patch(sym, "from_matrix", staticmethod(self._wrap(
            sym.from_matrix, "qpair.SymmetricMap.from_matrix")))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict:
        """Span name -> (calls, self seconds)."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(names, minlength=len(self.span_names))
        secs = np.bincount(names, weights=own, minlength=len(self.span_names))
        return {span: (int(calls[i]), float(secs[i]))
                for i, span in enumerate(self.span_names)}

    def save(self, path: str) -> None:
        np.savez(path, span_names=np.array(self.span_names),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 job=np.frombuffer(self.job, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))


# -- counters taken at the span boundaries ------------------------------------

def _gp_hook(counters, args, result):
    ta, tb = _nterms(args[0]), _nterms(args[1])
    counters["gp.blade_pairs"] += ta * tb
    counters["gp.terms_out"] += _nterms(result)
    counters["gp.operands"] += 2
    counters["gp.operand_terms"] += ta + tb
    counters["gp.operand_terms_max"] = max(counters["gp.operand_terms_max"],
                                           ta, tb)


def _represent_hook(counters, args, result):
    rep = args[1]
    counters["represent.bytes"] += _nterms(args[0]) * rep.rep_dim ** 2 * 16


def _extract_hook(counters, args, result):
    counters["extract_B.verified"] += bool(result.verified)


def _distinguished_hook(counters, args, result):
    counters["classify_distinguished.match"] += bool(result["match"])


def _search_hook(counters, args, result):
    counters["search.hits"] += len(result)


HOOKS = {"gp": _gp_hook, "represent": _represent_hook,
         "extract_B": _extract_hook,
         "classify_distinguished": _distinguished_hook,
         "search_pairs_for_B": _search_hook}


def layer_metrics(tracer: Tracer, names) -> dict:
    """Values of the per-layer metrics ``names`` (as BENCHMARK.json lists
    them).  ``<span>.calls`` and ``<span>.self_s`` are read off the spans
    (a span the tracer installed but that never ran gives 0; a span it does
    not know is an error); the metrics built from counters are listed
    below."""
    times = tracer.self_times()
    k = tracer.counters

    def calls(span):
        return times[span][0]

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "core.gp.blade_pairs": k["gp.blade_pairs"],
        "core.gp.terms_out": k["gp.terms_out"],
        "core.gp.operand_terms_mean": ratio(k["gp.operand_terms"],
                                            k["gp.operands"]),
        "core.gp.operand_terms_max": k["gp.operand_terms_max"],
        "gammarep.represent.bytes_computed": k["represent.bytes"],
        "qpair.extract_B.verified_ratio": ratio(k["extract_B.verified"],
                                                calls("qpair.extract_B")),
        "omega.classify_distinguished.match_ratio": ratio(
            k["classify_distinguished.match"],
            calls("omega.classify_distinguished")),
        "search.hits_per_target": ratio(k["search.hits"],
                                        calls("search.search_pairs_for_B")),
    }
    out = {}
    for name in names:
        span, _, what = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif what == "calls":
            out[name] = calls(span)
        elif what == "self_s":
            out[name] = times[span][1]
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return out
