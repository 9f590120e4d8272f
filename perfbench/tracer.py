"""Outside-in tracer for the ramify layers.

The tracer wraps public functions and methods of each `ramify` module
from the benchmark's side; `src/` is not touched.  A wrapped function
records a span (name, start, end, parent) or, for calls too frequent
to time, only a call count.  A name bound by `from .x import f` in
another module is wrapped there too, so `cli`'s own `make_cochain_ring`
and `homalg`'s `substitution_map` are seen.

A layer's self time is the sum of its spans' durations minus the time
their direct child spans cover.  Sizes and certificate counts are read
from arguments and return values by the observers below.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _max(key, value_of):
    def observe(tracer, args, result):
        tracer.maxima[key] = max(tracer.maxima[key], value_of(args, result))
    return observe


def _sum(key, value_of):
    def observe(tracer, args, result):
        tracer.counts[key] += value_of(args, result)
    return observe


def _cells(args, result):
    rows = args[0]
    if hasattr(rows, "shape"):
        return int(rows.shape[0] * rows.shape[1]) if rows.ndim == 2 else 0
    return len(rows) * len(rows[0]) if len(rows) else 0


def _turned(tracer, args, history):
    tracer.counts["emss.leibniz_pairs_checked"] += sum(
        page.record.leibniz_pairs_checked for page in history[1:]
    )
    tracer.maxima["emss.page_dim_max"] = max(
        [tracer.maxima["emss.page_dim_max"]] + [page.total_dimension for page in history]
    )


# (span name, module, function or Class.method, observer or None)
SPANS = (
    ("cli.parse", "ramify.cli", "build_parser", None),
    ("cli.parse", "ramify.cli", "_Parser.parse_args", None),
    ("fgl.law_build", "ramify.fgl", "make_honda_fgl", _max("fgl.series_M_max", lambda a, r: r.M)),
    ("fgl.law_build", "ramify.fgl", "make_multiplicative_fgl",
     _max("fgl.series_M_max", lambda a, r: r.M)),
    ("fgl.p_series", "ramify.fgl", "FormalGroupLaw.p_series", None),
    ("fgl.weierstrass", "ramify.fgl", "weierstrass_preparation", None),
    ("cochain.ring_build", "ramify.cochain", "make_cochain_ring",
     _max("cochain.rank_max", lambda a, r: r.rank)),
    ("cochain.substitution", "ramify.cochain", "substitution_map", None),
    ("cochain.reduction", "ramify.cochain", "mod_m_reduction", None),
    ("homalg.tor", "ramify.homalg", "tor_table", None),
    ("homalg.tor", "ramify.homalg", "rational_tor", None),
    ("homalg.tor", "ramify.homalg", "convergence_diagnostic", None),
    ("homalg.snf", "ramify.homalg", "smith_normal_form", None),
    ("homalg.chain_map", "ramify.homalg", "comparison_chain_map",
     _sum("homalg.squares_checked", lambda a, r: r.squares_checked)),
    ("homalg.chain_map", "ramify.homalg", "induced_tor_morphism", None),
    ("artin.algebra_build", "ramify.artin", "FinAlgebra.__init__", None),
    ("artin.module_build", "ramify.artin", "FinModule.__init__", None),
    ("artin.rref", "ramify.artin", "rref", _sum("artin.rref_cells", _cells)),
    ("artin.resolution", "ramify.artin", "minimal_free_resolution", None),
    ("artin.socle", "ramify.artin", "socle_series", None),
    ("artin.nakayama", "ramify.artin", "nakayama_check", None),
    ("emss.turn", "ramify.emss", "turn_pages", _turned),
    ("groups.closure", "ramify.groups", "FiniteGroup.__init__",
     _max("groups.order_max", lambda a, r: a[0].order)),
    ("groups.sylow", "ramify.groups", "sylow_subgroup", None),
    ("groups.complement", "ramify.groups", "has_normal_p_complement", None),
    ("groups.conjnil", "ramify.groups", "conjugation_nilpotent", None),
)

# called too often to time each call: counted only
COUNTS = (
    ("fgl.compose", "ramify.fgl", "TruncatedSeries.compose"),
    ("fgl.series_mul", "ramify.fgl", "TruncatedSeries.__mul__"),
    ("cochain.ring_mul", "ramify.cochain", "RingElement.__mul__"),
    ("emss.dp_multiply", "ramify.emss", "dp_multiply"),
    ("emss.round_differential", "ramify.emss", "round_differential"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self._open = []
        self._undo = []

    # -- wrappers

    def _spanned(self, name, fn, observe):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching

    def _patch(self, module, attr, make):
        mod = sys.modules[module]
        if "." in attr:
            owner, meth = getattr(mod, attr.split(".")[0]), attr.split(".")[1]
            own = meth in vars(owner)
            orig = getattr(owner, meth)
            setattr(owner, meth, make(orig))
            self._undo.append((owner, meth, orig if own else None))
            return
        orig = getattr(mod, attr)
        wrapped = make(orig)
        for name, other in list(sys.modules.items()):
            if name == "ramify" or name.startswith("ramify."):
                for key, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, key, wrapped)
                        self._undo.append((other, key, orig))

    def install(self):
        for name, module, attr, observe in SPANS:
            self._patch(module, attr, lambda fn: self._spanned(name, fn, observe))
        for name, module, attr in COUNTS:
            self._patch(module, attr, lambda fn: self._counted(name + "_calls", fn))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, key)
            else:
                setattr(owner, key, orig)
        self._undo = []

    # -- results

    def metrics(self):
        """Self time `<span>_s` and call count `<span>_calls` per span
        name, plus the counters and maxima."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name + "_s"] += end - start - child[i]
            calls[name + "_calls"] += 1
        out.update(calls)
        out.update(self.counts)
        out.update(self.maxima)
        return out
