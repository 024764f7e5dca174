"""Span tracing of sylowlab's layers from outside the library.

`Tracer.install()` replaces each traced public function at every module
binding it is reachable through (the library imports with
`from .x import y`, so patching only the defining module would miss
calls), records one span per call, and restores the originals on
`uninstall()`.  Spans stay in memory; `layer_metrics` turns them into
per-layer self times and counters.  Nothing inside the library changes.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    request: int
    id: int
    parent: int | None
    name: str
    start: int
    end: int


# span name -> (module, attribute, class or None)
TARGETS = {
    "cli.main": ("sylowlab.cli", "main", None),
    "catalog.construct": ("sylowlab.catalog", "construct", None),
    "group.chain": ("sylowlab.group", "chain", "PermGroup"),
    "group.elements": ("sylowlab.group", "elements", "PermGroup"),
    "group.conjugacy_classes": ("sylowlab.group", "conjugacy_classes", "PermGroup"),
    "group.normalizer": ("sylowlab.group", "normalizer", None),
    "group.p_residual": ("sylowlab.group", "p_residual", None),
    "group.quotient_group": ("sylowlab.group", "quotient_group", None),
    "sylow.sylow_subgroup": ("sylowlab.sylow", "sylow_subgroup", None),
    "sylow.sylow_subgroup_containing": ("sylowlab.sylow", "sylow_subgroup_containing", None),
    "sylow.nu_p": ("sylowlab.sylow", "nu_p", None),
    "sylow.sylow_subgroups": ("sylowlab.sylow", "sylow_subgroups", None),
    "tables.get_table": ("sylowlab.tables", "get_table", None),
    "tables.sylow_count_in": ("sylowlab.tables", "sylow_count_in", "CayleyTable"),
    "lattice.subgroup_lattice": ("sylowlab.lattice", "subgroup_lattice", None),
    "lattice.maximal_indices": ("sylowlab.lattice", "maximal_indices", "SubgroupLattice"),
    "covering.sigma_p_cover": ("sylowlab.covering", "sigma_p_cover", None),
    "covering.class_cover": ("sylowlab.covering", "class_cover", None),
    "setcover.min_cover": ("sylowlab.setcover", "min_cover", None),
    "graphs.noncommuting_graph": ("sylowlab.graphs", "noncommuting_graph", None),
    "cliques.max_clique": ("sylowlab.cliques", "max_clique", None),
    "actions.coset_action": ("sylowlab.actions", "coset_action", None),
    "actions.natural_action": ("sylowlab.actions", "natural_action", None),
    "actions.min_fpr_p_element": ("sylowlab.actions", "min_fpr_p_element", None),
    "actions.fpr_element": ("sylowlab.actions", "fpr_element", None),
    "actions.fpr_subgroup": ("sylowlab.actions", "fpr_subgroup", None),
}

# Cached results on PermGroup: the attribute is None before a cold build.
_CACHE_SLOT = {
    "group.chain": "_chain",
    "tables.get_table": "_table",
    "lattice.subgroup_lattice": "_lattice",
}

# The check and quantity handlers the CLI dispatches to.  Their spans
# separate library work that no traced layer covers ("checks") from the
# CLI's own parsing, echo and JSON emission ("cli").
CHECK_SPAN = "checks.handler"


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list = []  # undo callables, newest last

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        sid = self._next_id
        self._next_id += 1
        if name == "cli.main":
            self.request += 1
        slot = _CACHE_SLOT.get(name)
        cold = slot is not None and getattr(args[0], slot) is None
        if slot is not None:
            self.counts[name + (".cold" if cold else ".hit")] += 1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(Span(self.request, sid, parent, name, start, end))
        self.counts[name + ".calls"] += 1
        self._count_result(name, args, result, cold)
        return result

    def _count_result(self, name, args, result, cold):
        c = self.counts
        if name == "setcover.min_cover":
            c["setcover.universe_bits"] += args[0]
            c["setcover.candidates"] += len(args[1])
        elif name == "graphs.noncommuting_graph":
            v = result.n
            c["graphs.vertices"] += v
            c["graphs.pairs"] += v * (v - 1) // 2
        elif name == "lattice.subgroup_lattice" and cold:
            c["lattice.subgroups"] += len(result)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every binding of every target in the loaded sylowlab modules."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, (modname, attr, cls) in TARGETS.items():
            owner = sys.modules[modname]
            if cls is None:
                fn = getattr(owner, attr)
                wrappers[id(fn)] = self._wrap(name, fn)
            else:
                owner = getattr(owner, cls)
                self._setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
        for modname, module in list(sys.modules.items()):
            if modname == "sylowlab" or modname.startswith("sylowlab."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrappers:
                        self._setattr(module, attr, wrappers[id(value)])
        cli = sys.modules["sylowlab.cli"]
        for registry in (cli.CHECKS, cli.QUANTITIES):
            for key, fn in list(registry.items()):
                self._restore.append(functools.partial(registry.__setitem__, key, fn))
                registry[key] = self._wrap(CHECK_SPAN, fn)

    def _setattr(self, owner, attr, value) -> None:
        self._restore.append(functools.partial(setattr, owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# ---------------------------------------------------------------------------
# self times

def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> its duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


# per-layer time metric -> the span names whose self time it sums
LAYER_TIMES = {
    "setcover.min_cover_s": ("setcover.min_cover",),
    "lattice.build_s": ("lattice.subgroup_lattice",),
    "lattice.maximal_s": ("lattice.maximal_indices",),
    "tables.cayley_s": ("tables.get_table",),
    "tables.sylow_count_s": ("tables.sylow_count_in",),
    "covering.instance_s": ("covering.sigma_p_cover", "covering.class_cover"),
    "group.elements_s": ("group.elements",),
    "group.normalizer_s": ("group.normalizer",),
    "group.classes_s": ("group.conjugacy_classes",),
    "group.chain_s": ("group.chain",),
    "group.p_residual_s": ("group.p_residual",),
    "group.quotient_s": ("group.quotient_group",),
    "sylow.subgroup_s": ("sylow.sylow_subgroup", "sylow.sylow_subgroup_containing"),
    "sylow.nu_s": ("sylow.nu_p",),
    "sylow.subgroups_s": ("sylow.sylow_subgroups",),
    "actions.coset_s": ("actions.coset_action", "actions.natural_action"),
    "actions.fpr_s": ("actions.min_fpr_p_element", "actions.fpr_element",
                      "actions.fpr_subgroup"),
    "graphs.build_s": ("graphs.noncommuting_graph",),
    "cliques.max_clique_s": ("cliques.max_clique",),
    "catalog.construct_s": ("catalog.construct",),
    "checks.self_s": (CHECK_SPAN,),
    "cli.self_s": ("cli.main",),
}

# per-layer count metric -> counter key
LAYER_COUNTS = {
    "setcover.min_cover.calls": "setcover.min_cover.calls",
    "setcover.universe_bits": "setcover.universe_bits",
    "setcover.candidates": "setcover.candidates",
    "lattice.build.cold": "lattice.subgroup_lattice.cold",
    "lattice.subgroups": "lattice.subgroups",
    "tables.cayley.cold": "tables.get_table.cold",
    "tables.sylow_count.calls": "tables.sylow_count_in.calls",
    "group.chain.cold": "group.chain.cold",
    "graphs.build.calls": "graphs.noncommuting_graph.calls",
    "graphs.vertices": "graphs.vertices",
    "graphs.pairs": "graphs.pairs",
    "cliques.max_clique.calls": "cliques.max_clique.calls",
    "catalog.construct.calls": "catalog.construct.calls",
}

# per-layer ratio metric -> cache span name (hits / calls, 0 without calls)
LAYER_HIT_RATIOS = {
    "lattice.hit_ratio": "lattice.subgroup_lattice",
    "tables.cayley.hit_ratio": "tables.get_table",
}


def layer_metrics(spans: list[Span], counts: dict[str, int], passes: int = 1) -> dict[str, float]:
    """Per-layer self times (s) and counters, averaged over `passes`."""
    selfs = self_times(spans)
    by_name: dict[str, int] = defaultdict(int)
    for s in spans:
        by_name[s.name] += selfs[s.id]
    out = {}
    for metric, names in LAYER_TIMES.items():
        out[metric] = sum(by_name[n] for n in names) / 1e9 / passes
    for metric, key in LAYER_COUNTS.items():
        out[metric] = counts.get(key, 0) / passes
    for metric, name in LAYER_HIT_RATIOS.items():
        calls = counts.get(name + ".calls", 0)
        out[metric] = counts.get(name + ".hit", 0) / calls if calls else 0.0
    return out


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Self time summed by layer (the metric name's first component)."""
    out: dict[str, float] = defaultdict(float)
    for metric in LAYER_TIMES:
        out[metric.split(".", 1)[0]] += metrics[metric]
    return dict(out)
