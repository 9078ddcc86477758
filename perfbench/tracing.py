"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces every public function of the layer modules,
every function one layer module imports from another (``_phi_profile`` and
``_g_profile`` among them) and ``StarMap.__call__`` by a wrapper that
records a span (name, start, end, parent, op) in memory.  Each module-level
name bound to a wrapped function is patched, so calls inside a module are
seen too.  ``uninstall`` restores the originals.  ``layer_metrics`` turns
the spans of the traced operations into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("marker", "tiling", "signal", "fibre", "dynsys", "widim", "config", "pipeline")
ROOT = "harness.op"


def _modules():
    return {name: importlib.import_module(f"meandimlab.{name}") for name in LAYERS}


def _info_of(name):
    """Work counters read off a call's result."""
    return {
        "marker.marker_sequence": lambda out: {
            "positions": out.window[1] - out.window[0] + 1,
            "visits": len(out.support),
        },
        "tiling.slice_tiling": lambda out: {"tiles": len(out.labels)},
        "signal.factor_context": lambda out: {"positions": len(out.ks)},
        "fibre.fiber_width_chain": lambda out: {
            "probes": len(out.probes),
            "distinct": len({p.index for p in out.probes}),
            "multi": sum(p.fiber_size > 1 for p in out.probes),
        },
        "widim.min_multiplicity": lambda out: {"exact": out.mode == "exact", "nodes": out.nodes},
    }.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, info]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def _wrap(self, name: str, fn):
        spans, stack, info_of = self.spans, self._stack, _info_of(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if info_of is not None:
                rec[5] = info_of(out)
            return out

        return traced

    def install(self) -> None:
        mods = _modules()
        owner = {m.__name__: short for short, m in mods.items()}
        chosen = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if not inspect.isfunction(obj) or obj.__module__ not in owner:
                    continue
                imported = obj.__module__ != mod.__name__
                if imported or not obj.__name__.startswith("_"):
                    chosen[obj] = f"{owner[obj.__module__]}.{obj.__name__}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in chosen.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        star = mods["pipeline"].StarMap
        self._patch(star, "__call__", self._wrap("pipeline.StarMap.__call__", star.__call__))

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def run_op(self, op_index: int, fn):
        """Run fn under a root span for one operation."""
        self.op = op_index
        root = self._wrap(ROOT, fn)
        try:
            return root()
        finally:
            self.op = -1

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "op"], "spans": [s[:5] for s in self.spans]},
                fh,
            )


# Per-layer metrics: time groups sum the durations of the outermost spans
# among the listed names, so nested calls are not counted twice.
TIME_GROUPS = {
    "marker.sequence_s": ("marker.marker_sequence",),
    "marker.spec_s": (
        "marker.make_marker_spec", "marker.compute_M_M1", "marker.compute_M", "marker.compute_M1",
    ),
    "tiling.slice_s": ("tiling.slice_tiling", "tiling.tiling_pair"),
    "tiling.checks_s": (
        "tiling.check_tile_locality", "tiling.check_survivor_level", "tiling.check_coverage",
        "tiling.check_interior_mass", "tiling.check_edge_density", "tiling.check_central_tile",
        "tiling.check_equivariance",
    ),
    "signal.context_s": ("signal.factor_context",),
    "signal.profile_s": ("signal._phi_profile", "signal._g_profile"),
    "signal.plateau_s": ("signal.plateau_report",),
    "signal.checks_s": (
        "signal.check_profile_cap", "signal.check_plateau_budget", "signal.check_band_support",
        "signal.check_band_sparsity", "signal.check_band_recovery",
    ),
    "signal.separation_s": ("signal.separation_report",),
    "fibre.chain_s": ("fibre.fiber_width_chain",),
    "fibre.fmap_s": (
        "fibre.build_fmap", "fibre.verify_fiber_bound", "fibre.check_fiber_bound",
        "fibre.check_nerve_transfer",
    ),
    "dynsys.bowen_s": ("dynsys.bowen_dist",),
    "dynsys.sample_s": ("dynsys.sample_points",),
    "pipeline.starmap_s": ("pipeline.StarMap.__call__",),
    "pipeline.write_s": ("pipeline.write_report",),
    "widim.seq_dmat_s": ("widim.seq_bowen_dmat",),
    "config.resolve_s": (
        "config.resolve", "config.select_factor_numbers", "config.resolve_marker",
        "config.resolve_tiling",
    ),
}
CALL_COUNTS = {
    "marker.sequence_calls": "marker.marker_sequence",
    "tiling.slice_calls": "tiling.slice_tiling",
    "signal.context_calls": "signal.factor_context",
    "dynsys.bowen_calls": "dynsys.bowen_dist",
    "pipeline.starmap_calls": "pipeline.StarMap.__call__",
}
INFO_SUMS = {
    "marker.window_positions": ("marker.marker_sequence", "positions"),
    "marker.visits": ("marker.marker_sequence", "visits"),
    "tiling.tiles": ("tiling.slice_tiling", "tiles"),
    "signal.positions": ("signal.factor_context", "positions"),
    "fibre.probes": ("fibre.fiber_width_chain", "probes"),
}


def layer_totals(spans) -> dict:
    """Totals over all traced operations of every per-layer quantity."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_t = [dur[i] - child[i] for i in range(n)]

    def outermost(names) -> float:
        total = 0.0
        for i, s in enumerate(spans):
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += dur[i]
        return total

    tot = defaultdict(float)
    for metric, names in TIME_GROUPS.items():
        tot[metric] = outermost(set(names))
    names = [s[0] for s in spans]
    for metric, name in CALL_COUNTS.items():
        tot[metric] = names.count(name)
    for metric, (name, key) in INFO_SUMS.items():
        tot[metric] = sum(s[5][key] for s in spans if s[0] == name)
    chains = [s[5] for s in spans if s[0] == "fibre.fiber_width_chain"]
    tot["fibre.distinct_probes"] = sum(c["distinct"] for c in chains)
    tot["fibre.multi_member_probes"] = sum(c["multi"] for c in chains)
    tot["fibre.chain_self_s"] = sum(
        self_t[i] for i, s in enumerate(spans) if s[0] == "fibre.fiber_width_chain"
    )
    mm = [(i, s[5]) for i, s in enumerate(spans) if s[0] == "widim.min_multiplicity"]
    exact = [i for i, info in mm if info["exact"]]
    greedy = [i for i, info in mm if not info["exact"]]
    tot["widim.exact_s"] = sum(dur[i] for i in exact)
    tot["widim.exact_nodes"] = sum(info["nodes"] for _, info in mm if info["exact"])
    tot["widim.greedy_calls"] = len(greedy)
    tot["widim.greedy_s"] = sum(dur[i] for i in greedy)
    for i, s in enumerate(spans):
        tot[f"{s[0].split('.')[0]}.self_s"] += self_t[i]
    tot["trace.op_s"] = sum(dur[i] for i, s in enumerate(spans) if s[0] == ROOT)
    tot["trace.ops"] = names.count(ROOT)
    tot["trace.spans"] = n
    return dict(tot)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_yield")):
        return "share"
    return "count"


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tot: dict, overhead_share: float) -> dict:
    """Per-operation means of the totals, plus the ratios."""
    ops = tot["trace.ops"]
    per_op = lambda key: tot.get(key, 0.0) / ops  # noqa: E731
    out = {}
    for metric in (
        *TIME_GROUPS, *CALL_COUNTS, *INFO_SUMS, "fibre.chain_self_s",
        "widim.exact_s", "widim.exact_nodes", "widim.greedy_calls", "widim.greedy_s",
        *(f"{layer}.self_s" for layer in LAYERS), "trace.op_s", "trace.spans",
    ):
        out[metric] = per_op(metric)
    out["marker.visit_yield"] = _share(tot["marker.visits"], tot["marker.window_positions"])
    out["fibre.distinct_probe_share"] = _share(tot["fibre.distinct_probes"], tot["fibre.probes"])
    out["fibre.multi_member_share"] = _share(tot["fibre.multi_member_probes"], tot["fibre.probes"])
    layer_self = sum(tot.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    out["trace.accounted_share"] = _share(layer_self, tot["trace.op_s"])
    out["trace.overhead_share"] = overhead_share
    return out
