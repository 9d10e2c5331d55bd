"""Spans and counts around the calls into qcmap's modules, and the per-layer
metrics derived from them.

Nothing under src/ is changed: ``install`` replaces module and class
attributes with timing wrappers, at the places where the calling module looks
them up, and ``uninstall`` puts the originals back. A span is
[name, start, end, parent index, op id, info]; spans stay in memory until
the run writes them out.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)  # (op id, name) -> calls
        self.op = None
        self._stack = []

    def wrap(self, name, fn, info=None):
        """fn with a span per call; ``info(args, result)`` adds detail."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), None,
                   stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = time.perf_counter()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[(self.op, name)] += 1
            return fn(*args, **kwargs)

        return counted

    def export(self):
        return {"spans": self.spans,
                "counts": [[op, name, n] for (op, name), n in self.counts.items()]}


class _Proxy:
    """A module stand-in with some attributes replaced."""

    def __init__(self, base, **replaced):
        self._base = base
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._base, name)


def _points(args, kwargs, out):
    return {"points": int(np.size(args[0]))}


def _file_bytes(args, kwargs, out):
    return {"bytes": os.path.getsize(args[-1])}


def _solve_info(args, kwargs, gm):
    hist = gm.residual_history
    rate = ((hist[-1] / hist[0]) ** (1.0 / (len(hist) - 1))
            if len(hist) > 1 and hist[0] > 0 else float("nan"))
    return {"iterations": gm.iterations, "rate": rate,
            "sup_mu": float(args[0].sup_norm)}


def install(tracer):
    """Wrap qcmap's layer boundaries; returns the patches for ``uninstall``."""
    # the package re-exports the function ``modulus``, which shadows the
    # submodule of that name as an attribute of ``qcmap``
    cli, closed_maps, field, modulus, solver = (
        importlib.import_module("qcmap." + name)
        for name in ("cli", "closed_maps", "field", "modulus", "solver"))

    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    wrap = tracer.wrap
    solve = wrap("solver.solve_principal", solver.solve_principal, _solve_info)
    patch(solver, "solve_principal", solve)
    patch(cli, "solve_principal", solve)
    patch(solver, "singular_transform",
          wrap("solver.singular_transform", solver.singular_transform))
    patch(solver, "cauchy_transform",
          wrap("solver.cauchy_transform", solver.cauchy_transform))
    fft = _Proxy(np.fft, fft2=wrap("solver.fft", np.fft.fft2, _points),
                 ifft2=wrap("solver.fft", np.fft.ifft2, _points))
    patch(solver, "np", _Proxy(np, fft=fft))
    patch(solver, "eval_gridmap",
          wrap("solver.gridmap_eval", solver.eval_gridmap,
               lambda a, k, o: {"points": int(np.size(a[1]))}))
    patch(solver.GridMap, "save",
          wrap("solver.gridmap_io", solver.GridMap.save, _file_bytes))
    patch(solver.GridMap, "load", staticmethod(
        wrap("solver.gridmap_io", solver.GridMap.load, _file_bytes)))
    for cls in (field.DiskConstant, field.SectorConstant, field.HolderGrid,
                field.Composite):
        patch(cls, "evaluate", wrap("field.evaluate", vars(cls)["evaluate"]))

    certify = cli.certify_bilipschitz

    def certify_with_traced_map(f, *args, **kwargs):
        return certify(wrap("modulus.map", f, _points), *args, **kwargs)

    patch(cli, "certify_bilipschitz",
          wrap("modulus.certify", certify_with_traced_map,
               lambda a, k, r: {"tested": r.annuli_tested,
                                "skipped": r.skipped}))
    patch(modulus, "bounding_annuli",
          wrap("modulus.bounding_annuli", modulus.bounding_annuli))
    patch(closed_maps, "eval_fc", wrap("closed_maps.eval", closed_maps.eval_fc))
    patch(closed_maps, "eval_fangle",
          wrap("closed_maps.eval", closed_maps.eval_fangle))
    patch(cli, "eval_fc", wrap("closed_maps.eval", cli.eval_fc))
    patch(closed_maps, "sector_invariants",
          tracer.count("closed_maps.sector_invariants",
                       closed_maps.sector_invariants))
    patch(cli, "allowable_locus",
          wrap("closed_maps.allowable_locus", cli.allowable_locus,
               lambda a, k, r: {"points": len(r.points),
                                "samples": k["samples"]}))

    build = cli.build_parser

    def build_parser():
        parser = wrap("cli.parse", build)()
        parser.parse_args = wrap("cli.parse", parser.parse_args)
        return parser

    patch(cli, "build_parser", build_parser)
    patch(cli, "_emit", wrap("cli.emit", cli._emit))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


# -- per-layer metrics -------------------------------------------------------

# name -> unit of the per-layer metrics in BENCHMARK.json, in its order.
# ``layer_metrics`` also gives solver.sup_mu, which the report shows next to
# solver.observed_rate; it is an input property, not a measure of the code.
PER_LAYER = {
    "field.evaluate_calls": "count",
    "field.evaluate_s": "s",
    "solver.sweeps": "count",
    "solver.observed_rate": "1",
    "solver.singular_transform_calls": "count",
    "solver.singular_transform_s": "s",
    "solver.cauchy_transform_s": "s",
    "solver.solve_self_s": "s",
    "solver.fft_calls": "count",
    "solver.fft_mcells": "Mcells",
    "solver.gridmap_eval_points": "count",
    "solver.gridmap_eval_s": "s",
    "solver.gridmap_io_s": "s",
    "solver.gridmap_bytes": "bytes",
    "modulus.bounding_annuli_calls": "count",
    "modulus.map_calls": "count",
    "modulus.map_points": "count",
    "modulus.map_s": "s",
    "modulus.certify_self_s": "s",
    "modulus.skipped_frac": "1",
    "closed_maps.sector_invariants_calls": "count",
    "closed_maps.locus_hit_frac": "1",
    "closed_maps.eval_s": "s",
    "cli.import_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "trace.overhead_frac": "1",
}


def _mean(xs):
    return sum(xs) / len(xs) if xs else float("nan")


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def per_op(spans, counts):
    """Sums per op id over its spans and counts: calls, seconds, self
    seconds and summed info numbers per span name; and the solve infos."""
    child = defaultdict(float)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    ops = defaultdict(lambda: defaultdict(float))
    solves = defaultdict(list)
    for i, (name, t0, t1, parent, op, info) in enumerate(spans):
        agg = ops[op]
        dur = t1 - t0
        agg[name + ".calls"] += 1
        agg[name + ".s"] += dur
        agg[name + ".self_s"] += dur - child[i]
        for key, val in (info or {}).items():
            if isinstance(val, (int, float)):
                agg[f"{name}.{key}"] += val
        if name == "solver.solve_principal":
            solves[op].append(info)
    for op, name, n in counts:
        ops[op][name + ".calls"] += n
    return ops, solves


def layer_metrics(ops, solves, op_kinds, import_s, overhead_frac):
    """Per-layer metrics from ``per_op`` sums; ``op_kinds``: op id -> kind.

    Counts and times are means per op of the kind that exercises the layer:
    per solve, per 9-center certify (of the solved map and of the fc
    reference), per certify of the solved map, per locus, per builtin-map
    certify, or per CLI command; I/O is per save or load call.
    """
    def over(kinds, key):
        return [ops.get(op, {}).get(key, 0.0)
                for op, kind in op_kinds.items() if kind in kinds]

    def per_call(name, key):
        calls = sum(a.get(name + ".calls", 0) for a in ops.values())
        total = sum(a.get(f"{name}.{key}", 0.0) for a in ops.values())
        return total / calls if calls else float("nan")

    solve, nine = ("solve",), ("certify_map", "certify_fc")
    certify = nine + ("certify_fangle",)
    infos = [i for op in op_kinds for i in solves.get(op, []) if i]
    tested = sum(over(certify, "modulus.certify.tested"))
    skipped = sum(over(certify, "modulus.certify.skipped"))
    cli_ops = [a for a in ops.values() if a.get("cli.parse.calls")]
    return {
        "field.evaluate_calls": _mean(over(solve, "field.evaluate.calls")),
        "field.evaluate_s": _mean(over(solve, "field.evaluate.s")),
        "solver.sweeps": _mean(over(solve, "solver.singular_transform.calls")),
        "solver.observed_rate": _median([i["rate"] for i in infos]),
        "solver.sup_mu": _median([i["sup_mu"] for i in infos]),
        "solver.singular_transform_calls":
            _mean(over(solve, "solver.singular_transform.calls")),
        "solver.singular_transform_s": per_call("solver.singular_transform", "s"),
        "solver.cauchy_transform_s":
            _mean(over(solve, "solver.cauchy_transform.s")),
        "solver.solve_self_s":
            _mean(over(solve, "solver.solve_principal.self_s")),
        "solver.fft_calls": _mean(over(solve, "solver.fft.calls")),
        "solver.fft_mcells": _mean(over(solve, "solver.fft.points")) / 1e6,
        "solver.gridmap_eval_points":
            _mean(over(("certify_map",), "solver.gridmap_eval.points")),
        "solver.gridmap_eval_s":
            _mean(over(("certify_map",), "solver.gridmap_eval.s")),
        "solver.gridmap_io_s": per_call("solver.gridmap_io", "s"),
        "solver.gridmap_bytes": per_call("solver.gridmap_io", "bytes"),
        "modulus.bounding_annuli_calls":
            _mean(over(nine, "modulus.bounding_annuli.calls")),
        "modulus.map_calls": _mean(over(nine, "modulus.map.calls")),
        "modulus.map_points": _mean(over(nine, "modulus.map.points")),
        "modulus.map_s": _mean(over(nine, "modulus.map.s")),
        "modulus.certify_self_s": _mean(over(nine, "modulus.certify.self_s")),
        "modulus.skipped_frac": skipped / (tested + skipped)
        if tested + skipped else float("nan"),
        "closed_maps.sector_invariants_calls":
            _mean(over(("locus",), "closed_maps.sector_invariants.calls")),
        "closed_maps.locus_hit_frac": _mean(
            [p / n for p, n in zip(
                over(("locus",), "closed_maps.allowable_locus.points"),
                over(("locus",), "closed_maps.allowable_locus.samples"))]),
        "closed_maps.eval_s":
            _mean(over(("certify_fc", "certify_fangle"), "closed_maps.eval.s")),
        "cli.import_s": _median(import_s),
        "cli.parse_s": _mean([a["cli.parse.s"] for a in cli_ops]),
        "cli.emit_s": _mean([a.get("cli.emit.s", 0.0) for a in cli_ops]),
        "trace.overhead_frac": overhead_frac,
    }
