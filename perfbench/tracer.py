"""Spans around poaphases' public functions, installed from outside.

:meth:`Tracer.install` replaces each traced function in every
``poaphases`` module that holds a reference to it (so
``sensitivity.solve_equilibrium`` is traced as well as
``equilibrium.solve_equilibrium``), and wraps the batched kernel methods
``CostTable.values/derivs/primitives``.  Nothing in the program is
edited; counts are read from the values the functions return.

A span is ``[id, name, start, end, parent_id, attrs]``.  Spans live in
memory until :meth:`Tracer.dump`.  A span opened on a thread with no open
span (a CLI worker thread) hangs under the open ``cli.main`` span.  Kernel
calls are too frequent for one span each: their count, edge count and time
are added to the innermost open span's ``attrs`` instead.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from time import perf_counter

#: (module, function, span name); the module is where the function is defined.
TRACED = (
    ("cli", "main", "cli.main"),
    ("instance_io", "load_instance", "instance_io.load"),
    ("model", "enumerate_paths", "model.enumerate_paths"),
    ("model", "build_incidence", "model.build_incidence"),
    ("costs", "build_cost_table", "costs.build_cost_table"),
    ("costs", "marginal", "costs.marginal"),
    ("equilibrium", "solve_equilibrium", "equilibrium.solve"),
    ("equilibrium", "solve_social_optimum", "equilibrium.optimum"),
    ("equilibrium", "price_of_anarchy", "equilibrium.poa"),
    ("fixed_regime", "_newton_kkt", "fixed_regime.newton"),
    ("sensitivity", "locate_breakpoints", "sensitivity.locate"),
    ("sensitivity", "classify_breakpoint", "sensitivity.classify"),
    ("sensitivity", "one_sided_derivatives", "sensitivity.one_sided"),
    ("sensitivity", "theta_qp", "sensitivity.theta_qp"),
)

KERNEL_METHODS = ("values", "derivs", "primitives")


def _equilibrium_counts(attrs, res):
    attrs["fw_iters"] = res.fw_iters
    attrs["active_set_iters"] = res.active_set_iters


def _newton_counts(attrs, res):
    # _newton_kkt returns (f, lam, x, res_inf, iters, converged).
    attrs["iters"] = res[4]
    attrs["residual"] = float(res[3])


ON_RESULT = {
    "equilibrium.solve": _equilibrium_counts,
    "fixed_regime.newton": _newton_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.orphan = {"k_calls": 0, "k_edges": 0, "k_s": 0.0}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._root = None
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        on_result = ON_RESULT.get(name)
        is_root = name == "cli.main"

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            rec = [next(self._ids), name, 0.0, 0.0, parent[0] if parent else 0, {}]
            stack.append(rec)
            if is_root:
                self._root = rec
            rec[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append(rec)
            if on_result is not None:
                on_result(rec[5], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_kernel(self, method):
        def traced(table, x, out=None):
            t0 = perf_counter()
            result = method(table, x, out)
            dt = perf_counter() - t0
            stack = self._stack()
            attrs = stack[-1][5] if stack else self.orphan
            attrs["k_calls"] = attrs.get("k_calls", 0) + 1
            attrs["k_edges"] = attrs.get("k_edges", 0) + len(result)
            attrs["k_s"] = attrs.get("k_s", 0.0) + dt
            return result

        traced.__wrapped__ = method
        return traced

    def install(self):
        """Wrap every traced function wherever poaphases refers to it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "poaphases" or name.startswith("poaphases.")}
        for home, attr, span in TRACED:
            original = getattr(mods[f"poaphases.{home}"], attr)
            wrapped = self._wrap(original, span)
            for mod in mods.values():
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))
        table_cls = mods["poaphases.kernels"].CostTable
        for attr in KERNEL_METHODS:
            original = getattr(table_cls, attr)
            setattr(table_cls, attr, self._wrap_kernel(original))
            self._undo.append((table_cls, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, **attrs}) + "\n")


def _union_length(intervals, lo, hi):
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its child spans and kernel time.

    Children from different threads may overlap in time; taking the union
    counts each covered instant once.  Kernel calls run on the span's own
    thread while it is innermost, so they never overlap its child spans.
    """
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append((s[2], s[3]))
    return {s[0]: (s[3] - s[2]) - _union_length(children.get(s[0], ()), s[2], s[3])
            - s[5].get("k_s", 0.0) for s in spans}


def summarise(spans, orphan, n_passes: int) -> dict:
    """Per-layer metrics per pass, with 0 for layers that did not run."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s[1] == name]

    def total(name):
        return sum(s[3] - s[2] for s in named(name))

    def under(span, ancestor):
        parent = by_id.get(span[4])
        while parent is not None:
            if parent[1] == ancestor:
                return True
            parent = by_id.get(parent[4])
        return False

    solves = named("equilibrium.solve")
    newton = named("fixed_regime.newton")

    def solves_per(ancestor):
        n = len(named(ancestor))
        return sum(under(s, ancestor) for s in solves) / n if n else 0.0

    kern = [s[5] for s in spans] + [orphan]
    per = 1.0 / max(n_passes, 1)
    return {
        "equilibrium.solve.calls": len(solves) * per,
        "equilibrium.solve.self_s": sum(selfs[s[0]] for s in solves) * per,
        "equilibrium.fw_iters": sum(s[5]["fw_iters"] for s in solves) * per,
        "equilibrium.active_set_iters": sum(s[5]["active_set_iters"] for s in solves) * per,
        "equilibrium.optimum.calls": len(named("equilibrium.optimum")) * per,
        "equilibrium.optimum.s": total("equilibrium.optimum") * per,
        "kernels.eval.calls": sum(a.get("k_calls", 0) for a in kern) * per,
        "kernels.eval.edges": sum(a.get("k_edges", 0) for a in kern) * per,
        "kernels.eval.s": sum(a.get("k_s", 0.0) for a in kern) * per,
        "costs.build_cost_table.calls": len(named("costs.build_cost_table")) * per,
        "costs.build_cost_table.s": total("costs.build_cost_table") * per,
        "costs.marginal.calls": len(named("costs.marginal")) * per,
        "costs.marginal.s": total("costs.marginal") * per,
        "model.build_incidence.calls": len(named("model.build_incidence")) * per,
        "model.build_incidence.s": total("model.build_incidence") * per,
        "model.enumerate_paths.s": total("model.enumerate_paths") * per,
        "instance_io.load.s": total("instance_io.load") * per,
        "fixed_regime.newton.calls": len(newton) * per,
        "fixed_regime.newton.iters": sum(s[5]["iters"] for s in newton) * per,
        "fixed_regime.newton.s": total("fixed_regime.newton") * per,
        "fixed_regime.newton.max_residual": max((s[5]["residual"] for s in newton), default=0.0),
        "sensitivity.locate.s": total("sensitivity.locate") * per,
        "sensitivity.solves_per_scan": solves_per("sensitivity.locate"),
        "sensitivity.classify.s": total("sensitivity.classify") * per,
        "sensitivity.solves_per_transition": solves_per("sensitivity.classify"),
        "sensitivity.theta_qp.calls": len(named("sensitivity.theta_qp")) * per,
        "sensitivity.theta_qp.s": total("sensitivity.theta_qp") * per,
        "cli.self_s": sum(selfs[s[0]] for s in named("cli.main")) * per,
    }
