"""Spans around the public functions of each tilq module, recorded from outside.

Every function named in TARGETS is replaced, at every module attribute and
class attribute of the loaded tilq modules that binds it, by a wrapper that
records a span: label, start, end, parent span and thread. The span stack is
kept per thread; a span that starts on a worker thread with an empty stack
takes as parent the innermost span open on the main thread (the certificate
runs its cost integrations on a thread pool while the main thread waits).

Nothing here changes what the wrapped functions compute: the wrapper calls
the original with the same arguments and returns its result untouched.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

# module -> functions; "Class.method" names a method on a class.
TARGETS = {
    "tilq.cli": ["parse_config", "main"],
    "tilq.problem": ["validate_assumptions"],
    "tilq.kernels": ["TwoTimeKernel.eval", "TwoTimeKernel.eval_dt",
                     "OneTimeMatrixFn.eval", "OneTimeMatrixFn.eval_dt"],
    "tilq.riccati": ["contraction_constants", "solve_riccati", "q_bar_nodes",
                     "riccati_residual_profile"],
    "tilq.propagators": ["fundamental_solution"],
    "tilq._quad": ["simpson_weights"],
    "tilq.equilibrium": ["build_policy", "value_identity_gap",
                         "equilibrium_certificate", "cost"],
    "tilq.bvp": ["from_riccati", "bvp_residual"],
    "tilq.verify": ["run_verification"],
}


def _label(module: str, name: str) -> str:
    layer = module.split(".", 1)[1].lstrip("_")
    if layer == "kernels":  # both kernel classes count as one layer
        name = name.split(".", 1)[1]
    return f"{layer}.{name}"


def _control_key(u):
    if isinstance(u, (list, tuple)):
        return tuple(_control_key(c) for c in u)
    if hasattr(u, "tobytes"):
        return ("const", u.tobytes())
    if isinstance(u, (int, float)):
        return ("const", float(u))
    return ("object", id(u))


def _cost_key(sig, args, kwargs):
    """(t, x, controls, breakpoints) of one cost call, hashable."""
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    x = a["x"]
    x = x.tobytes() if hasattr(x, "tobytes") else repr(x)
    bps = tuple(sorted(float(b) for b in a["breakpoints"]))
    return (float(a["t"]), x, _control_key(a["u"]), bps)


class Tracer:
    """Collects spans while installed; install() and uninstall() are paired."""

    def __init__(self):
        self.spans = []        # (id, parent, label, start, end, nested, thread)
        self.cost_keys = set()
        self.solve_meta = []   # meta of every RiccatiSolution solve_riccati returned
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._lock = threading.Lock()
        self._restore = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = st
        return st

    def _wrap(self, label, fn):
        cost_sig = inspect.signature(fn) if label == "equilibrium.cost" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self._stack()
            if st:
                parent = st[-1][0]
            else:
                main = self._main_stack
                parent = main[-1][0] if main and st is not main else None
            nested = any(lbl == label for _, lbl in st)
            sid = next(self._ids)
            st.append((sid, label))
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                st.pop()
                self.spans.append((sid, parent, label, start, end, nested,
                                   threading.get_ident()))
            if cost_sig is not None:
                key = _cost_key(cost_sig, args, kwargs)
                with self._lock:
                    self.cost_keys.add(key)
            elif label == "riccati.solve_riccati":
                self.solve_meta.append(dict(out.meta))
            return out

        return traced

    def install(self) -> None:
        """Wrap every TARGETS function at each tilq binding of it."""
        wrappers = {}
        for modname, names in TARGETS.items():
            mod = sys.modules.get(modname)
            if mod is None:
                __import__(modname)
                mod = sys.modules[modname]
            for name in names:
                owner = mod
                cls_name, _, attr = name.rpartition(".")
                if cls_name:
                    owner = getattr(mod, cls_name)
                fn = owner.__dict__[attr] if cls_name else getattr(mod, attr)
                wrappers[id(fn)] = (fn, self._wrap(_label(modname, name), fn))
        owners = [m for n, m in list(sys.modules.items())
                  if n == "tilq" or n.startswith("tilq.")]
        owners += [v for m in list(owners) for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("tilq")]
        for owner in owners:
            for attr, val in list(vars(owner).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(owner, attr, hit[1])
                    self._restore.append((owner, attr, val))

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._restore):
            setattr(owner, attr, val)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Plain-data record of the spans, for aggregation or for JSON."""
        return {"spans": [list(s) for s in self.spans],
                "cost_unique": len(self.cost_keys),
                "solve_meta": [{k: m.get(k) for k in
                                ("iterations_total", "windows", "halvings")}
                               for m in self.solve_meta]}


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(snap: dict) -> dict:
    """Per-label calls, total time (outermost spans only) and self time.

    Self time is a span's duration minus the union of the intervals its
    child spans cover, clipped to the span.
    """
    spans = snap["spans"]
    children = {}
    for sid, parent, _, start, end, _, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _, label, start, end, nested, thread in spans:
        rec = out.setdefault(label, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                     "threads": set()})
        rec["calls"] += 1
        rec["threads"].add(thread)
        covered = _union_length([(max(a, start), min(b, end))
                                 for a, b in children.get(sid, ()) if b > start and a < end])
        rec["self_s"] += (end - start) - covered
        if not nested:
            rec["total_s"] += end - start
    return out


def _get(summary, label, field):
    rec = summary.get(label)
    return rec[field] if rec else 0


def layer_metrics(snap: dict) -> dict:
    """The per-layer metrics of one traced operation, as name -> value."""
    s = summarize(snap)
    metas = snap["solve_meta"]
    iterations = sum(m["iterations_total"] or 0 for m in metas)
    solve_self = _get(s, "riccati.solve_riccati", "self_s")
    cost_calls = _get(s, "equilibrium.cost", "calls")
    kernel_labels = ("kernels.eval", "kernels.eval_dt")
    return {
        "cli.parse_config_s": _get(s, "cli.parse_config", "total_s"),
        "cli.main.self_s": _get(s, "cli.main", "self_s"),
        "problem.validate_assumptions_s": _get(s, "problem.validate_assumptions", "total_s"),
        "kernels.eval.calls": _get(s, "kernels.eval", "calls"),
        "kernels.eval_dt.calls": _get(s, "kernels.eval_dt", "calls"),
        "kernels.eval_s": sum(_get(s, k, "total_s") for k in kernel_labels),
        "riccati.contraction_constants_s": _get(s, "riccati.contraction_constants", "total_s"),
        "riccati.solve_riccati.self_s": solve_self,
        "riccati.picard_iterations": iterations,
        "riccati.windows": sum(len(m["windows"] or ()) for m in metas),
        "riccati.halvings": sum(m["halvings"] or 0 for m in metas),
        "riccati.s_per_iteration": solve_self / iterations if iterations else 0.0,
        "riccati.nonlocal_passes": (_get(s, "riccati.q_bar_nodes", "calls")
                                    + _get(s, "riccati.riccati_residual_profile", "calls")),
        "riccati.q_bar_nodes_s": _get(s, "riccati.q_bar_nodes", "total_s"),
        "riccati.riccati_residual_profile_s": _get(s, "riccati.riccati_residual_profile", "total_s"),
        "propagators.fundamental_solution.calls": _get(s, "propagators.fundamental_solution", "calls"),
        "propagators.fundamental_solution_s": _get(s, "propagators.fundamental_solution", "total_s"),
        "quad.simpson_weights.calls": _get(s, "quad.simpson_weights", "calls"),
        "quad.simpson_weights_s": _get(s, "quad.simpson_weights", "total_s"),
        "equilibrium.build_policy_s": _get(s, "equilibrium.build_policy", "total_s"),
        "equilibrium.value_identity_gap_s": _get(s, "equilibrium.value_identity_gap", "total_s"),
        "equilibrium.equilibrium_certificate_s": _get(s, "equilibrium.equilibrium_certificate", "total_s"),
        "equilibrium.equilibrium_certificate.self_s": _get(s, "equilibrium.equilibrium_certificate", "self_s"),
        "equilibrium.cost.calls": cost_calls,
        "equilibrium.cost_s": _get(s, "equilibrium.cost", "total_s"),
        "equilibrium.cost.unique_ratio": snap["cost_unique"] / cost_calls if cost_calls else 0.0,
        "equilibrium.cost.threads": len(s["equilibrium.cost"]["threads"]) if cost_calls else 0,
        "bvp.from_riccati_s": _get(s, "bvp.from_riccati", "total_s"),
        "bvp.bvp_residual_s": _get(s, "bvp.bvp_residual", "total_s"),
        "verify.run_verification.self_s": _get(s, "verify.run_verification", "self_s"),
    }
