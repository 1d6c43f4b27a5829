"""Spans and counters recorded from outside blowup-lab.

`Tracer.install` replaces the public functions of the traced modules, and a
few methods, with wrappers, in every module namespace and module-level dict
that refers to them (so `simulator.sinhc`, imported from `auxiliary`, and
`cli.COMMANDS` are traced too).  `remove` puts the originals back.

A span is (parent id, name, start ns, end ns, pass id); its id is its index
in `spans`.  The calls too hot to time, `DampingProfile.b` above all, only
increment a counter.  Hooks add per-call quantities (nodes stepped, phi
points, RK4 steps) to `counts`, which the benchmark reads and clears once
per pass.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(float)
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrappers -----------------------------------------------------------

    def timed(self, fn, name: str, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, t0, t1, self.pass_id)
            if hook is not None:
                hook(self.counts, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ---------------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, modules: dict, methods: list, counters: list, hooks: dict) -> None:
        """modules: layer name -> module, whose public functions get spans
        named "<layer>.<function>".  methods and counters: (layer, class,
        method name) triples, spanned as "<layer>.<Class>.<method>" or
        counted as "<layer>.<method>.calls".  hooks: span name -> callable
        (counts, args, kwargs, result, duration_ns)."""
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.timed(obj, name, hooks.get(name))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if inspect.isfunction(val) and val in wrapped:
                            self._set(obj, key, wrapped[val])
        for layer, cls, meth in methods:
            name = f"{layer}.{cls.__name__}.{meth}"
            self._set(cls, meth, self.timed(cls.__dict__[meth], name, hooks.get(name)))
        for layer, cls, meth in counters:
            self._set(cls, meth, self.counted(cls.__dict__[meth], f"{layer}.{meth}.calls"))

    def remove(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    # -- reading ------------------------------------------------------------

    def pass_summary(self, pass_id: int) -> dict:
        """name -> [calls, total ns, self ns] over the spans of one pass.
        Self time is the duration minus that of the direct child spans."""
        child_ns = defaultdict(int)
        for parent, _, t0, t1, pid in self.spans:
            if pid == pass_id and parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict = {}
        for sid, (_, name, t0, t1, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = out.setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child_ns.get(sid, 0)
        return out

    def children(self, parent_name: str, child_name: str, pass_id: int) -> list[list[int]]:
        """Durations (ns) of the child_name spans under each parent_name span."""
        groups: dict = {}
        for sid, (_, name, _, _, pid) in enumerate(self.spans):
            if pid == pass_id and name == parent_name:
                groups[sid] = []
        for parent, name, t0, t1, pid in self.spans:
            if pid == pass_id and name == child_name and parent in groups:
                groups[parent].append(t1 - t0)
        return list(groups.values())

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns,pass\n")
            for sid, (parent, name, t0, t1, pid) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{name},{t0},{t1},{pid}\n")


# -- hooks: per-call quantities recorded next to the spans ------------------


def _step_hook(counts, args, kwargs, result, dur_ns):
    state = args[0]
    n, nodes = state.params.n, state.r.size
    t = state.t - state.dt  # the step advanced t; the cone is that of its start
    active = min(nodes, int(math.floor((t + state.params.R) / state.dr + 2.0)) + 1)
    counts[f"step.ns.n{n}"] += dur_ns
    counts[f"step.nodes.n{n}"] += nodes
    counts["step.active_frac_sum"] += active / nodes


def _run_hook(counts, args, kwargs, result, dur_ns):
    counts["snapshots.bytes"] += sum(u.nbytes + v.nbytes for _, u, v in result.snapshots)


def _critical_hook(counts, args, kwargs, result, dur_ns):
    # component_check builds a K x (j+1) kernel for each checked snapshot j,
    # once per component
    k = kwargs.get("quad_nodes", args[3] if len(args) > 3 else 64)
    m = result.t_checked.size
    counts["critical.kernel_evals"] += 2 * k * (m * (m + 1) // 2 + m)


def _quadrature_hook(counts, args, kwargs, result, dur_ns):
    quad = args[0]
    counts["quadrature.phi_points"] += quad.lam.size * quad.radii.size


def _rk4_hook(counts, args, kwargs, result, dur_ns):
    counts["rk4.steps"] += result.t.size - 1


HOOKS = {
    "simulator.step": _step_hook,
    "simulator.run_until_blowup": _run_hook,
    "simulator.verify_critical_inequalities": _critical_hook,
    "auxiliary.KernelQuadrature.__init__": _quadrature_hook,
    "auxiliary.solve_fundamental_pair": _rk4_hook,
}


def install_lab_tracing(tracer: Tracer) -> None:
    """Trace the simulator, auxiliary, damping, plotting and cli layers."""
    from blowup_lab import auxiliary, cli, damping, plotting, simulator

    tracer.install(
        modules={"simulator": simulator, "auxiliary": auxiliary, "damping": damping,
                 "plotting": plotting, "cli": cli},
        methods=[("simulator", simulator.GridState, "functionals"),
                 ("simulator", simulator.GridState, "sup_norm"),
                 ("auxiliary", auxiliary.KernelQuadrature, "__init__")],
        counters=[("damping", damping.DampingProfile, "b")],
        hooks=HOOKS,
    )
