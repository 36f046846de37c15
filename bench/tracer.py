"""In-memory tracer for the benchmark's traced run.

The tracer wraps stlmc's public functions from outside the package, at
the name each caller looks up (modules bind imported names, so
``stlmc.cli.run_main_algorithm`` is wrapped rather than the function in
``stlmc.partition_estimator``). Outer functions get one span per call
(name, start, end, index of the parent span). The target methods are hot, so they only
add to per-name counts and busy time, and only the outermost target
call counts: ``PerturbedTarget.f`` calls ``GaussianMixture.f``.

Pool workers forked by ``partition_estimator`` inherit the wrappers.
A worker resets its copy of the tracer on its first wrapped call and,
after each outermost call, writes its totals to ``child_dir``; the
parent adds them in with ``merge_children``.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np

import stlmc.chain_analysis
import stlmc.cli
import stlmc.diagnostics
import stlmc.mixture_target
import stlmc.partition_estimator
import stlmc.tempering_chain

# (owner, attribute, metric prefix) of every outer function that gets spans.
_SPANS = [
    (stlmc.cli, "main", "cli.main"),
    (stlmc.cli, "run_main_algorithm", "partition_estimator.run_main_algorithm"),
    (stlmc.cli, "run_stlmc", "tempering_chain.run_stlmc"),
    (stlmc.cli, "exact_bin_masses", "diagnostics.exact_bin_masses"),
    (stlmc.cli, "discretize_langevin_generator",
     "chain_analysis.discretize_langevin_generator"),
    (stlmc.cli, "z_ratio_bound_check", "chain_analysis.z_ratio_bound_check"),
    (stlmc.partition_estimator, "run_tempering_batch", "tempering_chain.run_tempering_batch"),
    (stlmc.partition_estimator, "estimate_next_z", "partition_estimator.estimate_next_z"),
    (stlmc.chain_analysis, "log_partition_quadrature",
     "partition_estimator.log_partition_quadrature"),
    (stlmc.diagnostics, "log_partition_quadrature",
     "partition_estimator.log_partition_quadrature"),
    (stlmc.chain_analysis.DiscretizedGenerator, "eigenvalues", "chain_analysis.eigenvalues"),
    (stlmc.chain_analysis, "cheeger_constant", "chain_analysis.cheeger_constant"),
    (stlmc.tempering_chain, "run_macro_step", "langevin_kernel.run_macro_step"),
]

_TARGETS = [
    (cls, method)
    for cls in (stlmc.mixture_target.GaussianMixture, stlmc.mixture_target.PerturbedTarget)
    for method in ("f", "f_and_grad")
]


class Tracer:
    """Counts, busy time and spans for one process; see the module docstring."""

    def __init__(self, child_dir):
        self.child_dir = child_dir
        self.root_pid = os.getpid()
        self.missing = set()
        self._saved = []
        self._clear(self.root_pid)

    def _clear(self, pid):
        self.pid = pid
        self.totals = defaultdict(float)
        self.stage_s = []
        self.spans = []
        self.child_spans = {}
        self._stack = []  # open spans: [span index, start, time in child spans]
        self._target_depth = 0
        self._engine_depth = 0
        self._stage_mark = None
        self._stages_seen = 0

    # -- installation -------------------------------------------------------

    def install(self):
        hooks = {
            "tempering_chain.run_tempering_batch": self._engine_hooks(
                stlmc.partition_estimator.run_tempering_batch),
            "partition_estimator.run_main_algorithm": (self._main_enter, self._main_exit),
            "partition_estimator.estimate_next_z": self._stage_hooks(
                stlmc.partition_estimator.estimate_next_z),
        }
        for owner, attr, name in _SPANS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                # a later refactor removed this entry point; its metrics read 0
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            enter, leave = hooks.get(name, (None, None))
            self._patch(owner, attr, fn, self._span(fn, name, enter, leave))
        for cls, method in _TARGETS:
            fn = cls.__dict__[method]
            self._patch(cls, method, fn, self._hot(fn, "mixture_target." + method))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _patch(self, owner, attr, fn, wrapper):
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name, enter, leave):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tr.pid:
                tr._clear(os.getpid())
            start = time.perf_counter()
            parent = tr._stack[-1][0] if tr._stack else -1
            frame = [len(tr.spans), start, 0.0]
            tr.spans.append(None)
            tr._stack.append(frame)
            state = enter(args, kwargs, start) if enter else None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tr._stack.pop()
                dt = end - start
                tr.spans[frame[0]] = (name, start, end, parent)
                tr.totals[name + ".calls"] += 1
                tr.totals[name + ".busy_s"] += dt
                tr.totals[name + ".self_s"] += dt - frame[2]
                if tr._stack:
                    tr._stack[-1][2] += dt
                if leave:
                    leave(state, result, end)
                if not tr._stack and tr.pid != tr.root_pid:
                    tr._dump_child()
        return wrapper

    def _hot(self, fn, name):
        tr = self
        calls, rows_key, busy = name + ".calls", name + ".rows", name + ".busy_s"
        in_engine = name == "mixture_target.f_and_grad"

        @functools.wraps(fn)
        def wrapper(obj, x, *args, **kwargs):
            if tr._target_depth:
                return fn(obj, x, *args, **kwargs)
            tr._target_depth = 1
            start = time.perf_counter()
            try:
                return fn(obj, x, *args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                tr._target_depth = 0
                rows = max(1, np.size(x) // obj.d)
                totals = tr.totals
                totals[calls] += 1
                totals[rows_key] += rows
                totals[busy] += dt
                if tr._stack:
                    tr._stack[-1][2] += dt
                if in_engine and tr._engine_depth:
                    totals["engine.f_and_grad.calls"] += 1
                    totals["engine.f_and_grad.rows"] += rows
        return wrapper

    # -- hooks --------------------------------------------------------------

    def _engine_hooks(self, fn):
        sig = inspect.signature(fn)

        def enter(args, kwargs, start):
            self._engine_depth += 1
            bound = sig.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            before = None
            if stats is not None:
                before = (int(stats["proposals"].sum()), int(stats["accepts"].sum()))
            return bound.arguments, stats, before

        def leave(state, result, end):
            self._engine_depth -= 1
            arguments, stats, before = state
            if result is None:
                return
            _, lev = result
            top = len(arguments["betas"]) - 1
            self.totals["engine.chains"] += int(arguments["n_chains"])
            self.totals["engine.top_ends"] += int(np.count_nonzero(lev == top))
            if stats is not None:
                self.totals["engine.swap_proposals"] += int(stats["proposals"].sum()) - before[0]
                self.totals["engine.swap_accepts"] += int(stats["accepts"].sum()) - before[1]
        return enter, leave

    def _main_enter(self, args, kwargs, start):
        self._stage_mark = start
        self._stages_seen = 0

    def _main_exit(self, state, result, end):
        if result is None:
            return
        self.totals["partition_estimator.final_stage_s"] += end - self._stage_mark
        self.totals["partition_estimator.stages"] += self._stages_seen + 1
        self.totals["partition_estimator.grad_evals"] += int(result.stats["grad_evals"])
        chains = sum(int(p["chains"]) for p in result.stats["phases"])
        self.totals["partition_estimator.chains"] += chains
        self.totals["partition_estimator.endpoints"] += result.samples.shape[0]

    def _stage_hooks(self, fn):
        """Stage boundaries are the returns of estimate_next_z."""
        sig = inspect.signature(fn)

        def enter(args, kwargs, start):
            return len(sig.bind(*args, **kwargs).arguments["samples"])

        def leave(kept, result, end):
            if result is None:
                return
            self.stage_s.append(end - self._stage_mark)
            self._stage_mark = end
            self._stages_seen += 1
            self.totals["partition_estimator.endpoints"] += kept
        return enter, leave

    # -- pool workers -------------------------------------------------------

    def _dump_child(self):
        path = os.path.join(self.child_dir, f"child-{self.pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump({"totals": self.totals, "spans": self.spans}, fh)
        os.replace(path + ".tmp", path)

    def merge_children(self):
        """Add the totals and spans the pool workers wrote, then delete their files."""
        for name in sorted(os.listdir(self.child_dir)):
            if not (name.startswith("child-") and name.endswith(".json")):
                continue
            path = os.path.join(self.child_dir, name)
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            for key, value in child["totals"].items():
                self.totals[key] += value
            self.child_spans[name[6:-5]] = child["spans"]
