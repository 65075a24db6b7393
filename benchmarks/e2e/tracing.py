"""Outside-in host-time probes for the simulator's layers.

Nothing here edits ``src/``. Both probes replace public entry points
with wrappers after ``repro`` is imported:

* :class:`SetupProbe` (every pass) times the set-up calls behind
  ``setup_s`` (``RuntimeSystem.__init__``, ``make_scheme``,
  ``generate_graph``) and counts runtimes and engine events. It touches
  nothing on the per-event hot path.
* :class:`Tracer` (traced passes only) turns every call into a layer's
  public entry points into a span, and every callback handed to the
  engine's scheduling API, to ``Worker.post_task`` or to
  ``RuntimeSystem.register_handler`` into a span of the package that
  defines the callback. A layer's self time is its span time minus its
  child spans. Spans aggregate in memory per (layer, entry point); each
  ``RuntimeSystem.run`` also keeps its own per-layer breakdown.

Layers are ``src/repro`` packages, except that
``repro.runtime.reliability`` is the ``reliability`` layer and the run
artifact module ``repro.harness.artifact`` belongs to ``obs``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "tram", "runtime", "network", "reliability", "flow", "faults",
    "obs", "apps", "harness",
)

_MODULE_LAYER = {
    "repro.runtime.reliability": "reliability",
    "repro.harness.artifact": "obs",
}

#: Modules imported before any probe is installed, so that every name
#: binding of a patched function already exists when it is replaced.
MODULES = (
    "repro",
    "repro.apps",
    "repro.apps.graphs",
    "repro.harness.artifact",
    "repro.harness.cache",
    "repro.harness.figures",
    "repro.harness.pool",
    "repro.harness.sweep",
    "repro.harness.validate",
    "repro.tram.schemes",
)


def layer_of(module: Optional[str]) -> str:
    """The layer a module belongs to (``other`` outside the named ones)."""
    if not module:
        return "other"
    if module in _MODULE_LAYER:
        return _MODULE_LAYER[module]
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


def import_modules() -> None:
    for name in MODULES:
        importlib.import_module(name)


def replace_function(module: str, name: str, make: Callable) -> None:
    """Replace ``module.name`` and every other binding of the same
    function object in loaded modules with ``make(original)``."""
    original = getattr(importlib.import_module(module), name)
    wrapper = make(original)
    for mod in list(sys.modules.values()):
        namespace = getattr(mod, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for attr, value in list(namespace.items()):
            if value is original:
                setattr(mod, attr, wrapper)


def _class(path: str) -> type:
    module, name = path.rsplit(".", 1)
    return getattr(importlib.import_module(module), name)


# ----------------------------------------------------------------------
# Set-up probe (every pass)
# ----------------------------------------------------------------------
class SetupProbe:
    """Set-up time, runtime count and engine events of one pass."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.runtimes = 0
        self.events = 0
        #: Called with each runtime after its ``run()`` (the tracer's
        #: counter hook).
        self.after_run: Optional[Callable[[Any, Any], None]] = None

    def _timed(self, key: str) -> Callable:
        seconds = self.seconds

        def make(fn):
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    seconds[key] += perf_counter() - t0
            return timed
        return make

    def install(self) -> None:
        rts = _class("repro.runtime.system.RuntimeSystem")
        init, run = rts.__init__, rts.run
        timed_init = self._timed("runtime_init_s")(init)
        probe = self

        @functools.wraps(init)
        def __init__(rt, *args, **kwargs):
            probe.runtimes += 1
            timed_init(rt, *args, **kwargs)

        @functools.wraps(run)
        def run_(rt, *args, **kwargs):
            stats = run(rt, *args, **kwargs)
            probe.events += stats.events_fired
            if probe.after_run is not None:
                probe.after_run(rt, stats)
            return stats

        rts.__init__ = __init__
        rts.run = run_
        replace_function(
            "repro.tram.schemes.registry", "make_scheme",
            self._timed("scheme_init_s"),
        )
        replace_function(
            "repro.apps.graphs", "generate_graph", self._timed("graph_s")
        )


# ----------------------------------------------------------------------
# Layer tracer (traced passes)
# ----------------------------------------------------------------------
#: (class path, methods, index of the callback argument or None,
#: whether callbacks are timer-wheel timeouts)
CLASS_ENTRIES: Tuple[Tuple[str, Tuple[str, ...], Optional[int], bool], ...] = (
    ("repro.sim.engine.Engine", ("run", "cancel"), None, False),
    ("repro.sim.engine.Engine",
     ("at", "after", "call_at", "call_after", "wire_call_at"), 2, False),
    ("repro.sim.engine.Engine", ("timer_at", "timer_after"), 2, True),
    ("repro.runtime.worker.Worker", ("post_task",), 1, False),
    ("repro.runtime.worker.Worker", ("deliver_message",), None, False),
    ("repro.runtime.system.RuntimeSystem", ("__init__", "run"), None, False),
    ("repro.runtime.system.RuntimeSystem", ("register_handler",), 2, False),
    ("repro.runtime.transport.Transport",
     ("send", "after_commthread_out", "on_nic_arrival"), None, False),
    ("repro.runtime.commthread.CommThread",
     ("submit_outbound", "submit_inbound"), None, False),
    ("repro.network.nic.Nic", ("inject", "receive"), None, False),
    ("repro.runtime.reliability.ReliableDelivery",
     ("on_send", "accept_inbound"), None, False),
    ("repro.flow.controller.FlowController",
     ("submit_ct", "submit_nic", "source_stall_ns"), None, False),
    ("repro.faults.injector.FaultInjector", ("wire_outcomes",), None, False),
    ("repro.obs.config.ObsSession", ("update",), None, False),
    ("repro.harness.cache.ResultCache", ("get", "put"), None, False),
)

SCHEME_METHODS = ("insert", "insert_bulk", "flush", "flush_when_done")

FUNCTION_ENTRIES = (
    ("repro.tram.schemes.registry", "make_scheme"),
    ("repro.apps.graphs", "generate_graph"),
    ("repro.apps", "run_histogram"),
    ("repro.apps", "run_indexgather"),
    ("repro.apps", "run_sssp"),
    ("repro.apps", "run_phold"),
    ("repro.apps", "run_pingack"),
    ("repro.apps", "run_alltoall"),
    ("repro.harness.figures", "run_figure"),
    ("repro.harness.sweep", "run_sweep"),
    ("repro.harness.artifact", "build_metrics_payload"),
    ("repro.harness.artifact", "write_metrics_json"),
    ("repro.harness.artifact", "validate_metrics_payload"),
    ("repro.harness.artifact", "canonical_metrics_bytes"),
)


def _unwrap(fn: Any) -> Any:
    while isinstance(fn, functools.partial):
        fn = fn.func
    return getattr(fn, "__func__", fn)


class Tracer:
    """Span aggregation by (layer, entry point)."""

    def __init__(self) -> None:
        #: Child-time accumulators; the base slot collects the total
        #: time spent inside any top-level span.
        self._stack: List[int] = [0]
        #: (layer, name) -> [self_ns, calls]
        self.records: Dict[Tuple[str, str], List[int]] = {}
        self._callback_records: Dict[Any, List[int]] = {}
        #: Counts read from public ``.stats`` objects after each run.
        self.counts: Dict[str, int] = defaultdict(int)
        self.timer_fires = 0
        self.runs: List[dict] = []
        self._layer_ns_before: Dict[str, int] = {}
        self._message_handler: Any = None

    # -- span primitives ----------------------------------------------
    def _record(self, layer: str, name: str) -> List[int]:
        return self.records.setdefault((layer, name), [0, 0])

    def span(self, fn: Callable, layer: str, name: str) -> Callable:
        """Wrap ``fn``: every call is one span of ``layer``."""
        rec = self._record(layer, name)
        stack = self._stack
        clock = perf_counter_ns

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[0] += dt - stack.pop()
                rec[1] += 1
                stack[-1] += dt

        spanned._bench_span = True
        return spanned

    def callback(self, fn: Callable, timer: bool = False) -> Callable:
        """A span wrapper for a callback, attributed to the package that
        defines it. Entry points that are already spans, and
        ``Worker._run_message_handler`` (whose identity the crash fabric
        tests), pass through unwrapped."""
        target = _unwrap(fn)
        if getattr(target, "_bench_span", False) or target is self._message_handler:
            return fn
        code = getattr(target, "__code__", None)
        key = (code if code is not None else type(target), timer)
        rec = self._callback_records.get(key)
        if rec is None:
            name = getattr(target, "__qualname__", type(target).__name__)
            layer = layer_of(getattr(target, "__module__", None))
            rec = self._record(layer, ("timer:" if timer else "cb:") + name)
            self._callback_records[key] = rec
        stack = self._stack
        clock = perf_counter_ns
        tracer = self

        def run(*args):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args)
            finally:
                dt = clock() - t0
                rec[0] += dt - stack.pop()
                rec[1] += 1
                stack[-1] += dt
                if timer:
                    tracer.timer_fires += 1

        tag = getattr(target, "_crash_drain_items", None)
        if tag is not None:
            # Crash-drain accounting reads this tag off queued tasks.
            run._crash_drain_items = tag
        return run

    def _entry(self, fn: Callable, layer: str, name: str,
               cb_index: Optional[int], timer: bool) -> Callable:
        spanned = self.span(fn, layer, name)
        if cb_index is None:
            return spanned
        # The callback is wrapped before the span's clock starts, so the
        # wrapping cost is not charged to the scheduling layer.
        wrap_cb = self.callback
        if cb_index == 1:
            def call(obj, cb, *args, **kwargs):
                return spanned(obj, wrap_cb(cb, timer), *args, **kwargs)
        else:
            def call(obj, a, cb, *args, **kwargs):
                return spanned(obj, a, wrap_cb(cb, timer), *args, **kwargs)
        functools.update_wrapper(call, fn)
        call._bench_span = True
        return call

    # -- installation ---------------------------------------------------
    def install(self, probe: SetupProbe) -> None:
        self._message_handler = _class(
            "repro.runtime.worker.Worker"
        )._run_message_handler
        for path, methods, cb_index, timer in CLASS_ENTRIES:
            cls = _class(path)
            layer = layer_of(cls.__module__)
            for method in methods:
                setattr(cls, method, self._entry(
                    getattr(cls, method), layer, f"{cls.__name__}.{method}",
                    cb_index, timer,
                ))
        base = _class("repro.tram.schemes.base.SchemeBase")
        pending, schemes = [base], []
        while pending:
            cls = pending.pop()
            schemes.append(cls)
            pending.extend(cls.__subclasses__())
        for cls in schemes:
            for method in SCHEME_METHODS:
                if method in cls.__dict__:
                    setattr(cls, method, self.span(
                        cls.__dict__[method], "tram", f"{cls.__name__}.{method}"
                    ))
        for module, name in FUNCTION_ENTRIES:
            replace_function(module, name, lambda fn, name=name: self.span(
                fn, layer_of(fn.__module__), name
            ))
        replace_function("repro.harness.pool", "map_points", self._map_points)
        probe.after_run = self._after_run

    def _map_points(self, fn: Callable) -> Callable:
        counts = self.counts

        def map_points(*args, **kwargs):
            outcomes = fn(*args, **kwargs)
            counts["harness.points"] += len(outcomes)
            counts["harness.cache_hits"] += sum(1 for o in outcomes if o.cache_hit)
            return outcomes

        return self.span(functools.wraps(fn)(map_points), "harness", "map_points")

    # -- per-run counters and spans --------------------------------------
    def layer_self_ns(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (layer, _), rec in self.records.items():
            out[layer] += rec[0]
        return out

    def _after_run(self, rt: Any, stats: Any) -> None:
        c = self.counts
        for scheme in rt.schemes:
            s = scheme.stats
            c["tram.items"] += s.items_inserted
            c["tram.items_remote"] += s.items_inserted - s.items_bypassed_local
            c["tram.messages"] += s.messages_sent
            c["tram.flush_messages"] += s.messages_flush
        c["runtime.tasks"] += sum(w.stats.tasks_executed for w in rt.workers)
        c["runtime.sends"] += rt.transport.stats.total_messages
        for proc in rt.processes:
            ct = proc.commthread
            if ct is not None:
                c["runtime.ct_services"] += ct.stats.out_messages + ct.stats.in_messages
        for node in rt.nodes:
            for nic in node.nics:
                c["network.nic_msgs"] += nic.stats.tx_messages
                c["network.bytes"] += nic.stats.tx_bytes
        if rt.reliable is not None:
            c["reliability.protected"] += rt.reliable.stats.protected_messages
            c["reliability.retransmits"] += rt.reliable.stats.retransmits
        if rt.flow is not None:
            c["flow.parked"] += rt.flow.stats.messages_parked
            c["flow.shed"] += rt.flow.stats.messages_shed
        if rt.faults is not None:
            c["faults.dropped"] += rt.faults.stats.messages_dropped
        now = self.layer_self_ns()
        before = self._layer_ns_before
        self.runs.append({
            "index": len(self.runs),
            "workers": rt.machine.total_workers,
            "schemes": [s.name for s in rt.schemes],
            "events": stats.events_fired,
            "self_s": {
                layer: (ns - before.get(layer, 0)) / 1e9
                for layer, ns in sorted(now.items())
                if ns != before.get(layer, 0)
            },
        })
        self._layer_ns_before = now

    def report(self, wall_s: float) -> dict:
        """The trace document written at the end of a traced pass."""
        layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        entries = []
        for (layer, name), (ns, calls) in self.records.items():
            if not calls:
                continue
            agg = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            agg["self_s"] += ns / 1e9
            agg["calls"] += calls
            entries.append(
                {"layer": layer, "name": name, "calls": calls, "self_s": ns / 1e9}
            )
        entries.sort(key=lambda e: -e["self_s"])
        for agg in layers.values():
            agg["share"] = agg["self_s"] / wall_s if wall_s > 0 else 0.0
        calls = {name: rec[1] for (_, name), rec in self.records.items()}
        return {
            "wall_s": wall_s,
            "attributed_frac": self._stack[0] / 1e9 / wall_s if wall_s > 0 else 0.0,
            "layers": layers,
            "entries": entries,
            "counts": dict(self.counts),
            "timer_arms": calls.get("Engine.timer_at", 0)
            + calls.get("Engine.timer_after", 0),
            "timer_fires": self.timer_fires,
            "cancels": calls.get("Engine.cancel", 0),
            "runs": self.runs,
        }
