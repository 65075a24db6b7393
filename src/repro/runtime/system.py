"""The runtime facade: one object wiring the whole simulated machine.

Typical use::

    from repro.machine import delta_machine
    from repro.runtime import RuntimeSystem

    rt = RuntimeSystem(delta_machine(nodes=2), seed=1)
    rt.register_handler("hello", lambda ctx, msg: print(msg.payload))
    rt.post(0, my_driver_task)
    stats = rt.run()

Running to event-queue exhaustion is quiescence: applications are
structured (explicit end-of-phase flushes, idle-flush hooks) so that a
finished run drains naturally.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError, DeliveryError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.flow.config import FlowConfig
from repro.flow.controller import FlowController
from repro.machine.costs import CostModel
from repro.machine.topology import MachineConfig
from repro.network.nic import Nic
from repro.obs.config import ObsConfig
from repro.obs.timeline import TimelineRecorder
from repro.options import ambient
from repro.runtime.commthread import CommThread
from repro.runtime.node import Node
from repro.runtime.proc import Process
from repro.runtime.reliability import ReliabilityConfig, ReliableDelivery
from repro.runtime.transport import Transport
from repro.runtime.worker import Worker
from repro.sim.engine import Engine, RunStats
from repro.sim.rng import RngStreams


class RuntimeSystem:
    """A fully wired simulated cluster.

    Parameters
    ----------
    machine:
        Topology (nodes x processes x workers, SMP or not).
    costs:
        Cost model; defaults to the Delta-shaped preset.
    seed:
        Root seed for all named RNG streams.
    obs / faults / reliability / flow:
        Optional overrides of the ambient
        :class:`~repro.options.RunOptions` fields of the same names
        (see :mod:`repro.options`): stage-attributed latency spans plus
        the flight recorder, the fault plan, the ack/retransmit layer,
        and credit-based flow control. Each is off by default; an off
        subsystem is ``None`` on the runtime and costs one ``is None``
        check per hop.
    """

    def __init__(
        self,
        machine: MachineConfig,
        costs: Optional[CostModel] = None,
        seed: int = 0,
        obs: Optional[ObsConfig] = None,
        faults: Optional[FaultPlan] = None,
        reliability: Optional[ReliabilityConfig] = None,
        flow: Optional[FlowConfig] = None,
    ) -> None:
        frame = ambient()
        options = frame.options
        explicit = {
            name: value
            for name, value in (
                ("obs", obs), ("faults", faults),
                ("reliability", reliability), ("flow", flow),
            )
            if value is not None
        }
        if explicit:
            options = dataclasses.replace(options, **explicit)
        self.obs = obs = options.obs
        #: Whether schemes should attach spans / stage histograms.
        self.obs_enabled = obs is not None and obs.enabled
        self._obs_session = frame.session if self.obs_enabled else None
        #: Scheme instances attached to this runtime (self-registered by
        #: SchemeBase; drives per-scheme metrics and snapshots).
        self.schemes: List[Any] = []
        self.machine = machine
        self.costs = costs if costs is not None else CostModel()
        self.engine = Engine()
        if machine.nodes > 1:
            # Owner-slot seq allocation (one owner per simulated node):
            # fixes tie order in multi-node runs. Single-node machines
            # keep the plain global counter.
            self.engine.configure_owners(machine.nodes)

        self.rng = RngStreams(seed)
        self.transport = Transport(self)
        self._handlers: Dict[str, Callable] = {}

        plan = options.faults
        #: Fault injector, or ``None`` (the default, zero-cost case).
        self.faults: Optional[FaultInjector] = (
            FaultInjector(plan=plan, rng=self.rng.stream("faults"))
            if plan is not None
            else None
        )
        #: Crash fabric: ``None`` when no plan kills processes (the
        #: hot-path check is ``dp = rt.dead_procs; if dp and pid in dp``,
        #: false for both ``None`` and the empty set); a live set of
        #: currently-dead process ids otherwise.
        self.dead_procs: Optional[set] = None
        #: Reliable-delivery layer, or ``None`` (the default).
        self.reliable: Optional[ReliableDelivery] = (
            ReliableDelivery(self, options.reliability)
            if options.reliability is not None
            else None
        )

        self._workers = [Worker(self, w) for w in range(machine.total_workers)]
        self._processes = [Process(self, p) for p in range(machine.total_processes)]
        self._nodes = []
        for n in range(machine.nodes):
            nics = []
            for _ in range(machine.nics_per_node):
                nic = Nic(engine=self.engine, costs=self.costs, node_id=n)
                nic.sink = self.transport.on_nic_arrival
                nic.faults = self.faults
                nics.append(nic)
            self._nodes.append(Node(self, n, nics))
        #: Routing tables, built once from the ``MachineConfig`` maps:
        #: the global process of each worker, the node of each process
        #: and the NIC serving each process. The per-hop code (transport,
        #: schemes, flow control) indexes them instead of calling the
        #: range-checked maps; ids that enter from outside (an insert's
        #: destination, a message's destination) are checked where they
        #: enter.
        self.proc_of_worker: List[int] = [
            machine.process_of_worker(w) for w in range(machine.total_workers)
        ]
        self.node_of_proc: List[int] = [
            machine.node_of_process(p) for p in range(machine.total_processes)
        ]
        self.nic_of_proc: List[Nic] = [
            self._nodes[n].nic_for_process(p)
            for p, n in enumerate(self.node_of_proc)
        ]
        if machine.smp:
            for proc in self._processes:
                ct = CommThread(self, proc.pid)
                ct.on_outbound_done = self.transport.after_commthread_out
                proc.commthread = ct

        #: Flow controller, or ``None`` (the default, zero-cost case).
        #: Built after nodes/comm threads so its gates can attach.
        self.flow: Optional[FlowController] = (
            FlowController(self, options.flow)
            if options.flow is not None
            else None
        )

        #: Flight recorder, or ``None`` (the default). Built last so its
        #: probes see every component, and installed as the engine's
        #: boundary sampler (the engine's fast loop then also stops at
        #: each sample boundary).
        tl_cfg = obs.timeline if obs is not None else None
        self.timeline: Optional[TimelineRecorder] = (
            TimelineRecorder(self, tl_cfg) if tl_cfg is not None else None
        )
        if self.timeline is not None:
            self.engine.sampler = self.timeline

        # Crash fabric, armed only when the plan actually kills someone:
        # seeded victims draw from a *dedicated* RNG stream so wire-dice
        # placement is untouched, and a crash-free plan schedules zero
        # events (pre-crash-fabric runs stay byte-identical).
        if self.faults is not None and plan.has_crashes():
            self.faults.crash_rng = self.rng.stream("proc-faults")
            self.dead_procs = set()
            for t, kind, pid in self.faults.crash_schedule(
                machine.total_processes
            ):
                if not 0 <= pid < machine.total_processes:
                    raise ConfigError(
                        f"scripted {kind} targets process {pid}, but the "
                        f"machine has {machine.total_processes} processes"
                    )
                fn = (
                    self._crash_process if kind == "crash"
                    else self._restart_process
                )
                self.engine.call_at(t, fn, (pid,))

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------
    def worker(self, wid: int) -> Worker:
        """The worker PE with global id ``wid``."""
        return self._workers[wid]

    def process(self, pid: int) -> Process:
        """The process with global id ``pid``."""
        return self._processes[pid]

    def node(self, node_id: int) -> Node:
        """The physical node ``node_id``."""
        return self._nodes[node_id]

    @property
    def workers(self):
        """All worker PEs, indexed by global id."""
        return self._workers

    @property
    def processes(self):
        """All processes, indexed by global id."""
        return self._processes

    @property
    def nodes(self):
        """All physical nodes."""
        return self._nodes

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------
    def register_handler(
        self, kind: str, fn: Callable, *, overwrite: bool = False
    ) -> None:
        """Register ``fn(ctx, msg)`` for messages of ``kind``."""
        if not overwrite and kind in self._handlers:
            raise ConfigError(f"handler for kind {kind!r} already registered")
        self._handlers[kind] = fn

    def handler_for(self, kind: str) -> Callable:
        """Look up the handler for a message kind."""
        try:
            return self._handlers[kind]
        except KeyError:
            raise DeliveryError(f"no handler registered for kind {kind!r}") from None

    # ------------------------------------------------------------------
    # Crash fabric
    # ------------------------------------------------------------------
    def _crash_process(self, pid: int) -> None:
        """Kill process ``pid`` at the current simulated time.

        Everything the process holds dies with it: its workers stop
        scheduling and their queued tasks are drained into the crash
        ledger, its buffered aggregation items are lost, the reliability
        layer tears down its outbound channels (its protocol state is
        gone), and the flow controller releases credits/parked FIFOs it
        held. Traffic *towards* the dead process is dropped and
        accounted at each arrival site.
        """
        dp = self.dead_procs
        if dp is None or pid in dp:
            return
        dp.add(pid)
        proc = self._processes[pid]
        proc.alive = False
        self.faults.stats.proc_crashes += 1
        for wid in self.machine.workers_of_process(pid):
            self._workers[wid].on_process_crashed()
        for scheme in self.schemes:
            scheme.on_process_crashed(pid)
        if self.reliable is not None:
            self.reliable.on_process_crashed(pid)
        if self.flow is not None:
            self.flow.on_process_crashed(pid)

    def _restart_process(self, pid: int) -> None:
        """Revive process ``pid`` with a fresh (empty) state.

        The simulator's shortcut through membership renegotiation (cf.
        the sparse dynamic data exchange of arXiv:2308.13869): the
        restart is announced to every subsystem at once — reliability
        channels reset towards the fresh peer, schemes fail back from
        direct-fallback routing, and the process resumes scheduling.
        Work lost in the crash stays lost (and stays accounted).
        """
        dp = self.dead_procs
        if dp is None or pid not in dp:
            return
        dp.discard(pid)
        self._processes[pid].alive = True
        self.faults.stats.proc_restarts += 1
        for wid in self.machine.workers_of_process(pid):
            self._workers[wid].on_process_restarted()
        if self.reliable is not None:
            self.reliable.on_process_restarted(pid)
        for scheme in self.schemes:
            scheme.on_peer_restarted(pid)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def post(
        self,
        worker_id: int,
        fn: Callable,
        *args: Any,
        delay: float = 0.0,
        expedited: bool = False,
    ) -> None:
        """Schedule task ``fn(ctx, *args)`` on a worker, now or later.

        On multi-node machines the bootstrap event is allocated under
        the target worker's node owner (see
        :meth:`~repro.sim.engine.Engine.configure_owners`).
        """
        worker = self._workers[worker_id]
        eng = self.engine
        if eng._owner_mod:
            prev = eng.current_owner
            eng.current_owner = self.machine.node_of_worker(worker_id)
            try:
                eng.after(delay, self._post_now, worker, fn, args, expedited)
            finally:
                eng.current_owner = prev
        else:
            eng.after(delay, self._post_now, worker, fn, args, expedited)

    @staticmethod
    def _post_now(worker: Worker, fn: Callable, args: tuple, expedited: bool) -> None:
        worker.post_task(fn, *args, expedited=expedited)

    def run(
        self, *, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> RunStats:
        """Run the engine (to quiescence by default)."""
        stats = self.engine.run(until=until, max_events=max_events)
        if self._obs_session is not None:
            self._obs_session.update(self, stats)
        return stats

    @property
    def now(self) -> float:
        """Current simulated time (ns)."""
        return self.engine.now
