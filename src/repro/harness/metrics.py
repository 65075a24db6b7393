"""Post-run utilization metrics for a simulated machine.

After ``rt.run()`` these helpers turn the component counters into the
quantities a performance engineer would ask for: how busy were the
worker PEs, the comm threads and the NICs — i.e. *where is the
bottleneck*. The paper's §III-A diagnosis ("the comm thread itself
becomes a serializing bottleneck") is literally a read of this report.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, List

from repro.util.tables import render_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem


@dataclass(frozen=True)
class UtilizationReport:
    """Busy fractions over one completed run."""

    total_time_ns: float
    #: Mean busy fraction over all worker PEs.
    worker_mean: float
    #: Busiest single worker PE.
    worker_max: float
    #: Mean busy fraction over comm threads (0.0 in non-SMP mode).
    commthread_mean: float
    commthread_max: float
    #: Mean tx-side NIC utilization across nodes.
    nic_tx_mean: float
    nic_rx_mean: float
    #: Total simulated ns messages spent queued behind comm threads.
    commthread_queue_wait_ns: float
    #: Total simulated ns messages spent queued behind NICs.
    nic_queue_wait_ns: float
    #: Worst booked-ahead horizon any comm thread reached (0.0 in
    #: non-SMP mode) — overload shows up here even with flow control off.
    commthread_max_backlog_ns: float = 0.0
    #: Largest PE-side receive-queue occupancy any worker reached.
    worker_queued_bytes_hwm: int = 0
    #: Channels the reliability layer gave up on: degraded to direct
    #: traffic plus torn down after a peer-death confirmation. Reported
    #: (in ``to_dict``/``bottleneck_detail``) only when nonzero so
    #: trip-free artifacts keep their exact pre-existing shape.
    channels_tripped: int = 0
    #: Items that travelled as unaggregated direct sends because their
    #: destination pair had degraded.
    degraded_direct_items: int = 0

    def bottleneck(self) -> str:
        """Name the most-utilized component class."""
        candidates = {
            "workers": self.worker_max,
            "commthreads": self.commthread_max,
            "nic_tx": self.nic_tx_mean,
            "nic_rx": self.nic_rx_mean,
        }
        return max(candidates, key=candidates.get)

    def bottleneck_detail(self) -> str:
        """The verdict plus the high-water backlog behind it."""
        verdict = self.bottleneck()
        if verdict == "commthreads" and self.commthread_max_backlog_ns > 0:
            verdict = (
                f"{verdict} (max backlog "
                f"{self.commthread_max_backlog_ns:,.0f} ns)"
            )
        if self.channels_tripped:
            verdict += (
                f" [{self.channels_tripped} channels tripped to direct, "
                f"{self.degraded_direct_items} items sent unaggregated]"
            )
        return verdict

    def to_dict(self) -> dict:
        """All fields as a plain dict (JSON-serializable)."""
        out = asdict(self)
        if not self.channels_tripped:
            del out["channels_tripped"]
            del out["degraded_direct_items"]
        return out

    def to_table(self) -> str:
        rows = [
            ["workers (mean/max)", f"{self.worker_mean:.1%}",
             f"{self.worker_max:.1%}"],
            ["comm threads (mean/max)", f"{self.commthread_mean:.1%}",
             f"{self.commthread_max:.1%}"],
            ["NIC tx / rx (mean)", f"{self.nic_tx_mean:.1%}",
             f"{self.nic_rx_mean:.1%}"],
            ["comm-thread queue wait (total ns)",
             f"{self.commthread_queue_wait_ns:,.0f}", ""],
            ["NIC queue wait (total ns)",
             f"{self.nic_queue_wait_ns:,.0f}", ""],
            ["comm-thread max backlog (ns)",
             f"{self.commthread_max_backlog_ns:,.0f}", ""],
            ["worker queued bytes (high-water)",
             f"{self.worker_queued_bytes_hwm:,}", ""],
        ]
        return render_table(["component", "mean", "max"], rows)


def utilization(rt: "RuntimeSystem") -> UtilizationReport:
    """Compute the utilization report for a finished run.

    Raises
    ------
    ValueError
        If the run never advanced simulated time.
    """
    total = rt.engine.now
    if total <= 0:
        raise ValueError("run the simulation before asking for utilization")
    worker_fracs = [w.stats.busy_ns / total for w in rt.workers]

    ct_fracs: List[float] = []
    ct_wait = 0.0
    ct_backlog = 0.0
    for proc in rt.processes:
        ct = proc.commthread
        if ct is not None:
            ct_fracs.append(ct.stats.busy_ns / total)
            ct_wait += ct.stats.queue_wait_ns
            if ct.stats.max_backlog_ns > ct_backlog:
                ct_backlog = ct.stats.max_backlog_ns

    costs = rt.costs
    tx_fracs, rx_fracs = [], []
    nic_wait = 0.0
    for node in rt.nodes:
        for nic in node.nics:
            tx_busy = (
                nic.stats.tx_messages * costs.nic_msg_ns
                + nic.stats.tx_bytes * costs.beta_ns_per_byte
            )
            rx_busy = (
                nic.stats.rx_messages * costs.nic_msg_ns
                + nic.stats.rx_bytes * costs.beta_ns_per_byte
            )
            tx_fracs.append(tx_busy / total)
            rx_fracs.append(rx_busy / total)
            nic_wait += nic.stats.tx_queue_wait_ns + nic.stats.rx_queue_wait_ns

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return UtilizationReport(
        total_time_ns=total,
        worker_mean=mean(worker_fracs),
        worker_max=max(worker_fracs) if worker_fracs else 0.0,
        commthread_mean=mean(ct_fracs),
        commthread_max=max(ct_fracs) if ct_fracs else 0.0,
        nic_tx_mean=mean(tx_fracs),
        nic_rx_mean=mean(rx_fracs),
        commthread_queue_wait_ns=ct_wait,
        nic_queue_wait_ns=nic_wait,
        commthread_max_backlog_ns=ct_backlog,
        worker_queued_bytes_hwm=max(
            (w.stats.queued_bytes_hwm for w in rt.workers), default=0
        ),
        channels_tripped=(
            rt.reliable.stats.channels_degraded
            + rt.reliable.stats.channels_torn_down
            if rt.reliable is not None
            else 0
        ),
        degraded_direct_items=sum(
            s.stats.direct_fallback_sends for s in rt.schemes
        ),
    )


def pool_summary(points: List[dict]) -> dict:
    """Aggregate sweep-pool provenance into an efficiency report.

    ``points`` are the per-point provenance dicts the pool records
    (index, cache_hit, worker, wall_s, ...). The summary answers the
    pool questions: how many points were free cache hits, how the
    executed work spread across workers, and how much execution
    wall-clock the pool absorbed (``exec_wall_s`` is the *sum* over
    points — with N busy workers the elapsed time is roughly 1/N of
    it; the gap between them is the parallel win).

    Conservation: ``n_points == cache_hits + executed`` always holds
    exactly; the artifact validator enforces it.
    """
    executed = [p for p in points if not p.get("cache_hit")]
    per_worker: dict = {}
    for p in executed:
        stats = per_worker.setdefault(
            str(p.get("worker", 0)), {"points": 0, "wall_s": 0.0}
        )
        stats["points"] += 1
        stats["wall_s"] += p.get("wall_s", 0.0)
    return {
        "n_points": len(points),
        "cache_hits": len(points) - len(executed),
        "executed": len(executed),
        "exec_wall_s": sum(p.get("wall_s", 0.0) for p in executed),
        "workers": dict(sorted(per_worker.items())),
    }
