"""Cluster topology: nodes, processes and worker PEs.

Terminology follows the paper (and Charm++):

* **node** — a physical host with one NIC.
* **process** — an OS process on a node. In SMP mode a process owns
  several **worker** PEs (threads pinned to cores) plus one dedicated
  communication thread. In non-SMP mode every process has exactly one
  worker and no comm thread (the worker performs its own communication),
  i.e. "MPI everywhere".
* **worker / PE** — the unit that executes application work. Workers are
  numbered globally ``0 .. total_workers-1``, blocked by process and by
  node: worker ``w`` lives in process ``w // workers_per_process`` which
  lives on node ``process // processes_per_node``.

All index arithmetic lives here so the rest of the library never
hand-rolls a division.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class MachineConfig:
    """Immutable description of the simulated cluster.

    Parameters
    ----------
    nodes:
        Number of physical nodes.
    processes_per_node:
        OS processes per node.
    workers_per_process:
        Worker PEs per process (``t`` in the paper's analysis).
    smp:
        ``True`` — each process has a dedicated comm thread (Charm++ SMP
        mode). ``False`` — non-SMP / MPI-everywhere: workers do their own
        network progress; ``workers_per_process`` must be 1.
    nics_per_node:
        Network interfaces per node. Processes are mapped to NICs
        round-robin; more NICs mean more injection concurrency (the
        Zambre et al. observation the paper cites in §III-A).
    """

    nodes: int
    processes_per_node: int
    workers_per_process: int
    smp: bool = True
    nics_per_node: int = 1

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ConfigError(f"nodes must be >= 1, got {self.nodes}")
        if self.processes_per_node < 1:
            raise ConfigError(
                f"processes_per_node must be >= 1, got {self.processes_per_node}"
            )
        if self.workers_per_process < 1:
            raise ConfigError(
                f"workers_per_process must be >= 1, got {self.workers_per_process}"
            )
        if not self.smp and self.workers_per_process != 1:
            raise ConfigError(
                "non-SMP mode requires workers_per_process == 1 "
                f"(got {self.workers_per_process})"
            )
        if self.nics_per_node < 1:
            raise ConfigError(
                f"nics_per_node must be >= 1, got {self.nics_per_node}"
            )

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    @property
    def total_processes(self) -> int:
        """``N`` in the paper's analysis: total process count."""
        return self.nodes * self.processes_per_node

    @property
    def total_workers(self) -> int:
        """Total worker PE count across the machine."""
        return self.total_processes * self.workers_per_process

    @property
    def workers_per_node(self) -> int:
        """Worker PEs per physical node."""
        return self.processes_per_node * self.workers_per_process

    # ------------------------------------------------------------------
    # Index maps
    # ------------------------------------------------------------------
    def process_of_worker(self, worker: int) -> int:
        """Global process id owning global worker ``worker``."""
        self._check_worker(worker)
        return worker // self.workers_per_process

    def node_of_worker(self, worker: int) -> int:
        """Physical node hosting global worker ``worker``."""
        return self.node_of_process(self.process_of_worker(worker))

    def node_of_process(self, process: int) -> int:
        """Physical node hosting global process ``process``."""
        self._check_process(process)
        return process // self.processes_per_node

    def workers_of_process(self, process: int) -> range:
        """Global worker ids belonging to ``process``."""
        self._check_process(process)
        start = process * self.workers_per_process
        return range(start, start + self.workers_per_process)

    def processes_of_node(self, node: int) -> range:
        """Global process ids on ``node``."""
        self._check_node(node)
        start = node * self.processes_per_node
        return range(start, start + self.processes_per_node)

    def workers_of_node(self, node: int) -> range:
        """Global worker ids on ``node``."""
        self._check_node(node)
        start = node * self.workers_per_node
        return range(start, start + self.workers_per_node)

    def local_rank_of_worker(self, worker: int) -> int:
        """Worker's rank within its process (``0 .. t-1``)."""
        self._check_worker(worker)
        return worker % self.workers_per_process

    # ------------------------------------------------------------------
    # Locality predicates
    # ------------------------------------------------------------------
    def same_process(self, a: int, b: int) -> bool:
        """Whether workers ``a`` and ``b`` share a process."""
        return self.process_of_worker(a) == self.process_of_worker(b)

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    def _check_worker(self, worker: int) -> None:
        if not 0 <= worker < self.total_workers:
            raise ConfigError(
                f"worker {worker} out of range [0, {self.total_workers})"
            )

    def _check_process(self, process: int) -> None:
        if not 0 <= process < self.total_processes:
            raise ConfigError(
                f"process {process} out of range [0, {self.total_processes})"
            )

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.nodes:
            raise ConfigError(f"node {node} out of range [0, {self.nodes})")

    def describe(self) -> str:
        """One-line human-readable summary."""
        mode = "SMP" if self.smp else "non-SMP"
        return (
            f"{self.nodes} node(s) x {self.processes_per_node} proc/node x "
            f"{self.workers_per_process} worker/proc = "
            f"{self.total_workers} workers ({mode})"
        )
