"""Machine presets used throughout the reproduction.

The paper's experiments run on NCSA Delta with 8 processes per node and
8 worker cores per process (one more core per process is the comm
thread; the remainder are left idle). The presets here mirror that
layout; problem sizes are scaled separately by the harness.
"""

from __future__ import annotations

from repro.machine.topology import MachineConfig


def delta_machine(
    nodes: int,
    processes_per_node: int = 8,
    workers_per_process: int = 8,
) -> MachineConfig:
    """Delta-like SMP configuration (paper §IV-A).

    Default 8 processes/node x 8 workers/process = 64 worker cores per
    node, exactly the paper's layout.
    """
    return MachineConfig(
        nodes=nodes,
        processes_per_node=processes_per_node,
        workers_per_process=workers_per_process,
        smp=True,
    )


def nonsmp_machine(nodes: int, ranks_per_node: int = 64) -> MachineConfig:
    """Non-SMP / MPI-everywhere configuration: one worker per process."""
    return MachineConfig(
        nodes=nodes,
        processes_per_node=ranks_per_node,
        workers_per_process=1,
        smp=False,
    )
