"""The runtime's per-run routing tables equal the MachineConfig maps."""

import pytest

from repro.machine import MachineConfig
from repro.runtime.system import RuntimeSystem

MACHINES = {
    "one-node": MachineConfig(1, 2, 4),
    "multi-node": MachineConfig(3, 2, 2),
    "two-nics": MachineConfig(2, 3, 2, nics_per_node=2),
    "non-smp": MachineConfig(2, 4, 1, smp=False),
}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_tables_equal_machine_maps(name):
    machine = MACHINES[name]
    rt = RuntimeSystem(machine)
    assert rt.proc_of_worker == [
        machine.process_of_worker(w) for w in range(machine.total_workers)
    ]
    assert rt.node_of_proc == [
        machine.node_of_process(p) for p in range(machine.total_processes)
    ]
    for pid, nic in enumerate(rt.nic_of_proc):
        node = rt.node(machine.node_of_process(pid))
        assert nic is node.nic_for_process(pid)
        assert nic in node.nics
    # Processes of a node spread over its NICs round-robin.
    for node in rt.nodes:
        served = [rt.nic_of_proc[p] for p in node.processes]
        assert served == [
            node.nics[i % machine.nics_per_node] for i in range(len(served))
        ]
