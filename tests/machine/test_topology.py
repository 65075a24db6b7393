"""Unit tests for cluster topology index maps."""

import pytest

from repro.errors import ConfigError
from repro.machine.topology import MachineConfig


@pytest.fixture
def cfg():
    return MachineConfig(nodes=3, processes_per_node=2, workers_per_process=4)


class TestSizes:
    def test_totals(self, cfg):
        assert cfg.total_processes == 6
        assert cfg.total_workers == 24
        assert cfg.workers_per_node == 8

    def test_describe_mentions_mode(self, cfg):
        assert "SMP" in cfg.describe()
        nonsmp = MachineConfig(2, 4, 1, smp=False)
        assert "non-SMP" in nonsmp.describe()


class TestMaps:
    def test_process_of_worker_blocked(self, cfg):
        assert cfg.process_of_worker(0) == 0
        assert cfg.process_of_worker(3) == 0
        assert cfg.process_of_worker(4) == 1
        assert cfg.process_of_worker(23) == 5

    def test_node_of_worker(self, cfg):
        assert cfg.node_of_worker(0) == 0
        assert cfg.node_of_worker(7) == 0
        assert cfg.node_of_worker(8) == 1
        assert cfg.node_of_worker(23) == 2

    def test_node_of_process(self, cfg):
        assert cfg.node_of_process(0) == 0
        assert cfg.node_of_process(1) == 0
        assert cfg.node_of_process(2) == 1

    def test_workers_of_process(self, cfg):
        assert list(cfg.workers_of_process(1)) == [4, 5, 6, 7]

    def test_processes_of_node(self, cfg):
        assert list(cfg.processes_of_node(2)) == [4, 5]

    def test_workers_of_node(self, cfg):
        assert list(cfg.workers_of_node(1)) == list(range(8, 16))

    def test_local_rank(self, cfg):
        assert cfg.local_rank_of_worker(0) == 0
        assert cfg.local_rank_of_worker(5) == 1
        assert cfg.local_rank_of_worker(7) == 3

    def test_worker_id_inverse_of_maps(self, cfg):
        for w in range(cfg.total_workers):
            p = cfg.process_of_worker(w)
            r = cfg.local_rank_of_worker(w)
            assert p * cfg.workers_per_process + r == w
            assert w in cfg.workers_of_process(p)


class TestPredicates:
    def test_same_process(self, cfg):
        assert cfg.same_process(0, 3)
        assert not cfg.same_process(3, 4)

    def test_same_node(self, cfg):
        assert cfg.node_of_worker(0) == cfg.node_of_worker(7)
        assert cfg.node_of_worker(7) != cfg.node_of_worker(8)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(nodes=0, processes_per_node=1, workers_per_process=1),
            dict(nodes=1, processes_per_node=0, workers_per_process=1),
            dict(nodes=1, processes_per_node=1, workers_per_process=0),
        ],
    )
    def test_bad_sizes_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MachineConfig(**kwargs)

    def test_nonsmp_requires_single_worker(self):
        with pytest.raises(ConfigError):
            MachineConfig(1, 2, 2, smp=False)
        MachineConfig(1, 2, 1, smp=False)  # fine

    def test_out_of_range_worker(self, cfg):
        with pytest.raises(ConfigError):
            cfg.process_of_worker(24)
        with pytest.raises(ConfigError):
            cfg.process_of_worker(-1)

    def test_out_of_range_process(self, cfg):
        with pytest.raises(ConfigError):
            cfg.workers_of_process(6)

    def test_out_of_range_node(self, cfg):
        with pytest.raises(ConfigError):
            cfg.processes_of_node(3)

    def test_bad_local_rank(self, cfg):
        with pytest.raises(ConfigError):
            cfg.local_rank_of_worker(24)
        with pytest.raises(ConfigError):
            cfg.local_rank_of_worker(-1)

    def test_frozen(self, cfg):
        with pytest.raises(Exception):
            cfg.nodes = 5
