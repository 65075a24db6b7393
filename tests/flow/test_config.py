"""FlowConfig validation, spec parsing and the ambient session."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError, FlowControlError
from repro.flow import FlowConfig, FlowSession
from repro.options import active_options


class TestValidation:
    def test_defaults_valid(self):
        cfg = FlowConfig()
        assert cfg.enabled
        assert cfg.ct_max_msgs >= 1
        assert cfg.clear_backlog_ns <= cfg.overload_backlog_ns

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ct_max_msgs": 0},
            {"ct_max_bytes": 0},
            {"nic_max_msgs": -1},
            {"nic_max_bytes": 0},
            {"overload_backlog_ns": 0.0},
            {"overload_backlog_ns": -1.0},
            {"clear_backlog_ns": -1.0},
            {"overload_backlog_ns": 100.0, "clear_backlog_ns": 200.0},
            {"shed_backlog_ns": 0.0},
            {"max_parked_per_dest": 0},
            {"max_stall_ns": -1.0},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(FlowControlError):
            FlowConfig(**kwargs)

    @pytest.mark.parametrize("name", [
        "overload_backlog_ns", "clear_backlog_ns", "shed_backlog_ns",
        "max_stall_ns", "ct_max_msgs", "ct_max_bytes", "nic_max_msgs",
        "nic_max_bytes", "max_parked_per_dest",
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_numbers_rejected(self, name, value):
        with pytest.raises(FlowControlError):
            FlowConfig(**{name: value})

    def test_flow_error_is_config_error(self):
        with pytest.raises(ConfigError):
            FlowConfig(ct_max_msgs=0)

    def test_with_copies(self):
        cfg = replace(FlowConfig(), ct_max_msgs=7, shed_backlog_ns=1e6)
        assert cfg.ct_max_msgs == 7
        assert cfg.shed_backlog_ns == 1e6
        assert FlowConfig().ct_max_msgs != 7  # original untouched


class TestParse:
    def test_full_spec(self):
        cfg = FlowConfig.parse(
            "ct_msgs=8,ct_bytes=4096,nic_msgs=16,nic_bytes=8192,"
            "overload=100000,clear=20000,shed=500000,parked_per_dest=4,"
            "stall_max=30000"
        )
        assert cfg.ct_max_msgs == 8
        assert cfg.ct_max_bytes == 4096
        assert cfg.nic_max_msgs == 16
        assert cfg.nic_max_bytes == 8192
        assert cfg.overload_backlog_ns == 100000.0
        assert cfg.clear_backlog_ns == 20000.0
        assert cfg.shed_backlog_ns == 500000.0
        assert cfg.max_parked_per_dest == 4
        assert cfg.max_stall_ns == 30000.0

    def test_empty_spec_is_defaults(self):
        assert FlowConfig.parse("") == FlowConfig()

    @pytest.mark.parametrize(
        "spec", ["bogus=1", "ct_msgs", "ct_msgs=abc", "ct_msgs=0"]
    )
    def test_bad_spec_raises(self, spec):
        with pytest.raises(FlowControlError):
            FlowConfig.parse(spec)


class TestSession:
    def test_session_sets_and_restores(self):
        assert active_options().flow is None
        cfg = FlowConfig(ct_max_msgs=3)
        with FlowSession(cfg):
            assert active_options().flow == cfg
        assert active_options().flow is None

    def test_sessions_nest(self):
        outer, inner = FlowConfig(ct_max_msgs=3), FlowConfig(ct_max_msgs=5)
        with FlowSession(outer):
            with FlowSession(inner):
                assert active_options().flow == inner
            assert active_options().flow == outer

    def test_runtime_picks_up_session(self):
        from repro.machine import MachineConfig
        from repro.runtime.system import RuntimeSystem

        machine = MachineConfig(1, 2, 2)
        with FlowSession(FlowConfig(ct_max_msgs=3)):
            rt = RuntimeSystem(machine, seed=0)
            assert rt.flow is not None
            assert rt.flow.config.ct_max_msgs == 3
        assert RuntimeSystem(machine, seed=0).flow is None

    def test_disabled_config_builds_no_controller(self):
        from repro.machine import MachineConfig
        from repro.runtime.system import RuntimeSystem

        machine = MachineConfig(1, 2, 2)
        with FlowSession(FlowConfig(enabled=False)):
            assert RuntimeSystem(machine, seed=0).flow is None
        rt = RuntimeSystem(machine, seed=0, flow=FlowConfig(enabled=False))
        assert rt.flow is None
