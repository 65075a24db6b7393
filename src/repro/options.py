"""Run options: the one ambient configuration every simulation reads.

A :class:`RunOptions` bundles the existing per-run sub-configs — the
fault plan, reliable delivery, flow control and observability (whose
:class:`~repro.obs.ObsConfig` carries the flight-recorder timeline). It
is frozen, hashable and normalized on construction, so "off" has exactly
one spelling, ``None``: spec strings are parsed, a no-op fault plan, a
disabled flow, reliability or timeline config all become ``None``.

The harness installs options on one ambient stack, and every runtime
built inside reads them once::

    with overlay(options=RunOptions(faults="drop=0.01", flow="ct_msgs=8")):
        run_figure_body()   # every RuntimeSystem built here sees both

A stack frame (:class:`Ambient`) also carries the
:class:`~repro.obs.ObsSession` collecting run snapshots and the sweep
pool executing grid points. The historical session names are thin
:class:`Overlay` subclasses onto that stack — ``FaultSession``,
``FlowSession``, ``ObsSession`` and ``pool_session`` each replace one
part of the innermost frame until they exit, so sessions nest and the
innermost wins. Explicit runtime constructor arguments override the
ambient options field by field.
"""

from __future__ import annotations

import dataclasses
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, NamedTuple, Optional

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.flow.config import FlowConfig
    from repro.harness.pool import PoolContext
    from repro.obs.config import ObsConfig, ObsSession
    from repro.runtime.reliability import ReliabilityConfig

#: Default for :attr:`RunOptions.reliability`: follow the fault plan.
IMPLIED: Any = object()


def _implied_reliability(faults: Optional["FaultPlan"]) -> Optional["ReliabilityConfig"]:
    """Reliable delivery is on exactly when faults are, by default —
    most applications assert exactly-once delivery."""
    if faults is None:
        return None
    from repro.runtime.reliability import ReliabilityConfig  # lazy: cycle

    return ReliabilityConfig()


@dataclass(frozen=True)
class RunOptions:
    """Every per-run option, normalized.

    Parameters
    ----------
    faults:
        A :class:`~repro.faults.FaultPlan` or ``--faults`` spec string.
    reliability:
        A :class:`~repro.runtime.reliability.ReliabilityConfig`. Left
        unset it follows ``faults``: enabled under a plan, so a faulty
        run still delivers exactly once; pass ``None`` to study raw
        (lossy) behaviour.
    flow:
        A :class:`~repro.flow.FlowConfig` or ``--flow`` spec string.
    obs:
        An :class:`~repro.obs.ObsConfig`: stage-attributed spans, plus
        the flight recorder when its ``timeline`` is set.
    """

    faults: Optional["FaultPlan"] = None
    reliability: Optional["ReliabilityConfig"] = IMPLIED
    flow: Optional["FlowConfig"] = None
    obs: Optional["ObsConfig"] = None

    def __post_init__(self) -> None:
        faults, flow, obs = self.faults, self.flow, self.obs
        if isinstance(faults, str):
            from repro.faults.plan import FaultPlan

            faults = FaultPlan.parse(faults)
        if faults is not None and faults.is_noop():
            faults = None
        reliability = self.reliability
        if reliability is IMPLIED:
            reliability = _implied_reliability(faults)
        if reliability is not None and not reliability.enabled:
            reliability = None
        if isinstance(flow, str):
            from repro.flow.config import FlowConfig

            flow = FlowConfig.parse(flow)
        if flow is not None and not flow.enabled:
            flow = None
        if obs is not None and obs.timeline is not None and not obs.timeline.enabled:
            obs = dataclasses.replace(obs, timeline=None)
        set_ = object.__setattr__
        set_(self, "faults", faults)
        set_(self, "reliability", reliability)
        set_(self, "flow", flow)
        set_(self, "obs", obs)

    def describe(self) -> dict:
        """The options that are on, as JSON-ready dicts.

        This is the artifact's ``config`` block and the run-option part
        of every :func:`~repro.harness.cache.fingerprint`. Reliability
        appears only when it departs from what ``faults`` implies, and
        observability only through its timeline (span attribution
        changes no simulated result), so an all-off run describes as
        ``{}``.
        """
        out = {}
        if self.faults is not None:
            out["faults"] = asdict(self.faults)
        if self.reliability != _implied_reliability(self.faults):
            out["reliability"] = (
                asdict(self.reliability) if self.reliability is not None else None
            )
        if self.flow is not None:
            out["flow"] = asdict(self.flow)
        if self.obs is not None and self.obs.timeline is not None:
            out["timeline"] = asdict(self.obs.timeline)
        return out


class Ambient(NamedTuple):
    """One frame of the ambient stack."""

    options: RunOptions = RunOptions()
    #: The :class:`~repro.obs.ObsSession` collecting run snapshots.
    session: Optional["ObsSession"] = None
    #: The :class:`~repro.harness.pool.PoolContext` executing points.
    pool: Optional["PoolContext"] = None


_active = Ambient()


def ambient() -> Ambient:
    """The innermost ambient frame."""
    return _active


def active_options() -> RunOptions:
    """The run options runtimes built now would read."""
    return _active.options


class Overlay:
    """Context manager pushing a changed copy of the innermost frame.

    Subclasses implement :meth:`frame`; entering pushes its result,
    exiting restores the frame that was innermost before.
    """

    _prev: Optional[Ambient] = None

    def frame(self, outer: Ambient) -> Ambient:
        raise NotImplementedError

    def __enter__(self):
        global _active
        self._prev, _active = _active, self.frame(_active)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        global _active
        _active, self._prev = self._prev, None


class overlay(Overlay):
    """Replace whole frame fields (``options``, ``session``, ``pool``)."""

    def __init__(self, **fields: Any) -> None:
        self.fields = fields

    def frame(self, outer: Ambient) -> Ambient:
        return outer._replace(**self.fields)


class OptionsOverlay(Overlay):
    """Replace some :class:`RunOptions` fields of the innermost frame."""

    def __init__(self, **changes: Any) -> None:
        self.changes = changes

    def frame(self, outer: Ambient) -> Ambient:
        return outer._replace(
            options=dataclasses.replace(outer.options, **self.changes)
        )
