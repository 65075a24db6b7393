"""Scheme registry: construct aggregation schemes by paper name."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Type

from repro.errors import ConfigError
from repro.tram.config import TramConfig
from repro.tram.schemes.base import SchemeBase
from repro.tram.schemes.direct import DirectScheme
from repro.tram.schemes.node_level import NNScheme, WNsScheme
from repro.tram.schemes.pp import PPScheme
from repro.tram.schemes.routed2d import Routed2DScheme
from repro.tram.schemes.wps import WPsScheme
from repro.tram.schemes.wsp import WsPScheme
from repro.tram.schemes.ww import WWScheme

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.system import RuntimeSystem

_REGISTRY: Dict[str, Type[SchemeBase]] = {
    "ww": WWScheme,
    "wps": WPsScheme,
    "wsp": WsPScheme,
    "pp": PPScheme,
    "direct": DirectScheme,
    # Node-level extensions (paper SecIII-B "one level up"; see
    # repro.tram.schemes.node_level).
    "wns": WNsScheme,
    "nn": NNScheme,
    # Legacy-TRAM 2D topological routing (repro.tram.schemes.routed2d).
    "r2d": Routed2DScheme,
}

#: Canonical scheme names, in the paper's presentation order.
SCHEME_NAMES = ("WW", "WPs", "WsP", "PP")


def make_scheme(
    name: str,
    rt: "RuntimeSystem",
    config: Optional[TramConfig] = None,
    *,
    deliver_item: Optional[Callable] = None,
    deliver_bulk: Optional[Callable] = None,
) -> SchemeBase:
    """Construct the scheme called ``name`` (case-insensitive).

    Parameters
    ----------
    name:
        One of ``WW``, ``WPs``, ``WsP``, ``PP``, ``Direct``, ``WNs``,
        ``NN`` or ``R2D``.
    rt:
        Runtime to attach to.
    config:
        Tram configuration (defaults to :class:`TramConfig` defaults).
    deliver_item / deliver_bulk:
        Destination-side application callbacks (at least one required).
    """
    cls = _REGISTRY.get(name.lower())
    if cls is None:
        raise ConfigError(
            f"unknown scheme {name!r}; choose from "
            f"{sorted(c.name for c in _REGISTRY.values())}"
        )
    return cls(
        rt,
        config if config is not None else TramConfig(),
        deliver_item=deliver_item,
        deliver_bulk=deliver_bulk,
    )
