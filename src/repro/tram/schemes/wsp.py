"""WsP: like WPs, but the *source worker* groups items by destination
PE before sending (paper Fig 6).

Buffer placement and counts are identical to WPs; the O(g + t) grouping
cost moves from the receiving PE to the sending PE. The destination only
performs a cheap per-section dispatch. The paper observes WsP scaling
slightly worse than WPs on histogramming because the grouping work
happens on the (already busy) generating side.
"""

from __future__ import annotations

from repro.tram.item import ItemBatch
from repro.tram.schemes.base import _sections_by_dst
from repro.tram.schemes.wps import WPsScheme


class WsPScheme(WPsScheme):
    """Worker-to-process aggregation, source-side grouping."""

    name = "WsP"

    def _prepare_payload(self, ctx, payload, count: int) -> float:
        """Group the outgoing batch by destination PE at the source.

        Returns the grouping nanoseconds charged (span ``src_group``).
        """
        group_ns = self.rt.costs.group_cost_ns(count, self._t)
        ctx.charge(group_ns)
        self.stats.group_elements += count + self._t
        if payload.__class__ is ItemBatch:
            payload.sections = _sections_by_dst(payload.items)
        # Count buffers already hold per-destination marginals; for them
        # the flag only tells the receiver the grouping work was paid here.
        payload.grouped = True
        return group_ns
