"""Named deterministic random-number streams.

Every stochastic component (per-worker destination draws, PHOLD delays,
graph generation, ...) pulls its own :class:`numpy.random.Generator`
keyed by a stable string name. This gives two guarantees:

* **Reproducibility** — the same root seed always produces the same
  simulation, regardless of the order in which components are created.
* **Independence** — streams are derived through
  :class:`numpy.random.SeedSequence` spawning, so per-worker streams do
  not overlap even for thousands of workers.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """Factory of independent, named ``numpy`` generator streams.

    Parameters
    ----------
    root_seed:
        Non-negative integer root of the whole simulation's randomness.

    Examples
    --------
    >>> streams = RngStreams(7)
    >>> a = streams.stream("worker/3")
    >>> b = streams.stream("worker/4")
    >>> float(a.random()) != float(b.random())
    True
    >>> streams2 = RngStreams(7)
    >>> float(streams2.stream("worker/3").random()) == float(RngStreams(7).stream("worker/3").random())
    True
    """

    def __init__(self, root_seed: int = 0) -> None:
        if root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        self.root_seed = int(root_seed)
        self._cache: Dict[str, np.random.Generator] = {}

    @staticmethod
    def _key_of(name: str) -> int:
        """Stable 32-bit key derived from the stream name.

        ``zlib.crc32`` rather than ``hash()`` because the latter is
        salted per process and would break reproducibility.
        """
        return zlib.crc32(name.encode("utf-8"))

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self.root_seed, self._key_of(name)])
            gen = np.random.default_rng(seq)
            self._cache[name] = gen
        return gen
