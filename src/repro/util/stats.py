"""Summary statistics over repeated trials (error bars).

The paper reports error bars over multiple trials including warm-ups;
the simulator is deterministic given a seed, so trials here vary the
seed, capturing workload randomness rather than machine noise.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple


def mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and (n-1) standard deviation; std=0 for n<2."""
    n = len(values)
    if n == 0:
        raise ValueError("mean_std of empty sequence")
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)
