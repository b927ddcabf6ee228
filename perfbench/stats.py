"""Small statistics helpers shared by the workloads and the tests."""

from __future__ import annotations

import math

#: A reported tail percentile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: Samples a p90 needs, so that MIN_TAIL_SAMPLES lie beyond it.
MIN_P90_SAMPLES = 100


def tail_percentile(samples: "list[float]", q: float) -> float:
    """Nearest-rank ``q`` percentile, refusing a thin tail.

    Raises :class:`ValueError` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond the chosen rank, so a
    p90 needs at least 100 samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile must be in (0, 1), got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{round(100 * q)} of {len(ordered)} samples leaves {beyond} "
            f"beyond it; need >= {MIN_TAIL_SAMPLES}"
        )
    return float(ordered[rank - 1])
