"""Machine-speed calibration for timings taken on a shared machine.

On a small shared virtual machine, other tenants slow everything down
for stretches of tens of seconds, which moves a run's medians by
10-30%. A fixed unit of work (a pure-Python loop plus a sparse LU
solve, the two kinds of work the program does) timed right before and
after each measured step tracks that speed: every timing is scaled by
``REFERENCE_S / calibration``, so it reads as the time on the
reference machine when uncontended. A slower program still reads
slower; only the machine's speed cancels out.
"""

from __future__ import annotations

import time

#: Calibration time of :func:`calibration_s` on the uncontended
#: reference machine (2 vCPUs, python 3.11, numpy 2.4, scipy 1.17) [s].
REFERENCE_S = 0.17

_GRID = 48


def _python_unit() -> int:
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return total


def _sparse_unit() -> None:
    import numpy as np
    from scipy import sparse
    from scipy.sparse.linalg import splu

    line = sparse.diags(
        [-1.0, 2.01, -1.0], [-1, 0, 1], shape=(_GRID, _GRID)
    )
    matrix = sparse.kronsum(line, line).tocsc()
    splu(matrix).solve(np.ones(matrix.shape[0]))


def calibration_s(repeats: int = 6) -> float:
    """Wall time of ``repeats`` calibration units."""
    start = time.perf_counter()
    for _ in range(repeats):
        _python_unit()
        _sparse_unit()
    return time.perf_counter() - start


def speed_factor(before_s: float, after_s: float) -> float:
    """Multiplier that maps a timing taken between two calibrations to
    the reference machine: below 1 while the machine runs slow."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
