"""Reference implementations the incremental allocator state is pinned
against."""

import numpy as np

from repro.core import RectAllocator


def rebuild_occupancy(alloc: RectAllocator) -> np.ndarray:
    """Occupancy grid from scratch off the resident list — the reference
    for :class:`RectAllocator`'s incrementally maintained grid."""
    grid = np.zeros((alloc.width, alloc.height), dtype=bool)
    for r in alloc.resident:
        grid[r.x:r.x2, r.y:r.y2] = True
    return grid
