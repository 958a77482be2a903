"""Per-region training targets: adjacent-duplicate removal over masked slices."""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError
from .masking import MaskSpec


def dedup(ids) -> np.ndarray:
    """Collapse each run of equal adjacent values to a single value.

    Order-preserving and idempotent; the output never contains an equal
    adjacent pair.
    """
    arr = np.asarray(ids, dtype=int).reshape(-1)
    keep = np.ones(arr.size, dtype=bool)
    keep[1:] = arr[1:] != arr[:-1]
    return arr[keep]


def segment_targets(ids, spec: MaskSpec) -> list[np.ndarray]:
    """Deduplicated target for each masked interval, in interval order.

    Deduplication is applied per region, never across region boundaries, so
    each target's length is bounded by its region length.
    """
    arr = np.asarray(ids, dtype=int).reshape(-1)
    if arr.size != spec.total_frames:
        raise LengthMismatchError(
            f"id sequence of length {arr.size} does not cover {spec.total_frames} frames"
        )
    return [dedup(arr[start:end]) for start, end in spec.intervals]
