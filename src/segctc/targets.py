"""Per-region training targets: adjacent-duplicate removal over masked slices."""

from __future__ import annotations

import numpy as np

from .errors import LengthMismatchError
from .masking import MaskSpec
from .numerics import concat_ranges


def dedup(ids) -> np.ndarray:
    """Collapse each run of equal adjacent values to a single value.

    Order-preserving and idempotent; the output never contains an equal
    adjacent pair.
    """
    arr = np.asarray(ids, dtype=int).reshape(-1)
    return packed_targets(arr, np.array([[0, arr.size]]))[0] if arr.size else arr


def packed_targets(ids, regions) -> tuple[np.ndarray, np.ndarray]:
    """dedup of the ids of every [start, end) row range in the (R, 2)
    `regions`, as one flat label array in region order and each region's
    label count. A row is kept where its id differs from the previous row's
    or it opens a region, so no run merges across a region boundary."""
    lengths = regions[:, 1] - regions[:, 0]
    picked = ids[concat_ranges(regions[:, 0], lengths)]
    keep = np.ones(picked.size, dtype=bool)
    keep[1:] = picked[1:] != picked[:-1]
    ends = np.cumsum(lengths)
    keep[ends - lengths] = True
    return picked[keep], np.diff(np.cumsum(keep)[ends - 1], prepend=0)


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
