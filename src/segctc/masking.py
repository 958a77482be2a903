"""Span masking: sampling mask starts, merging spans, and embedding substitution.

Merging is vectorized: the spans are sorted by (start, end), a span opens a
region where it starts past the running maximum (np.maximum.accumulate) of
the earlier ends, and a region ends at that maximum. A training batch draws
each utterance's starts from its own keyed generator, so no draw depends on
the batch, and merges them all at once with the utterances laid end to end
(sample_masks). Its masked regions come out as the one form a training step
gives them: an (R, 2) int array of [start, end) pack rows, utterance by
utterance, from which the encoder takes the rows it writes the mask
embedding into and the loss its masked rows and targets. A MaskSpec is one
utterance's regions for the public single-utterance entry points, which
convert it to that array.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

from .errors import DimensionMismatchError


@dataclass(frozen=True)
class MaskSpec:
    """Sorted, disjoint, non-adjacent masked [start, end) intervals over T frames.

    Each maximal interval is one masked region; touching or overlapping raw
    spans must be merged before construction (see merge_spans). `intervals`
    may be any sequence of integer pairs, an (R, 2) int array included, and
    is stored as a tuple of (int, int) pairs, so equal intervals give equal
    specs; a non-integer bound is a TypeError.
    """

    intervals: tuple[tuple[int, int], ...]
    total_frames: int

    def __post_init__(self):
        # the frozen class refuses attribute assignment, not its instance dict
        self.__dict__["intervals"] = tuple((index(a), index(b)) for a, b in self.intervals)
        if self.total_frames < 1:
            raise ValueError("total_frames must be >= 1")
        # 0 <= start < end < next start < ... < last end <= total_frames
        edges = [-1, *(x for interval in self.intervals for x in interval), self.total_frames + 1]
        if any(a >= b for a, b in zip(edges, edges[1:])):
            raise ValueError(
                f"intervals {self.intervals} of {self.total_frames} frames must be sorted, "
                "disjoint, non-adjacent and within the frames"
            )

    @property
    def masked_frames(self) -> int:
        return sum(end - start for start, end in self.intervals)

    def frame_mask(self) -> np.ndarray:
        """Boolean vector over frames, True inside masked intervals."""
        mask = np.zeros(self.total_frames, dtype=bool)
        for start, end in self.intervals:
            mask[start:end] = True
        return mask


def merge_spans(spans, total_frames: int) -> MaskSpec:
    """Merge raw [start, end) spans (any order, overlaps allowed) into a MaskSpec.

    Touching spans merge into a single region, so every resulting interval is
    a maximal contiguous masked stretch. `spans` holds (start, end) pairs, or
    is an (n, 2) int array; spans with end <= start are dropped and the rest
    clipped to [0, total_frames).
    """
    spans = spans if isinstance(spans, np.ndarray) else list(spans)
    spans = np.asarray(spans, dtype=int).reshape(-1, 2)
    spans = spans[spans[:, 1] > spans[:, 0]]
    starts, ends = np.maximum(spans[:, 0], 0), np.minimum(spans[:, 1], total_frames)
    order = np.lexsort((ends, starts))
    starts, ends = _merged(starts[order], ends[order])
    return MaskSpec(tuple(zip(starts.tolist(), ends.tolist())), total_frames)


def _merged(starts, ends) -> tuple[np.ndarray, np.ndarray]:
    """The (starts, ends) of the regions of spans sorted by (start, end): a
    span opens a region where it starts past the running maximum of the
    earlier ends, and the span before it closes the previous region there."""
    ends = np.maximum.accumulate(ends)
    opens = np.ones(starts.size + 1, dtype=bool)  # and a last entry past the last span
    opens[1:-1] = starts[1:] > ends[:-1]
    return starts[opens[:-1]], ends[opens[1:]]


def sample_mask(
    total_frames: int, start_prob: float, span_length: int, rng: np.random.Generator
) -> MaskSpec:
    """floor(start_prob * T) distinct start frames, each opening a span of
    `span_length` frames truncated at T; overlapping or touching spans merge.
    """
    if total_frames < 1 or not 0.0 <= start_prob <= 1.0 or span_length < 1:
        raise ValueError(
            "sample_mask needs total_frames >= 1, start_prob in [0, 1] and span_length >= 1, "
            f"got {total_frames}, {start_prob} and {span_length}"
        )
    regions = sample_masks([total_frames], start_prob, span_length, [rng])
    return MaskSpec(regions.tolist(), total_frames)


def sample_masks(frames, start_prob: float, span_length: int, rngs) -> np.ndarray:
    """The regions of sample_mask(frames[i], start_prob, span_length,
    rngs[i]) of every utterance of a pack, as one (R, 2) int array of
    [start, end) pack rows, utterance by utterance, each in interval order.
    One merge serves them all: each utterance draws its starts from its own
    generator, and the utterances lie end to end with one free row after
    each, so that no span reaches into the next; a region's pack rows are
    its merge rows less its owner's index. A span is clamped to the longest
    utterance, which truncates it anyway, so that no end overflows int64.
    The arguments must be valid for sample_mask, which checks them
    (TrainConfig checks a training run's)."""
    draws = [rng.choice(n, size=int(start_prob * n), replace=False) for n, rng in zip(frames, rngs)]
    span_length = min(span_length, max(frames, default=0))
    firsts = np.cumsum([0, *(n + 1 for n in frames)])
    counts = [draw.size for draw in draws]
    starts = np.concatenate([np.zeros(0, dtype=int), *draws]) + np.repeat(firsts[:-1], counts)
    # Sorted, each utterance's starts stay in its own block of rows, so `lasts` lines up.
    starts, lasts = np.sort(starts), np.repeat(firsts[1:] - 1, counts)
    starts, ends = _merged(starts, np.minimum(starts + span_length, lasts))
    owner = np.searchsorted(firsts, starts, side="right") - 1
    return np.column_stack((starts, ends)) - owner[:, None]


def apply_mask(features, spec: MaskSpec, mask_embedding) -> np.ndarray:
    """Copy of `features` with every masked frame replaced by `mask_embedding`."""
    features = np.asarray(features)
    mask_embedding = np.asarray(mask_embedding)
    if features.ndim != 2:
        raise DimensionMismatchError(f"features must be (T, d), got {features.shape}")
    if mask_embedding.shape != (features.shape[1],):
        raise DimensionMismatchError(
            f"mask embedding of shape {mask_embedding.shape} does not match "
            f"feature dimension {features.shape[1]}"
        )
    if spec.total_frames != features.shape[0]:
        raise DimensionMismatchError(
            f"mask spec covers {spec.total_frames} frames, features have {features.shape[0]}"
        )
    out = features.copy()
    for start, end in spec.intervals:
        out[start:end] = mask_embedding
    return out
