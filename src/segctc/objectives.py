"""Training losses over a pack of log-probability lattices.

Three objectives share one (V+1)-way output head: frame-level cross-entropy on
masked frames, segment-wise CTC per masked region against deduplicated
targets, and their convex combination. CE is normalized by masked-frame count
and CTC by total target-token count, per utterance, so the two terms have
comparable magnitude. The segment-CTC term is the one CTC rule of both
training jobs: finetuning scores each whole utterance as a single region. A
pack is the (sum T, V+1) log-probabilities of a batch's utterances end to
end, given by their lengths, and its masked regions are one (R, 2) int
array of [start, end) pack rows, utterance by utterance (as
masking.sample_masks draws them): CE is one gather over their rows, their
targets are deduplicated once over the packed ids (targets.packed_targets)
and all regions share one CTC call on the flat targets. A region belongs to
the utterance whose rows hold its start (np.searchsorted); each utterance's
region losses and counts add left to right (np.bincount, in region order)
and its normalizer divides its own rows. The single-utterance entry points
take a MaskSpec and convert it to that array. `joint_loss_pack` and the
single-utterance entry points each check their pack once (`_check_pack`:
shapes, lengths and ids in [0, V)); the CE and segment-CTC terms check
nothing. Gradients are with respect to the pre-softmax logits, laid out
like the pack, and exactly zero on unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss_packed
from .errors import ConfigError, DimensionMismatchError
from .masking import MaskSpec
from .numerics import concat_ranges
from .targets import packed_targets


@dataclass(frozen=True)
class TrainingMode:
    """Loss mixing weight plus an optional initial CE-only phase."""

    alpha: float
    ce_warmup_steps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.ce_warmup_steps < 0:
            raise ConfigError(f"ce_warmup_steps must be >= 0, got {self.ce_warmup_steps}")


@dataclass(frozen=True)
class LossBreakdown:
    ce: float
    ctc: float
    combined: float
    masked_frames: int
    target_tokens: int


def effective_alpha(step: int, mode: TrainingMode) -> float:
    """0 while step < ce_warmup_steps, the configured alpha from then on."""
    if step < 0:
        raise ValueError("step must be >= 0")
    return 0.0 if step < mode.ce_warmup_steps else mode.alpha


def _check_pack(log_probs, ids, lengths):
    """The pack of utterances of `lengths` as float log-probabilities and int ids."""
    log_probs = np.asarray(log_probs, dtype=float)
    ids = np.asarray(ids, dtype=int).reshape(-1)
    if log_probs.ndim != 2 or log_probs.shape[1] < 2:
        raise DimensionMismatchError(
            f"lattice must be (T, V+1) with V >= 1, got {log_probs.shape}"
        )
    frames = log_probs.shape[0]
    if ids.size != frames or sum(lengths) != frames:
        raise DimensionMismatchError(
            f"lattice has {frames} frames, ids {ids.size}, utterances {sum(lengths)}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= log_probs.shape[1] - 1):
        raise DimensionMismatchError("frame ids must lie in [0, V); blank is never a label")
    return log_probs, ids


def _spec_pack(spec: MaskSpec):
    """One utterance's MaskSpec in the loss's form, unchecked: (lengths,
    regions), its intervals as one (R, 2) int array of pack rows."""
    return [spec.total_frames], np.array(spec.intervals, dtype=int).reshape(-1, 2)


def _per_utterance(lengths, regions, weights) -> np.ndarray:
    """Each utterance's sum of the region `weights`, added left to right in
    region order (np.bincount); a region belongs to the utterance whose pack
    rows hold its start."""
    owners = np.searchsorted(np.cumsum(lengths), regions[:, 0], side="right")
    return np.bincount(owners, weights=weights, minlength=len(lengths))


def _masked_ce_terms(log_probs, ids, lengths, regions, with_grad: bool):
    """Each utterance's masked CE and masked-frame count and, if
    `with_grad`, the pack gradient of their sum (else None). The masked
    rows are those of the pack `regions`."""
    sizes = regions[:, 1] - regions[:, 0]
    counts = _per_utterance(lengths, regions, sizes).astype(int).tolist()
    rows = concat_ranges(regions[:, 0], sizes)
    picked = log_probs[rows, ids[rows]]
    ends = np.cumsum(counts, dtype=int).tolist()
    losses = [-float(picked[end - n : end].sum()) / n if n else 0.0 for n, end in zip(counts, ends)]
    if not with_grad:
        return losses, counts, None
    per_row = np.repeat(counts, counts)
    grad = np.zeros_like(log_probs)
    grad[rows] = np.exp(log_probs[rows]) / per_row[:, None]
    grad[rows, ids[rows]] -= 1.0 / per_row
    return losses, counts, grad


def segment_ctc_terms(log_probs, ids, lengths, regions, with_grad: bool):
    """Each utterance's token-normalized segment CTC and target-token count
    and, if `with_grad`, the pack gradient of their sum (else None), from one
    CTC call over every region of the pack.

    The CTC term of both training jobs: pretraining passes the masked regions
    and the noisy ids, finetuning one whole-utterance region per utterance
    and the true ids. `log_probs` is the float (sum T, V+1) pack of
    utterances of `lengths`, `ids` its int frame ids, one per row, and
    `regions` the (R, 2) int array of their [start, end) pack rows,
    utterance by utterance. The targets are deduplicated once over the pack,
    and each utterance's region losses are added left to right from 0.0 in
    region order (np.bincount).
    """
    labels, counts = packed_targets(ids, regions)
    region_losses, grad = ctc_loss_packed(log_probs, regions, (labels, counts), with_grad)
    tokens = _per_utterance(lengths, regions, counts).astype(int)
    divisors = np.maximum(tokens, 1)
    losses = _per_utterance(lengths, regions, region_losses) / divisors
    if with_grad:
        grad /= np.repeat(divisors, lengths)[:, None]
    return losses.tolist(), tokens.tolist(), grad


def masked_ce_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of each masked frame's id.

    Uses the full (V+1)-way softmax including blank, which is never a target.
    Returns (0, zero gradient) when nothing is masked.
    """
    lengths, regions = _spec_pack(spec)
    log_probs, ids = _check_pack(log_probs, ids, lengths)
    (loss,), _, grad = _masked_ce_terms(log_probs, ids, lengths, regions, True)
    return loss, grad


def masked_ctc_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Per-region CTC against deduplicated targets, token-normalized.

    Each masked region is an independent CTC instance over its own rows; the
    region losses are summed and divided by the total number of target tokens.
    Returns (0, zero gradient) when there are no masked regions.
    """
    lengths, regions = _spec_pack(spec)
    log_probs, ids = _check_pack(log_probs, ids, lengths)
    (loss,), _, grad = segment_ctc_terms(log_probs, ids, lengths, regions, with_grad=True)
    return loss, grad


def joint_loss_pack(log_probs, ids, lengths, regions, alpha: float):
    """joint_loss of every utterance of a pack, in order, and the pack
    gradient of their sum.

    `log_probs` (sum T, V+1) and `ids` (sum T) hold the utterances of
    `lengths` end to end, and `regions` is the (R, 2) int array of the
    [start, end) pack rows of their masked regions, utterance by utterance.
    A term whose weight is 0 is still computed and reported, but its
    gradient is not: at alpha 0 CTC runs its forward recursion only.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    log_probs, ids = _check_pack(log_probs, ids, lengths)
    ctc, tokens, ctc_grad = segment_ctc_terms(log_probs, ids, lengths, regions, alpha > 0.0)
    ce, masked, ce_grad = _masked_ce_terms(log_probs, ids, lengths, regions, alpha < 1.0)
    if alpha == 0.0:
        grad = ce_grad
    elif alpha == 1.0:
        grad = ctc_grad
    else:
        grad = alpha * ctc_grad + (1.0 - alpha) * ce_grad
    return [  # (ce, ctc, combined, masked_frames, target_tokens) of each utterance
        LossBreakdown(c, t, alpha * t + (1.0 - alpha) * c, m, n)
        for c, t, m, n in zip(ce, ctc, masked, tokens)
    ], grad


def joint_loss(log_probs, ids, spec: MaskSpec, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """combined = alpha * ctc + (1 - alpha) * ce, with the matching gradient mix."""
    (breakdown,), grad = joint_loss_pack(log_probs, ids, *_spec_pack(spec), alpha)
    return breakdown, grad
