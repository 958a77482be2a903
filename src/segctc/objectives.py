"""Training losses over a pack of log-probability lattices.

Three objectives share one (V+1)-way output head: frame-level cross-entropy on
masked frames, segment-wise CTC per masked region against deduplicated
targets, and their convex combination. CE is normalized by masked-frame count
and CTC by total target-token count, per utterance, so the two terms have
comparable magnitude. A pack is the (sum T, V+1) log-probabilities of a
batch's utterances end to end, with one MaskSpec each: the masked regions are
row ranges of the pack and share one CTC call, CE is one gather over the
masked rows, and each utterance's normalizer divides its own rows. Gradients
are with respect to the pre-softmax logits, laid out like the pack, and
exactly zero on unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .ctc import ctc_loss_packed
from .errors import ConfigError, DimensionMismatchError
from .masking import MaskSpec
from .targets import segment_targets


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


def _check_pack(log_probs, ids, specs):
    """The pack as float log-probabilities and int ids."""
    log_probs = np.asarray(log_probs, dtype=float)
    ids = np.asarray(ids, dtype=int).reshape(-1)
    if log_probs.ndim != 2 or log_probs.shape[1] < 2:
        raise DimensionMismatchError(
            f"lattice must be (T, V+1) with V >= 1, got {log_probs.shape}"
        )
    frames = log_probs.shape[0]
    covered = sum(spec.total_frames for spec in specs)
    if ids.size != frames or covered != frames:
        raise DimensionMismatchError(
            f"lattice has {frames} frames, ids {ids.size}, mask specs {covered}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= log_probs.shape[1] - 1):
        raise DimensionMismatchError("frame ids must lie in [0, V); blank is never a label")
    return log_probs, ids


def _masked_ce_terms(log_probs, ids, specs, with_grad: bool):
    """Each utterance's masked CE and, if `with_grad`, the pack gradient of
    their sum (else None)."""
    counts = [spec.masked_frames for spec in specs]
    masks = [spec.frame_mask() for spec in specs]
    rows = np.flatnonzero(np.concatenate([np.zeros(0, dtype=bool), *masks]))
    picked = log_probs[rows, ids[rows]]
    ends = np.cumsum(counts, dtype=int).tolist()
    losses = [
        -float(picked[end - n : end].sum()) / n if n else 0.0 for n, end in zip(counts, ends)
    ]
    if not with_grad:
        return losses, None
    per_row = np.repeat(counts, counts)
    grad = np.zeros_like(log_probs)
    grad[rows] = np.exp(log_probs[rows]) / per_row[:, None]
    grad[rows, ids[rows]] -= 1.0 / per_row
    return losses, grad


def _masked_ctc_terms(log_probs, ids, specs, with_grad: bool):
    """Each utterance's token-normalized segment CTC and target-token count
    and, if `with_grad`, the pack gradient of their sum (else None), from one
    CTC call over every masked region, shifted to its utterance's rows."""
    frames = [spec.total_frames for spec in specs]
    offsets = np.cumsum([0, *frames[:-1]], dtype=int).tolist()
    regions, targets, tokens = [], [], []
    for spec, offset in zip(specs, offsets):
        segments = segment_targets(ids[offset : offset + spec.total_frames], spec)
        regions += [(offset + start, offset + end) for start, end in spec.intervals]
        targets += segments
        tokens.append(sum(target.size for target in segments))
    region_losses, grad = ctc_loss_packed(log_probs, regions, targets, with_grad)
    losses, first = [], 0
    for spec, n in zip(specs, tokens):
        # Left to right from 0.0; sum() compensates its float additions on
        # Python 3.12 and later.
        summed = reduce(add, region_losses[first : first + len(spec.intervals)].tolist(), 0.0)
        first += len(spec.intervals)
        losses.append(summed / n if n else 0.0)
    if with_grad:
        divisors = [max(1, n) for n in tokens]
        grad /= np.repeat(divisors, frames)[:, None]
    return losses, tokens, grad


def masked_ce_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of each masked frame's id.

    Uses the full (V+1)-way softmax including blank, which is never a target.
    Returns (0, zero gradient) when nothing is masked.
    """
    log_probs, ids = _check_pack(log_probs, ids, [spec])
    (loss,), grad = _masked_ce_terms(log_probs, ids, [spec], with_grad=True)
    return loss, grad


def masked_ctc_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Per-region CTC against deduplicated targets, token-normalized.

    Each masked region is an independent CTC instance over its own rows; the
    region losses are summed and divided by the total number of target tokens.
    Returns (0, zero gradient) when there are no masked regions.
    """
    log_probs, ids = _check_pack(log_probs, ids, [spec])
    (loss,), _, grad = _masked_ctc_terms(log_probs, ids, [spec], with_grad=True)
    return loss, grad


def joint_loss_batch(
    log_probs, ids, specs, alpha: float
) -> tuple[list[LossBreakdown], np.ndarray]:
    """joint_loss of every utterance of a pack, in order, and the pack
    gradient of their sum.

    `log_probs` (sum T, V+1) and `ids` (sum T) hold the utterances end to
    end; specs[i] is utterance i's MaskSpec, and its total_frames is T_i. A
    term whose weight is 0 is still computed and reported, but its gradient
    is not: at alpha 0 CTC runs its forward recursion only.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    log_probs, ids = _check_pack(log_probs, ids, specs)
    ctc, tokens, ctc_grad = _masked_ctc_terms(log_probs, ids, specs, alpha > 0.0)
    ce, ce_grad = _masked_ce_terms(log_probs, ids, specs, alpha < 1.0)
    if alpha == 0.0:
        grad = ce_grad
    elif alpha == 1.0:
        grad = ctc_grad
    else:
        grad = alpha * ctc_grad + (1.0 - alpha) * ce_grad
    breakdowns = [
        LossBreakdown(
            ce=ce_u,
            ctc=ctc_u,
            combined=alpha * ctc_u + (1.0 - alpha) * ce_u,
            masked_frames=spec.masked_frames,
            target_tokens=n,
        )
        for ce_u, ctc_u, n, spec in zip(ce, ctc, tokens, specs)
    ]
    return breakdowns, grad


def joint_loss(log_probs, ids, spec: MaskSpec, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """combined = alpha * ctc + (1 - alpha) * ce, with the matching gradient mix."""
    (breakdown,), grad = joint_loss_batch(log_probs, ids, [spec], alpha)
    return breakdown, grad
