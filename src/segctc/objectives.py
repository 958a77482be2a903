"""Training losses over a pack of log-probability lattices.

Three objectives share one (V+1)-way output head: frame-level cross-entropy on
masked frames, segment-wise CTC per masked region against deduplicated
targets, and their convex combination. CE is normalized by masked-frame count
and CTC by total target-token count, per utterance, so the two terms have
comparable magnitude. The segment-CTC term is the one CTC rule of both
training jobs: finetuning scores each whole utterance as a single region. A
pack is the (sum T, V+1) log-probabilities of a batch's utterances end to
end, with one MaskSpec each. Its masked regions are one (R, 2) array of pack
rows (masking.pack_regions), built once per step: CE is one gather over
their rows, their targets are deduplicated once over the packed ids
(targets.packed_targets) and all regions share one CTC call on the flat
targets. Each utterance's region losses add left to right (np.bincount, in
region order) and its normalizer divides its own rows. Gradients are with
respect to the pre-softmax logits, laid out like the pack, and exactly zero
on unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss_packed
from .errors import ConfigError, DimensionMismatchError
from .masking import MaskSpec, pack_regions
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


def _masked_ce_terms(log_probs, ids, specs, regions, with_grad: bool):
    """Each utterance's masked CE and, if `with_grad`, the pack gradient of
    their sum (else None). The masked rows are those of the pack `regions`,
    pack_regions(specs)."""
    counts = [spec.masked_frames for spec in specs]
    rows = concat_ranges(regions[:, 0], regions[:, 1] - regions[:, 0])
    picked = log_probs[rows, ids[rows]]
    ends = np.cumsum(counts, dtype=int).tolist()
    losses = [-float(picked[end - n : end].sum()) / n if n else 0.0 for n, end in zip(counts, ends)]
    if not with_grad:
        return losses, None
    per_row = np.repeat(counts, counts)
    grad = np.zeros_like(log_probs)
    grad[rows] = np.exp(log_probs[rows]) / per_row[:, None]
    grad[rows, ids[rows]] -= 1.0 / per_row
    return losses, grad


def segment_ctc_terms(log_probs, ids, specs, with_grad: bool, regions=None):
    """Each utterance's token-normalized segment CTC and target-token count
    and, if `with_grad`, the pack gradient of their sum (else None), from one
    CTC call over every region of every spec, shifted to its utterance's rows.

    The CTC term of both training jobs: pretraining passes the masked regions
    and the noisy ids, finetuning one whole-utterance region per utterance,
    MaskSpec(((0, T),), T), and the true ids. `log_probs` is the float
    (sum T, V+1) pack and `ids` its int frame ids, one per row; `regions` is
    pack_regions(specs), built here when not given. The targets are
    deduplicated once over the pack, and each utterance's region losses are
    added left to right from 0.0 in region order (np.bincount).
    """
    regions = pack_regions(specs) if regions is None else regions
    owners = np.repeat(np.arange(len(specs)), [len(spec.intervals) for spec in specs])
    labels, counts = packed_targets(ids, regions)
    region_losses, grad = ctc_loss_packed(log_probs, regions, (labels, counts), with_grad)
    tokens = np.bincount(owners, weights=counts, minlength=len(specs)).astype(int)
    divisors = np.maximum(tokens, 1)
    losses = np.bincount(owners, weights=region_losses, minlength=len(specs)) / divisors
    if with_grad:
        grad /= np.repeat(divisors, [spec.total_frames for spec in specs])[:, None]
    return losses.tolist(), tokens.tolist(), grad


def masked_ce_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of each masked frame's id.

    Uses the full (V+1)-way softmax including blank, which is never a target.
    Returns (0, zero gradient) when nothing is masked.
    """
    log_probs, ids = _check_pack(log_probs, ids, [spec])
    (loss,), grad = _masked_ce_terms(log_probs, ids, [spec], pack_regions([spec]), True)
    return loss, grad


def masked_ctc_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Per-region CTC against deduplicated targets, token-normalized.

    Each masked region is an independent CTC instance over its own rows; the
    region losses are summed and divided by the total number of target tokens.
    Returns (0, zero gradient) when there are no masked regions.
    """
    log_probs, ids = _check_pack(log_probs, ids, [spec])
    (loss,), _, grad = segment_ctc_terms(log_probs, ids, [spec], with_grad=True)
    return loss, grad


def joint_loss_batch(
    log_probs, ids, specs, alpha: float, regions=None
) -> tuple[list[LossBreakdown], np.ndarray]:
    """joint_loss of every utterance of a pack, in order, and the pack
    gradient of their sum.

    `log_probs` (sum T, V+1) and `ids` (sum T) hold the utterances end to
    end; specs[i] is utterance i's MaskSpec, and its total_frames is T_i.
    `regions` is pack_regions(specs), which a caller that also needs the
    masked rows passes so that a step builds it once. A term whose weight is
    0 is still computed and reported, but its gradient is not: at alpha 0
    CTC runs its forward recursion only.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    log_probs, ids = _check_pack(log_probs, ids, specs)
    regions = pack_regions(specs) if regions is None else regions
    ctc, tokens, ctc_grad = segment_ctc_terms(log_probs, ids, specs, alpha > 0.0, regions)
    ce, ce_grad = _masked_ce_terms(log_probs, ids, specs, regions, alpha < 1.0)
    if alpha == 0.0:
        grad = ce_grad
    elif alpha == 1.0:
        grad = ctc_grad
    else:
        grad = alpha * ctc_grad + (1.0 - alpha) * ce_grad
    return [  # (ce, ctc, combined, masked_frames, target_tokens) of each utterance
        LossBreakdown(c, t, alpha * t + (1.0 - alpha) * c, spec.masked_frames, n)
        for c, t, spec, n in zip(ce, ctc, specs, tokens)
    ], grad


def joint_loss(log_probs, ids, spec: MaskSpec, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """combined = alpha * ctc + (1 - alpha) * ce, with the matching gradient mix."""
    (breakdown,), grad = joint_loss_batch(log_probs, ids, [spec], alpha)
    return breakdown, grad
