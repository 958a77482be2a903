"""Training losses over a log-probability lattice.

Three objectives share one (V+1)-way output head: frame-level cross-entropy on
masked frames, segment-wise CTC per masked region against deduplicated
targets, and their convex combination. CE is normalized by masked-frame count
and CTC by total target-token count so the two terms have comparable
magnitude. All gradients are with respect to the pre-softmax logits and are
exactly zero on unmasked rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ctc import ctc_loss_and_grad_batch, ctc_loss_batch
from .errors import DimensionMismatchError
from .masking import MaskSpec
from .targets import segment_targets


@dataclass(frozen=True)
class TrainingMode:
    """Loss mixing weight plus an optional initial CE-only phase."""

    alpha: float
    ce_warmup_steps: int = 0

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.ce_warmup_steps < 0:
            raise ValueError("ce_warmup_steps must be >= 0")


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


def _check_inputs(log_probs, ids, spec: MaskSpec):
    log_probs = np.asarray(log_probs, dtype=float)
    ids = np.asarray(ids, dtype=int).reshape(-1)
    if log_probs.ndim != 2 or log_probs.shape[1] < 2:
        raise DimensionMismatchError(
            f"lattice must be (T, V+1) with V >= 1, got {log_probs.shape}"
        )
    frames = log_probs.shape[0]
    if ids.size != frames or spec.total_frames != frames:
        raise DimensionMismatchError(
            f"lattice has {frames} frames, ids {ids.size}, mask spec {spec.total_frames}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= log_probs.shape[1] - 1):
        raise DimensionMismatchError("frame ids must lie in [0, V); blank is never a label")
    return log_probs, ids


def _masked_ce(log_probs, ids, spec: MaskSpec, with_grad: bool):
    rows = np.flatnonzero(spec.frame_mask())
    grad = np.zeros_like(log_probs) if with_grad else None
    if rows.size == 0:
        return 0.0, grad
    n = rows.size
    loss = -float(log_probs[rows, ids[rows]].sum()) / n
    if with_grad:
        grad[rows] = np.exp(log_probs[rows]) / n
        grad[rows, ids[rows]] -= 1.0 / n
    return loss, grad


def _masked_ctc(batch, with_grad: bool) -> list[tuple[float, np.ndarray | None, int]]:
    """(token-normalized CTC loss, gradient or None, target tokens) of every
    checked (log_probs, ids, spec) item, from one CTC call over all regions."""
    lattices, targets, per_item = [], [], []
    for log_probs, ids, spec in batch:
        regions = segment_targets(ids, spec)
        per_item.append(regions)
        lattices += [log_probs[start:end] for start, end in spec.intervals]
        targets += regions
    if with_grad:
        losses, grads = ctc_loss_and_grad_batch(lattices, targets)
    else:
        losses, grads = ctc_loss_batch(lattices, targets), None
    out = []
    first = 0
    for (log_probs, _, spec), regions in zip(batch, per_item):
        rows = range(first, first + len(regions))
        first += len(regions)
        tokens = sum(t.size for t in regions)
        grad = np.zeros_like(log_probs) if with_grad else None
        if tokens == 0:
            out.append((0.0, grad, 0))
            continue
        total = 0.0
        for k, (start, end) in zip(rows, spec.intervals):
            total += float(losses[k])
            if with_grad:
                grad[start:end] = grads[k]
        out.append((total / tokens, grad / tokens if with_grad else None, tokens))
    return out


def masked_ce_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Mean negative log-probability of each masked frame's id.

    Uses the full (V+1)-way softmax including blank, which is never a target.
    Returns (0, zero gradient) when nothing is masked.
    """
    log_probs, ids = _check_inputs(log_probs, ids, spec)
    return _masked_ce(log_probs, ids, spec, with_grad=True)


def masked_ctc_loss(log_probs, ids, spec: MaskSpec) -> tuple[float, np.ndarray]:
    """Per-region CTC against deduplicated targets, token-normalized.

    Each masked region is an independent CTC instance over its own rows; the
    region losses are summed and divided by the total number of target tokens.
    Returns (0, zero gradient) when there are no masked regions.
    """
    log_probs, ids = _check_inputs(log_probs, ids, spec)
    loss, grad, _ = _masked_ctc([(log_probs, ids, spec)], with_grad=True)[0]
    return loss, grad


def joint_loss_batch(batch, alpha: float) -> list[tuple[LossBreakdown, np.ndarray]]:
    """joint_loss of every (log_probs, ids, spec) item, in order.

    The masked regions of all items go through one batched CTC call. A term
    whose weight is 0 is still computed and reported, but its gradient is
    not: at alpha 0 CTC runs its forward recursion only.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    batch = [(*_check_inputs(log_probs, ids, spec), spec) for log_probs, ids, spec in batch]
    ctc_terms = _masked_ctc(batch, with_grad=alpha > 0.0)
    out = []
    for (log_probs, ids, spec), (ctc, ctc_grad, tokens) in zip(batch, ctc_terms):
        ce, ce_grad = _masked_ce(log_probs, ids, spec, with_grad=alpha < 1.0)
        combined = alpha * ctc + (1.0 - alpha) * ce
        if alpha == 0.0:
            grad = ce_grad
        elif alpha == 1.0:
            grad = ctc_grad
        else:
            grad = alpha * ctc_grad + (1.0 - alpha) * ce_grad
        breakdown = LossBreakdown(
            ce=ce,
            ctc=ctc,
            combined=combined,
            masked_frames=spec.masked_frames,
            target_tokens=tokens,
        )
        out.append((breakdown, grad))
    return out


def joint_loss(log_probs, ids, spec: MaskSpec, alpha: float) -> tuple[LossBreakdown, np.ndarray]:
    """combined = alpha * ctc + (1 - alpha) * ce, with the matching gradient mix."""
    return joint_loss_batch([(log_probs, ids, spec)], alpha)[0]
