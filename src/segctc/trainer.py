"""Mini-batch gradient training with decoupled-weight-decay Adam.

Every random draw is keyed by (seed, stream, step[, utterance]) so runs are
bit-reproducible. A step draws each utterance's mask from its own generator
and merges them all at once (masking.sample_masks), lays its whole batch end
to end along time and runs one packed forward, computes the losses of all
its utterances on the packed log-probabilities with one CTC call, then runs
one packed backward on the packed logit gradient, which returns the gradient
of the batch's summed loss, reduced in sorted utterance order
(segctc.model); the step divides it by the batch size. The masked regions
are one array of pack rows, built once per step, for the loss and for the
mask embedding's gradient. A frozen finetune stops the backward at the head.
AdamW updates every trainable parameter as one flat vector, with the
element-wise expressions of a per-parameter update and so its bits.

Both jobs score CTC through segctc.objectives' segment-CTC term: pretraining
over the masked regions, finetuning over one whole-utterance region per
utterance. Each batch gives one LossBreakdown per utterance, and the loop
alone reduces them to the step's means.

`train` and `finetune` update the model in place and return it with one
StepMetrics per step; they write no file. `format_metrics` renders the
metrics log, which segctc.cli writes as metrics.tsv: one line per step,
tab-separated
    step  ce  ctc  combined  alpha
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteLossError, ShapeMismatchError
from .masking import MaskSpec, apply_mask, pack_regions, sample_masks
from .model import Model, named_params, pack_backward, pack_forward
from .numerics import concat_ranges, left_sum, log_softmax
from .objectives import (
    LossBreakdown,
    TrainingMode,
    effective_alpha,
    joint_loss_batch,
    segment_ctc_terms,
)
from .seeding import seeded_rng
from .synthesis import Corpus

_BATCH_STREAM = 0
_MASK_STREAM = 1


@dataclass(frozen=True)
class AdamHyper:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-8
    weight_decay: float = 0.01


@dataclass
class AdamState:
    """The step count and the first and second moments of every parameter,
    each one flat vector over the parameter list laid end to end (None
    before the first step); every step passes the same list."""

    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(params, grads, state: AdamState, hyper: AdamHyper):
    """One bias-corrected Adam update with decoupled weight decay, in place.

    `params` is a list of (name, array) pairs; `grads` maps the same names to
    gradient arrays of identical shape. The update runs once over every
    parameter laid end to end as one flat vector, with a per-parameter
    update's element-wise expressions and so its bits, and its result is
    written back into each parameter array.
    """
    for key, p in params:
        if (g := grads[key]).shape != p.shape:
            raise ShapeMismatchError(f"gradient for {key} has shape {g.shape}, parameter {p.shape}")
    flat = np.concatenate([p for _, p in params], axis=None)
    g = np.concatenate([grads[name] for name, _ in params], axis=None)
    if state.m is None:
        state.m, state.v = np.zeros_like(flat), np.zeros_like(flat)
    state.step += 1
    c1, c2 = 1.0 - hyper.beta1**state.step, 1.0 - hyper.beta2**state.step
    m, v = state.m, state.v
    m *= hyper.beta1
    m += (1.0 - hyper.beta1) * g
    v *= hyper.beta2
    v += (1.0 - hyper.beta2) * g * g
    flat -= hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
    if hyper.weight_decay:
        flat -= hyper.lr * hyper.weight_decay * flat
    for (_, p), end in zip(params, accumulate(p.size for _, p in params)):
        p[...] = flat[end - p.size : end].reshape(p.shape)
    return params, state


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 8
    lr_peak: float = 5e-3
    lr_warmup_steps: int = 200
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    mask_p: float = 0.08
    mask_l: int = 10
    mode: TrainingMode = TrainingMode(alpha=0.5)
    grad_clip: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ConfigError("steps must be >= 0 and batch_size >= 1")
        if not 0.0 < self.lr_peak < math.inf:
            raise ConfigError(f"lr_peak must be finite and > 0, got {self.lr_peak}")
        if self.lr_warmup_steps < 0:
            raise ConfigError("lr_warmup_steps must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.adam_eps < math.inf:
            raise ConfigError(f"adam_eps must be finite and > 0, got {self.adam_eps}")
        for name in ("weight_decay", "grad_clip"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.mask_p <= 1.0 or self.mask_l < 1:
            raise ConfigError("mask_p must lie in [0, 1] and mask_l must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass(frozen=True)
class StepMetrics:
    step: int
    ce: float
    ctc: float
    combined: float
    alpha: float


def learning_rate(step: int, cfg: TrainConfig) -> float:
    """Linear ramp to the peak, then linear decay toward 0 at the final step."""
    if cfg.lr_warmup_steps > 0 and step < cfg.lr_warmup_steps:
        return cfg.lr_peak * (step + 1) / cfg.lr_warmup_steps
    span = max(1, cfg.steps - cfg.lr_warmup_steps)
    return cfg.lr_peak * max(0.0, (cfg.steps - step) / span)


def format_metrics(metrics) -> str:
    lines = [
        f"{m.step}\t{m.ce:.10g}\t{m.ctc:.10g}\t{m.combined:.10g}\t{m.alpha:.10g}"
        for m in metrics
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _pretrain_batch(model: Model, batch, alpha: float) -> tuple[list[LossBreakdown], dict]:
    """Masked joint loss of every (features, ids, spec) item, in item order,
    and the parameter gradients of their sum: one packed forward, one
    joint-loss call over the pack, then one packed backward."""
    if any(len(ids) != spec.total_frames for _, ids, spec in batch):
        raise DimensionMismatchError("every utterance needs one id per frame")
    masked = [apply_mask(x, spec, model.encoder.mask_embedding) for x, _, spec in batch]
    logits, cache = pack_forward(model, masked)
    ids = np.concatenate([ids for _, ids, _ in batch])
    specs = [spec for _, _, spec in batch]
    regions = pack_regions(specs)
    breakdowns, dlogits = joint_loss_batch(log_softmax(logits, axis=1), ids, specs, alpha, regions)
    is_masked = np.zeros(ids.size, dtype=bool)
    is_masked[concat_ranges(regions[:, 0], regions[:, 1] - regions[:, 0])] = True
    return breakdowns, pack_backward(model, cache, dlogits, [is_masked[s] for s in cache["slices"]])


def pretrain_loss_and_grads(
    model: Model, features, ids, spec, alpha: float
) -> tuple[LossBreakdown, dict]:
    """Masked joint loss of one utterance plus gradients for every parameter."""
    (breakdown,), grads = _pretrain_batch(model, [(features, ids, spec)], alpha)
    return breakdown, grads


def _finetune_batch(model: Model, batch, with_encoder=True) -> tuple[list[LossBreakdown], dict]:
    """Token-normalized full-utterance CTC loss of every (features,
    label_ids) item, in item order, and the parameter gradients of their sum
    (the head's alone without `with_encoder`): one packed forward, the
    segment-CTC term with one whole-utterance region per item, and one
    packed backward."""
    if any(len(label_ids) != len(x) for x, label_ids in batch):
        raise DimensionMismatchError("every utterance needs one label id per frame")
    logits, cache = pack_forward(model, [x for x, _ in batch])
    ids = np.concatenate([label_ids for _, label_ids in batch])
    specs = [MaskSpec(((0, len(x)),), len(x)) for x, _ in batch]
    losses, tokens, dlogits = segment_ctc_terms(log_softmax(logits, axis=1), ids, specs, True)
    grads = pack_backward(model, cache, dlogits, [None] * len(batch), with_encoder)
    # (ce, ctc, combined, masked_frames, target_tokens): CTC alone, nothing masked
    return [LossBreakdown(0.0, loss, loss, 0, n) for loss, n in zip(losses, tokens)], grads


def finetune_loss_and_grads(model: Model, features, label_ids) -> tuple[float, dict]:
    """Token-normalized full-utterance CTC loss (no masking) plus gradients."""
    (breakdown,), grads = _finetune_batch(model, [(features, label_ids)])
    return breakdown.ctc, grads


def _clip_grads(grads: dict, max_norm: float) -> None:
    total = np.sqrt(left_sum(float(np.sum(g * g)) for g in grads.values()))
    if total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale


def _non_finite_term(ce: float, ctc: float, alpha: float) -> str | None:
    """The loss term that made `alpha * ctc + (1 - alpha) * ce` non-finite: a
    weighted term first; a term of weight 0 only when 0 * inf gave NaN."""
    terms = (("ce", 1.0 - alpha, ce), ("ctc", alpha, ctc))
    for name, weight, value in terms:
        if weight and not np.isfinite(value):
            return name
    for name, weight, value in terms:
        if not np.isfinite(weight * value):
            return name
    return None


def _non_finite(step, loss, grad_sum, alone, indices, alpha, names) -> NonFiniteLossError:
    """The error for a step whose mean loss or summed gradient is not finite,
    from each drawn utterance's (breakdowns, grads) computed alone: a packed
    step carries a non-finite value into the neighbouring utterances
    (0 * inf), so its own per-utterance results cannot name the culprit. It
    names the first utterance whose loss is non-finite and its offending
    term; failing that, the first with a non-finite gradient among `names`."""
    for idx, ((b,), _) in zip(indices, alone):
        if not np.isfinite(b.combined):
            term = _non_finite_term(b.ce, b.ctc, alpha)
            return NonFiniteLossError(step, loss, utterance=idx, term=term)
    for idx, (_, grads) in zip(indices, alone):
        if not all(np.isfinite(grads[name]).all() for name in names):
            return NonFiniteLossError(step, grad_sum, utterance=idx, term="grad")
    if np.isfinite(loss):
        return NonFiniteLossError(step, grad_sum, term="grad")
    return NonFiniteLossError(step, loss)


def _run_loop(corpus, cfg, batch_fn, trainable) -> list[StepMetrics]:
    """`batch_fn(indices, step, alpha)` returns one LossBreakdown per drawn
    utterance, in index order, and the gradients of their summed loss."""
    if not corpus.utterances:
        raise ConfigError("corpus is empty")
    n = len(corpus.utterances)
    state = AdamState()
    metrics: list[StepMetrics] = []
    for step in range(cfg.steps):
        batch_rng = seeded_rng(cfg.seed, _BATCH_STREAM, step)
        size = min(cfg.batch_size, n)
        indices = np.sort(batch_rng.choice(n, size=size, replace=False)).tolist()
        alpha = effective_alpha(step, cfg.mode)
        breakdowns, grads = batch_fn(indices, step, alpha)
        grads = {name: grads[name] / size for name, _ in trainable}
        sums = (left_sum(getattr(b, key) for b in breakdowns) for key in ("ce", "ctc", "combined"))
        ce_mean, ctc_mean, combined_mean = (total / size for total in sums)
        # A NaN frame no loss term scores can still reach the gradients
        # through 0 * NaN; AdamW would then poison every parameter.
        grad_sum = left_sum(float(g.sum()) for g in grads.values())
        if not (np.isfinite(combined_mean) and np.isfinite(grad_sum)):
            alone = [batch_fn([idx], step, alpha) for idx in indices]
            raise _non_finite(step, combined_mean, grad_sum, alone, indices, alpha, list(grads))
        if cfg.grad_clip > 0.0:
            _clip_grads(grads, cfg.grad_clip)
        hyper = AdamHyper(
            lr=learning_rate(step, cfg),
            beta1=cfg.adam_beta1,
            beta2=cfg.adam_beta2,
            eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay,
        )
        adam_step(trainable, grads, state, hyper)
        metrics.append(StepMetrics(step, ce_mean, ctc_mean, combined_mean, alpha))
    return metrics


def train(corpus: Corpus, cfg: TrainConfig, model: Model):
    """Masked pretraining on the corpus's noisy ids under the configured mode."""

    def batch_fn(indices, step: int, alpha: float):
        utts = [corpus.utterances[idx] for idx in indices]
        rngs = [seeded_rng(cfg.seed, _MASK_STREAM, idx, step) for idx in indices]
        specs = sample_masks([len(utt.features) for utt in utts], cfg.mask_p, cfg.mask_l, rngs)
        batch = [(utt.features, utt.noisy_ids, spec) for utt, spec in zip(utts, specs)]
        return _pretrain_batch(model, batch, alpha)

    return model, _run_loop(corpus, cfg, batch_fn, named_params(model))


def finetune(corpus: Corpus, cfg: TrainConfig, model: Model, *, freeze_encoder: bool = False):
    """Full-utterance CTC training against deduplicated true ids (no masking).

    With freeze_encoder only the head is updated. Metrics reuse the pretraining
    log format with the CTC value in both loss columns and alpha fixed at 1.
    """

    def batch_fn(indices, step: int, alpha: float):
        utts = [corpus.utterances[idx] for idx in indices]
        items = [(utt.features, utt.true_ids) for utt in utts]
        return _finetune_batch(model, items, with_encoder=not freeze_encoder)

    trainable = named_params(model)
    if freeze_encoder:
        trainable = [(name, p) for name, p in trainable if name.startswith("head.")]
    cfg = replace(cfg, mode=TrainingMode(alpha=1.0, ce_warmup_steps=0))
    return model, _run_loop(corpus, cfg, batch_fn, trainable)
