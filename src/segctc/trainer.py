"""Mini-batch gradient training with decoupled-weight-decay Adam.

Every random draw is keyed by (seed, stream, step[, utterance]) so runs are
bit-reproducible. A step forwards its whole batch, computes the losses of all
its utterances with one batched CTC call, then backpropagates and reduces the
gradients in sorted utterance order to fix the summation order.

Metrics log format: one line per step, tab-separated
    step  ce  ctc  combined  alpha
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from .ctc import ctc_loss_and_grad_batch
from .errors import ConfigError, NonFiniteLossError, ShapeMismatchError
from .masking import apply_mask, sample_mask
from .model import Model, model_backward, model_forward, named_params, save_checkpoint
from .numerics import log_softmax
from .objectives import LossBreakdown, TrainingMode, effective_alpha, joint_loss_batch
from .seeding import seeded_rng
from .synthesis import Corpus
from .targets import dedup

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
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, grads, state: AdamState, hyper: AdamHyper):
    """One bias-corrected Adam update with decoupled weight decay, in place.

    `params` is a list of (name, array) pairs; `grads` maps the same names to
    gradient arrays of identical shape.
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - hyper.beta1**t
    c2 = 1.0 - hyper.beta2**t
    for name, p in params:
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(
                f"gradient for {name} has shape {g.shape}, parameter {p.shape}"
            )
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * g * g
        p -= hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
        if hyper.weight_decay:
            p -= hyper.lr * hyper.weight_decay * p
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
        if not self.lr_peak > 0.0:
            raise ConfigError("lr_peak must be > 0")
        if self.lr_warmup_steps < 0:
            raise ConfigError("lr_warmup_steps must be >= 0")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.adam_eps > 0.0:
            raise ConfigError("adam_eps must be > 0")
        if not (self.weight_decay >= 0.0 and self.grad_clip >= 0.0):
            raise ConfigError("weight_decay and grad_clip must be >= 0")
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


def _pretrain_batch(model: Model, batch, alpha: float) -> Iterator[tuple[LossBreakdown, dict]]:
    """Masked joint loss and parameter gradients of every (features, ids,
    spec) item, yielded in item order: all forwards, one joint-loss call over
    every masked region, then one backward per item, each releasing its
    forward cache."""
    log_probs, caches = [], deque()
    for features, _, spec in batch:
        masked = apply_mask(features, spec, model.encoder.mask_embedding)
        logits, cache = model_forward(model, masked)
        log_probs.append(log_softmax(logits, axis=1))
        caches.append(cache)
    losses = joint_loss_batch(
        [(lp, ids, spec) for lp, (_, ids, spec) in zip(log_probs, batch)], alpha
    )
    for (breakdown, dlogits), (_, _, spec) in zip(losses, batch):
        masked_rows = np.flatnonzero(spec.frame_mask())
        yield breakdown, model_backward(
            model, caches.popleft(), dlogits, masked_rows=masked_rows
        )


def pretrain_loss_and_grads(
    model: Model, features, ids, spec, alpha: float
) -> tuple[LossBreakdown, dict]:
    """Masked joint loss of one utterance plus gradients for every parameter."""
    (result,) = _pretrain_batch(model, [(features, ids, spec)], alpha)
    return result


def _finetune_batch(model: Model, batch) -> Iterator[tuple[float, dict]]:
    """Token-normalized full-utterance CTC loss and parameter gradients of
    every (features, label_ids) item, yielded in item order, with one CTC
    call over the batch."""
    log_probs, caches = [], deque()
    for features, _ in batch:
        logits, cache = model_forward(model, features)
        log_probs.append(log_softmax(logits, axis=1))
        caches.append(cache)
    targets = [dedup(label_ids) for _, label_ids in batch]
    losses, dlogits = ctc_loss_and_grad_batch(log_probs, targets)
    for target, loss, grad in zip(targets, losses, dlogits):
        tokens = max(1, target.size)
        grads = model_backward(model, caches.popleft(), grad / tokens, masked_rows=None)
        yield float(loss) / tokens, grads


def finetune_loss_and_grads(model: Model, features, label_ids) -> tuple[float, dict]:
    """Token-normalized full-utterance CTC loss (no masking) plus gradients."""
    (result,) = _finetune_batch(model, [(features, label_ids)])
    return result


def _clip_grads(grads: dict, max_norm: float) -> None:
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
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


def _non_finite(step, value, indices, losses, alpha) -> NonFiniteLossError:
    """The error for a non-finite step loss, naming the first utterance whose
    loss is non-finite and its offending term."""
    for idx, (ce, ctc, combined) in zip(indices, losses):
        if not np.isfinite(combined):
            term = _non_finite_term(ce, ctc, alpha)
            return NonFiniteLossError(step, value, utterance=idx, term=term)
    return NonFiniteLossError(step, value)


def _non_finite_grad(step, value, indices, results, names) -> NonFiniteLossError:
    """The error for a finite step loss whose summed gradient is not finite,
    naming the first utterance with a non-finite gradient among `names`.
    `results` recomputes the step's per-utterance (..., grads) items; only
    this failure path pays for it."""
    for idx, (*_, grads) in zip(indices, results):
        if not all(np.isfinite(grads[name]).all() for name in names):
            return NonFiniteLossError(step, value, utterance=idx, term="grad")
    return NonFiniteLossError(step, value, term="grad")


def _run_loop(corpus, cfg, model, batch_fn, log_path, checkpoint_path, trainable):
    """`batch_fn(indices, step, alpha)` yields (ce, ctc, combined, grads) of
    each drawn utterance, in index order."""
    if not corpus.utterances:
        raise ConfigError("corpus is empty")
    n = len(corpus.utterances)
    state = AdamState()
    metrics: list[StepMetrics] = []
    for step in range(cfg.steps):
        batch_rng = seeded_rng(cfg.seed, _BATCH_STREAM, step)
        size = min(cfg.batch_size, n)
        indices = np.sort(batch_rng.choice(n, size=size, replace=False)).tolist()
        grad_total = {name: np.zeros_like(p) for name, p in trainable}
        ce_sum = ctc_sum = combined_sum = 0.0
        alpha = effective_alpha(step, cfg.mode)
        losses = []
        for ce, ctc, combined, grads in batch_fn(indices, step, alpha):
            losses.append((ce, ctc, combined))
            ce_sum += ce
            ctc_sum += ctc
            combined_sum += combined
            for name in grad_total:
                grad_total[name] += grads[name]
        for name in grad_total:
            grad_total[name] /= size
        ce_mean, ctc_mean = ce_sum / size, ctc_sum / size
        combined_mean = combined_sum / size
        if not np.isfinite(combined_mean):
            raise _non_finite(step, combined_mean, indices, losses, alpha)
        # A NaN frame no loss term scores can still reach the gradients
        # through 0 * NaN; AdamW would then poison every parameter.
        grad_sum = sum(float(g.sum()) for g in grad_total.values())
        if not np.isfinite(grad_sum):
            results = batch_fn(indices, step, alpha)
            raise _non_finite_grad(step, grad_sum, indices, results, list(grad_total))
        if cfg.grad_clip > 0.0:
            _clip_grads(grad_total, cfg.grad_clip)
        hyper = AdamHyper(
            lr=learning_rate(step, cfg),
            beta1=cfg.adam_beta1,
            beta2=cfg.adam_beta2,
            eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay,
        )
        adam_step(trainable, grad_total, state, hyper)
        metrics.append(StepMetrics(step, ce_mean, ctc_mean, combined_mean, alpha))
    if log_path is not None:
        with open(log_path, "w") as fh:
            fh.write(format_metrics(metrics))
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path)
    return model, metrics


def train(
    corpus: Corpus,
    cfg: TrainConfig,
    model: Model,
    *,
    log_path=None,
    checkpoint_path=None,
):
    """Masked pretraining on the corpus's noisy ids under the configured mode."""

    def batch_fn(indices, step: int, alpha: float):
        batch = []
        for idx in indices:
            utt = corpus.utterances[idx]
            mask_rng = seeded_rng(cfg.seed, _MASK_STREAM, idx, step)
            spec = sample_mask(utt.features.shape[0], cfg.mask_p, cfg.mask_l, mask_rng)
            batch.append((utt.features, utt.noisy_ids, spec))
        for b, grads in _pretrain_batch(model, batch, alpha):
            yield b.ce, b.ctc, b.combined, grads

    return _run_loop(
        corpus, cfg, model, batch_fn, log_path, checkpoint_path, named_params(model)
    )


def finetune(
    corpus: Corpus,
    cfg: TrainConfig,
    model: Model,
    *,
    freeze_encoder: bool = False,
    log_path=None,
    checkpoint_path=None,
):
    """Full-utterance CTC training against deduplicated true ids (no masking).

    With freeze_encoder only the head is updated. Metrics reuse the pretraining
    log format with the CTC value in both loss columns and alpha fixed at 1.
    """

    def batch_fn(indices, step: int, alpha: float):
        batch = [
            (corpus.utterances[idx].features, corpus.utterances[idx].true_ids)
            for idx in indices
        ]
        for loss, grads in _finetune_batch(model, batch):
            yield 0.0, loss, loss, grads

    trainable = named_params(model)
    if freeze_encoder:
        trainable = [(name, p) for name, p in trainable if name.startswith("head.")]
    cfg = replace(cfg, mode=TrainingMode(alpha=1.0, ce_warmup_steps=0))
    return _run_loop(corpus, cfg, model, batch_fn, log_path, checkpoint_path, trainable)
