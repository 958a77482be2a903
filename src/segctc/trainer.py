"""Mini-batch gradient training with decoupled-weight-decay Adam.

Every random draw is keyed by (seed, stream, step[, utterance]) so runs are
bit-reproducible. A step lays its whole batch end to end along time and runs
one packed forward, computes the losses of all its utterances on the packed
log-probabilities with one CTC call, then runs one packed backward on the
packed logit gradient, which returns the gradient of the batch's summed loss,
reduced in sorted utterance order (segctc.model); the step divides it by the
batch size. A frozen finetune stops the backward at the head.

Metrics log format: one line per step, tab-separated
    step  ce  ctc  combined  alpha
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .ctc import ctc_loss_packed
from .errors import ConfigError, DimensionMismatchError, NonFiniteLossError, ShapeMismatchError
from .masking import apply_mask, sample_mask
from .model import Model, named_params, pack_backward, pack_forward, save_checkpoint
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
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
        if name not in state.v:
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
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
    mask_embedding = model.encoder.mask_embedding
    masked = [apply_mask(features, spec, mask_embedding) for features, _, spec in batch]
    logits, cache = pack_forward(model, masked)
    ids = np.concatenate([ids for _, ids, _ in batch])
    specs = [spec for _, _, spec in batch]
    breakdowns, dlogits = joint_loss_batch(log_softmax(logits, axis=1), ids, specs, alpha)
    masked_rows = [np.flatnonzero(spec.frame_mask()) for spec in specs]
    return breakdowns, pack_backward(model, cache, dlogits, masked_rows)


def pretrain_loss_and_grads(
    model: Model, features, ids, spec, alpha: float
) -> tuple[LossBreakdown, dict]:
    """Masked joint loss of one utterance plus gradients for every parameter."""
    (breakdown,), grads = _pretrain_batch(model, [(features, ids, spec)], alpha)
    return breakdown, grads


def _finetune_batch(model: Model, batch, with_encoder=True) -> tuple[list[float], dict]:
    """Token-normalized full-utterance CTC loss of every (features,
    label_ids) item, in item order, and the parameter gradients of their sum
    (the head's alone without `with_encoder`): one packed forward, one CTC
    call with a region per utterance, and one packed backward."""
    features = [x for x, _ in batch]
    logits, cache = pack_forward(model, features)
    lengths = [len(x) for x in features]
    ends = np.cumsum(lengths).tolist()
    regions = [(end - frames, end) for frames, end in zip(lengths, ends)]
    targets = [dedup(label_ids) for _, label_ids in batch]
    losses, dlogits = ctc_loss_packed(log_softmax(logits, axis=1), regions, targets, True)
    tokens = [max(1, target.size) for target in targets]
    dlogits /= np.repeat(tokens, lengths)[:, None]
    grads = pack_backward(model, cache, dlogits, [None] * len(batch), with_encoder)
    return [float(loss) / n for loss, n in zip(losses, tokens)], grads


def finetune_loss_and_grads(model: Model, features, label_ids) -> tuple[float, dict]:
    """Token-normalized full-utterance CTC loss (no masking) plus gradients."""
    (loss,), grads = _finetune_batch(model, [(features, label_ids)])
    return loss, grads


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


def _non_finite(step, loss, grad_sum, results, indices, alpha, names) -> NonFiniteLossError:
    """The error for a step whose mean loss or summed gradient is not finite,
    from each drawn utterance's (ce, ctc, combined, grads) computed alone: a
    packed step carries a non-finite value into the neighbouring utterances
    (0 * inf), so its own per-utterance results cannot name the culprit. It
    names the first utterance whose loss is non-finite and its offending
    term; failing that, the first with a non-finite gradient among `names`."""
    for idx, (ce, ctc, combined, _) in zip(indices, results):
        if not np.isfinite(combined):
            term = _non_finite_term(ce, ctc, alpha)
            return NonFiniteLossError(step, loss, utterance=idx, term=term)
    for idx, (*_, grads) in zip(indices, results):
        if not all(np.isfinite(grads[name]).all() for name in names):
            return NonFiniteLossError(step, grad_sum, utterance=idx, term="grad")
    if np.isfinite(loss):
        return NonFiniteLossError(step, grad_sum, term="grad")
    return NonFiniteLossError(step, loss)


def _run_loop(corpus, cfg, model, batch_fn, log_path, checkpoint_path, trainable):
    """`batch_fn(indices, step, alpha)` returns the (ce, ctc, combined, grads)
    of the drawn utterances, each summed over them in index order."""
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
        ce_sum, ctc_sum, combined_sum, grads = batch_fn(indices, step, alpha)
        grads = {name: grads[name] / size for name, _ in trainable}
        ce_mean, ctc_mean, combined_mean = ce_sum / size, ctc_sum / size, combined_sum / size
        # A NaN frame no loss term scores can still reach the gradients
        # through 0 * NaN; AdamW would then poison every parameter.
        grad_sum = sum(float(g.sum()) for g in grads.values())
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
        losses, grads = _pretrain_batch(model, batch, alpha)
        sums = (sum(getattr(b, term) for b in losses) for term in ("ce", "ctc", "combined"))
        return (*sums, grads)

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
        utts = [corpus.utterances[idx] for idx in indices]
        items = [(utt.features, utt.true_ids) for utt in utts]
        losses, grads = _finetune_batch(model, items, with_encoder=not freeze_encoder)
        return 0.0, sum(losses), sum(losses), grads

    trainable = named_params(model)
    if freeze_encoder:
        trainable = [(name, p) for name, p in trainable if name.startswith("head.")]
    cfg = replace(cfg, mode=TrainingMode(alpha=1.0, ce_warmup_steps=0))
    return _run_loop(corpus, cfg, model, batch_fn, log_path, checkpoint_path, trainable)
