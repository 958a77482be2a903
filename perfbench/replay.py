"""Traced replays: the steps of `train`, `finetune` and `cmd_analyze`, rebuilt
from the package's public layer functions with a span timer around each call.

The replays use the same batch, mask and initialisation seeds as the entry
points they mirror, so their losses and probabilities must equal those of the
untraced run; bench.py checks that. Spans live only in this file: nothing
inside the package is timed or patched here.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import numpy as np

from segctc import (
    AdamHyper,
    AdamState,
    NonFiniteLossError,
    TrainingMode,
    adam_step,
    apply_mask,
    ctc_loss_and_grad,
    dedup,
    degradation_report,
    effective_alpha,
    format_report,
    joint_loss,
    learning_rate,
    load_checkpoint,
    load_corpus,
    log_softmax,
    masked_ce_loss,
    masked_ctc_loss,
    model_backward,
    model_forward,
    named_params,
    report_tsv,
    sample_mask,
    seeded_rng,
    segment_targets,
)
from segctc.trainer import _BATCH_STREAM, _MASK_STREAM, _clip_grads

OP = "op"  # key of an op's own time: the part its child spans do not cover


class Tracer:
    """In-memory span timer, one record per op.

    A span's self time is its duration minus the time covered by its direct
    children. Self times and counters accumulate into the current op's record;
    `op_seconds` holds each op's whole duration.
    """

    def __init__(self):
        self.ops: list[dict] = []
        self.counts: list[dict] = []
        self.op_seconds: list[float] = []
        self._stack: list[float] = []

    def _close(self, name: str, start: float) -> float:
        duration = time.perf_counter() - start
        children = self._stack.pop()
        self.ops[-1][name] += duration - children
        if self._stack:
            self._stack[-1] += duration
        return duration

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) under a span called `name`."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start)

    def op(self, fn, *args, **kwargs):
        """Run one op as the root span of a fresh record."""
        self.ops.append(defaultdict(float))
        self.counts.append(defaultdict(float))
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.op_seconds.append(self._close(OP, start))

    def count(self, name: str, value: float) -> None:
        self.counts[-1][name] += value

    def maximum(self, name: str, value: float) -> None:
        self.counts[-1][name] = max(self.counts[-1][name], value)

    def split(self, name: str, parts: dict) -> None:
        """Attribute part of the last op's `name` self time to children timed
        separately on the same inputs; `name` keeps the remainder."""
        record = self.ops[-1]
        for part, seconds in parts.items():
            record[part] += seconds
            record[name] -= seconds


def batch_indices(cfg, step: int, n: int) -> np.ndarray:
    """The utterances `train` and `finetune` draw for `step`."""
    rng = seeded_rng(cfg.seed, _BATCH_STREAM, step)
    return np.sort(rng.choice(n, size=min(cfg.batch_size, n), replace=False))


def mask_rng(cfg, idx: int, step: int) -> np.random.Generator:
    return seeded_rng(cfg.seed, _MASK_STREAM, idx, step)


def attention_cells(encoder, frames: int) -> tuple[int, int]:
    """(score cells computed, cells inside the attention band) per forward."""
    blocks = sum(block.attention is not None for block in encoder.blocks)
    w = encoder.attn_window
    if w <= 0:
        band = frames * frames
    else:
        i = np.arange(frames)
        band = int((np.minimum(i + w, frames - 1) - np.maximum(i - w, 0) + 1).sum())
    return blocks * frames * frames, blocks * band


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def _pretrain_utterance(tracer, model, cfg, utt, idx, step, alpha, pending):
    """pretrain_loss_and_grads, call by call."""
    frames = utt.features.shape[0]
    spec = tracer.call(
        "masking.sample_mask", sample_mask, frames, cfg.mask_p, cfg.mask_l,
        mask_rng(cfg, idx, step),
    )
    masked = tracer.call(
        "masking.apply_mask", apply_mask, utt.features, spec, model.encoder.mask_embedding
    )
    logits, cache = tracer.call("model.model_forward", model_forward, model, masked)
    log_probs = tracer.call("numerics.log_softmax", log_softmax, logits, axis=1)
    breakdown, dlogits = tracer.call(
        "objectives.joint_loss", joint_loss, log_probs, utt.noisy_ids, spec, alpha
    )
    grads = tracer.call(
        "model.model_backward", model_backward, model, cache, dlogits,
        masked_rows=np.flatnonzero(spec.frame_mask()),
    )
    pending.append((log_probs, utt.noisy_ids, spec, alpha))
    return breakdown.ce, breakdown.ctc, breakdown.combined, grads


def _finetune_utterance(tracer, model, utt, pending):
    """finetune_loss_and_grads, call by call."""
    logits, cache = tracer.call("model.model_forward", model_forward, model, utt.features)
    log_probs = tracer.call("numerics.log_softmax", log_softmax, logits, axis=1)
    target = tracer.call("targets.dedup", dedup, utt.true_ids)
    loss, dlogits = tracer.call("ctc.ctc_loss_and_grad", ctc_loss_and_grad, log_probs, target)
    tokens = max(1, target.size)
    grads = tracer.call(
        "model.model_backward", model_backward, model, cache, dlogits / tokens,
        masked_rows=None,
    )
    pending.append((log_probs.shape[0], target.size))
    loss /= tokens
    return 0.0, loss, loss, grads


def _account_pretrain_step(tracer, pending) -> None:
    """Split joint_loss into its parts, timed again on the op's own inputs,
    and count the work the op's inputs imply."""
    ce = ctc_total = seg = ctc = 0.0
    for log_probs, ids, spec, alpha in pending:
        ce += _timed(masked_ce_loss, log_probs, ids, spec)[0]
        ctc_total += _timed(masked_ctc_loss, log_probs, ids, spec)[0]
        seconds, targets = _timed(segment_targets, ids, spec)
        seg += seconds
        for (start, end), target in zip(spec.intervals, targets):
            ctc += _timed(ctc_loss_and_grad, log_probs[start:end], target)[0]
            tracer.count("ctc.lattice_cells", (end - start) * (2 * target.size + 1))
            tracer.maximum("ctc.max_frames", end - start)
        tracer.count("ctc.calls", len(targets))
        tracer.count("masking.regions", len(spec.intervals))
        tracer.count("masking.masked_frames", spec.masked_frames)
        tracer.count("targets.tokens", sum(t.size for t in targets))
        tracer.count("objectives.ce_grads", 1)
        tracer.count("objectives.ce_grads_useful", alpha < 1.0)
        tracer.count("objectives.ctc_grads", 1)
        tracer.count("objectives.ctc_grads_useful", alpha > 0.0)
    tracer.split(
        "objectives.joint_loss",
        {
            "objectives.masked_ce_loss": ce,
            "objectives.masked_ctc_loss": ctc_total - seg - ctc,
            "targets.segment_targets": seg,
            "ctc.ctc_loss_and_grad": ctc,
        },
    )


def _account_finetune_step(tracer, pending) -> None:
    for frames, tokens in pending:
        tracer.count("ctc.calls", 1)
        tracer.count("ctc.lattice_cells", frames * (2 * tokens + 1))
        tracer.maximum("ctc.max_frames", frames)
        tracer.count("objectives.ctc_grads", 1)
        tracer.count("objectives.ctc_grads_useful", 1)


def replay_training(kind: str, corpus, cfg, initial_model, tracer, deadline=None) -> list[tuple]:
    """One traced pass over the steps of `train` (kind "pretrain") or
    `finetune`, from a copy of `initial_model`; returns (ce, ctc, combined)
    per step, as StepMetrics would hold them. Stops early once
    time.perf_counter() passes `deadline`."""
    if kind == "finetune":
        cfg = replace(cfg, mode=TrainingMode(alpha=1.0, ce_warmup_steps=0))
    model = copy.deepcopy(initial_model)
    trainable = named_params(model)
    n = len(corpus.utterances)
    frames = corpus.utterances[0].features.shape[0]
    state = AdamState()
    losses = []

    def step_op(step, pending):
        indices = batch_indices(cfg, step, n)
        size = indices.size
        grad_total = {name: np.zeros_like(p) for name, p in trainable}
        ce_sum = ctc_sum = combined_sum = 0.0
        alpha = effective_alpha(step, cfg.mode)
        for idx in indices:
            utt = corpus.utterances[int(idx)]
            if kind == "pretrain":
                ce, ctc, combined, grads = _pretrain_utterance(
                    tracer, model, cfg, utt, int(idx), step, alpha, pending
                )
            else:
                ce, ctc, combined, grads = _finetune_utterance(tracer, model, utt, pending)
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
            raise NonFiniteLossError(step, combined_mean)
        if cfg.grad_clip > 0.0:
            _clip_grads(grad_total, cfg.grad_clip)
        hyper = AdamHyper(
            lr=learning_rate(step, cfg),
            beta1=cfg.adam_beta1,
            beta2=cfg.adam_beta2,
            eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay,
        )
        tracer.call("trainer.adam_step", adam_step, trainable, grad_total, state, hyper)
        return ce_mean, ctc_mean, combined_mean, size

    for step in range(cfg.steps):
        pending: list = []
        ce, ctc, combined, size = tracer.op(step_op, step, pending)
        if kind == "pretrain":
            _account_pretrain_step(tracer, pending)
        else:
            _account_finetune_step(tracer, pending)
        score, band = attention_cells(model.encoder, frames)
        tracer.count("model.attn_score_cells", size * score)
        tracer.count("model.attn_band_cells", size * band)
        losses.append((ce, ctc, combined))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    return losses


def _avg_posterior(tracer, model, utterances) -> float:
    """avg_posterior with noisy references, call by call."""
    total = 0.0
    frames = 0
    for utt in utterances:
        logits = tracer.call("model.model_forward", model_forward, model, utt.features)[0]
        log_probs = tracer.call("numerics.log_softmax", log_softmax, logits, axis=1)
        ref = utt.noisy_ids
        total += float(np.exp(log_probs[np.arange(ref.size), ref]).sum())
        frames += ref.size
    return total / frames


def replay_analyze(files: dict, tracer) -> list[float]:
    """One traced `cmd_analyze`; returns the six reported posterior figures
    in report.tsv order (ce clean, degraded, relative; then ctc).

    Like `cmd_analyze`, the op lets go of the models and corpora it loaded
    before it ends: what is still alive decides how much of the next op's
    memory the allocator must fault in again."""

    def analyze_op():
        ce_model = tracer.call("model.load_checkpoint", load_checkpoint, files["ce"])
        ctc_model = tracer.call("model.load_checkpoint", load_checkpoint, files["ctc"])
        clean = tracer.call("synthesis.load_corpus", load_corpus, files["clean"])
        jittered = tracer.call("synthesis.load_corpus", load_corpus, files["jittered"])
        reports = []
        for model in (ce_model, ctc_model):
            clean_prob = tracer.call(
                "analysis.avg_posterior", _avg_posterior, tracer, model, clean.utterances
            )
            degraded_prob = tracer.call(
                "analysis.avg_posterior", _avg_posterior, tracer, model, jittered.utterances
            )
            reports.append(degradation_report(clean_prob, degraded_prob))
        verdict = reports[1].relative_degradation < reports[0].relative_degradation
        out = Path(files["out"])
        (out / "report.txt").write_text(format_report(*reports, verdict))
        (out / "report.tsv").write_text(report_tsv(*reports, verdict))
        forwards = 2 * (len(clean.utterances) + len(jittered.utterances))
        score, band = attention_cells(ce_model.encoder, clean.utterances[0].features.shape[0])
        tracer.count("model.attn_score_cells", forwards * score)
        tracer.count("model.attn_band_cells", forwards * band)
        return reports

    reports = tracer.op(analyze_op)
    tracer.count("synthesis.corpus_bytes", sum(Path(files[k]).stat().st_size for k in ("clean", "jittered")))
    tracer.count("model.checkpoint_bytes", sum(Path(files[k]).stat().st_size for k in ("ce", "ctc")))
    return [
        value
        for r in reports
        for value in (r.clean_prob, r.degraded_prob, r.relative_degradation)
    ]
