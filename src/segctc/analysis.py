"""Posterior-quality evaluation: average reference-label probability on
unmasked inputs, and the relative degradation between a clean and a
misaligned reference set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyDatasetError
from .model import Model, model_logits
from .numerics import log_softmax


@dataclass(frozen=True)
class PosteriorReport:
    clean_prob: float
    degraded_prob: float
    relative_degradation: float


def _avg_posteriors(model: Model, features, ref_sets) -> list[float]:
    """Frame-weighted mean reference-id probability for each reference set.

    `ref_sets` holds one list of per-utterance id arrays per set, each aligned
    with `features`. Every utterance runs through the model once and every
    set is scored against the same log-probabilities, so one forward serves
    all sets; only one utterance's log-probabilities are held at a time.
    """
    if not features:
        raise EmptyDatasetError("no utterances to evaluate")
    vocab = model.head.vocab
    for refs in ref_sets:
        ids = np.concatenate(refs)
        if ids.min() < 0 or ids.max() >= vocab:
            raise DimensionMismatchError(
                f"reference ids span [{ids.min()}, {ids.max()}], outside the "
                f"model's label range [0, {vocab})"
            )
    totals = [0.0] * len(ref_sets)
    frames = [0] * len(ref_sets)
    for i, feats in enumerate(features):
        log_probs = log_softmax(model_logits(model, feats), axis=1)
        for j, refs in enumerate(ref_sets):
            ref = refs[i]
            totals[j] += float(np.exp(log_probs[np.arange(ref.size), ref]).sum())
            frames[j] += ref.size
    return [total / count for total, count in zip(totals, frames)]


def avg_posterior(model: Model, utterances, refs: str = "noisy") -> float:
    """Frame-weighted mean probability assigned to each frame's reference id.

    The model runs on unmasked inputs. References are the utterances' noisy
    ids by default ("true" selects the ground-truth ids); blank is never a
    reference but stays in the softmax normalization. A reference id outside
    [0, V) of the model raises DimensionMismatchError.
    """
    if refs not in ("noisy", "true"):
        raise ValueError(f"refs must be 'noisy' or 'true', got {refs!r}")
    utterances = list(utterances)
    ids = [utt.noisy_ids if refs == "noisy" else utt.true_ids for utt in utterances]
    return _avg_posteriors(model, [utt.features for utt in utterances], [ids])[0]


def degradation_report(clean_prob: float, degraded_prob: float) -> PosteriorReport:
    """Relative degradation (clean - degraded) / clean."""
    if clean_prob == 0.0:
        raise ZeroDivisionError("clean probability is zero")
    rel = (clean_prob - degraded_prob) / clean_prob
    return PosteriorReport(clean_prob, degraded_prob, rel)


def compare_models(
    ce_model: Model, ctc_model: Model, clean_utterances, jittered_utterances
) -> tuple[PosteriorReport, PosteriorReport, bool]:
    """Posterior degradation of both models on the same clean/misaligned pair.

    Both sets are scored against their noisy ids. When the two lists hold
    the same number of utterances and every pair's features are equal (as
    `eval_split` makes them), each model runs once per utterance and both
    reference sets are scored against that one forward; otherwise each set
    gets its own pass. Both routes give the same figures bit for bit. A
    reference id outside [0, V) of either model raises
    DimensionMismatchError. The verdict is True when the CTC-trained model
    degrades strictly less.
    """
    clean = list(clean_utterances)
    jittered = list(jittered_utterances)
    shared = len(clean) == len(jittered) and all(
        np.array_equal(a.features, b.features) for a, b in zip(clean, jittered)
    )
    reports = []
    for model in (ce_model, ctc_model):
        if shared:
            clean_prob, degraded_prob = _avg_posteriors(
                model,
                [utt.features for utt in clean],
                [[utt.noisy_ids for utt in clean], [utt.noisy_ids for utt in jittered]],
            )
        else:
            clean_prob = avg_posterior(model, clean)
            degraded_prob = avg_posterior(model, jittered)
        reports.append(degradation_report(clean_prob, degraded_prob))
    ce_report, ctc_report = reports
    verdict = ctc_report.relative_degradation < ce_report.relative_degradation
    return ce_report, ctc_report, verdict


def format_report(ce_report, ctc_report, verdict) -> str:
    """Human-readable key: value report."""
    lines = [
        "# posterior averages are frame-weighted over all evaluation frames",
        f"ce_clean_prob: {ce_report.clean_prob:.6f}",
        f"ce_degraded_prob: {ce_report.degraded_prob:.6f}",
        f"ce_relative_degradation: {ce_report.relative_degradation:.6f}",
        f"ctc_clean_prob: {ctc_report.clean_prob:.6f}",
        f"ctc_degraded_prob: {ctc_report.degraded_prob:.6f}",
        f"ctc_relative_degradation: {ctc_report.relative_degradation:.6f}",
        f"ctc_degrades_less: {str(verdict).lower()}",
    ]
    return "\n".join(lines) + "\n"


def report_tsv(ce_report, ctc_report, verdict) -> str:
    """Machine-readable summary: one row per model."""
    lines = [
        "model\tclean_prob\tdegraded_prob\trelative_degradation",
        f"ce\t{ce_report.clean_prob:.10g}\t{ce_report.degraded_prob:.10g}"
        f"\t{ce_report.relative_degradation:.10g}",
        f"ctc\t{ctc_report.clean_prob:.10g}\t{ctc_report.degraded_prob:.10g}"
        f"\t{ctc_report.relative_degradation:.10g}",
        f"verdict\t{str(verdict).lower()}\t\t",
    ]
    return "\n".join(lines) + "\n"
