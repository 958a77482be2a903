"""Posterior-quality evaluation: average reference-label probability on
unmasked inputs, and the relative degradation between a clean and a
misaligned reference set.

The models run forward only, in packs, through `pack_logits`: the encoder
forward of training without its backward record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EmptyDatasetError, ZeroProbabilityError
from .model import Model, pack_logits
from .numerics import log_softmax

# Utterances per analysis forward: `cmd_analyze` took 55-68 ms at 8, 78-93 at 1, 77-117 at 32-100
# with the backward record; without it, 4, 16 and 25 took 1.00, 1.02 and 1.15 times as long as 8.
PACK_SIZE = 8


@dataclass(frozen=True)
class PosteriorReport:
    clean_prob: float
    degraded_prob: float
    relative_degradation: float


def _avg_posteriors(model: Model, features, ref_sets) -> list[float]:
    """Frame-weighted mean reference-id probability for each reference set.

    `ref_sets` holds one list of per-utterance id arrays per set, each aligned
    with `features`: one id per frame, or DimensionMismatchError names the
    utterance before any forward runs. The utterances run through the model
    once, in consecutive packs of PACK_SIZE, each one pack_logits (no backward
    record) and one log_softmax, and every set is scored against the same
    log-probabilities, so one forward serves all sets; only one pack's
    log-probabilities are held at a time. Each set's references are gathered
    once per pack; each utterance's probabilities are summed over its own
    rows, and the sums added in utterance order.
    """
    if not features:
        raise EmptyDatasetError("no utterances to evaluate")
    vocab = model.head.vocab
    joined = []
    for refs in ref_sets:
        for i, (x, ref) in enumerate(zip(features, refs)):
            if len(ref) != len(x):
                raise DimensionMismatchError(
                    f"utterance {i} has {len(x)} frames but {len(ref)} reference ids"
                )
        ids = np.concatenate(refs)
        if ids.min() < 0 or ids.max() >= vocab:
            raise DimensionMismatchError(
                f"reference ids span [{ids.min()}, {ids.max()}], outside the "
                f"model's label range [0, {vocab})"
            )
        joined.append(ids)
    totals = [0.0] * len(ref_sets)
    first = 0  # the pack's first row in `joined`
    for start in range(0, len(features), PACK_SIZE):
        logits, slices = pack_logits(model, features[start : start + PACK_SIZE])
        log_probs = log_softmax(logits, axis=1)
        rows = np.arange(log_probs.shape[0])
        for j, ids in enumerate(joined):
            probs = np.exp(log_probs[rows, ids[first : first + rows.size]])
            for s in slices:
                totals[j] += float(probs[s].sum())
        first += rows.size
    return [total / ids.size for total, ids in zip(totals, joined)]


def avg_posterior(model: Model, utterances) -> float:
    """Frame-weighted mean probability assigned to each frame's noisy id.

    The model runs on unmasked inputs; blank is never a reference but stays
    in the softmax normalization. To score against the ground-truth ids, pass
    `clean_references(corpus).utterances`. A reference id outside [0, V) of
    the model, or an utterance whose references do not number its frames,
    raises DimensionMismatchError.
    """
    utterances = list(utterances)
    features = [utt.features for utt in utterances]
    return _avg_posteriors(model, features, [[utt.noisy_ids for utt in utterances]])[0]


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

    The two sets must be the same utterances, as `eval_split` makes them: the
    same number, and each pair's features equal; otherwise
    DimensionMismatchError names the counts or the first utterance that
    differs, before any forward runs. Both sets are scored against their noisy
    ids, and each model runs once per utterance, that one forward serving both
    reference sets. A reference id outside [0, V) of either model, or an
    utterance whose references do not number its frames, raises
    DimensionMismatchError; a model whose clean probability is zero or not a
    number raises ZeroProbabilityError. The verdict is True when the
    CTC-trained model degrades strictly less.
    """
    clean = list(clean_utterances)
    jittered = list(jittered_utterances)
    if len(clean) != len(jittered):
        raise DimensionMismatchError(f"{len(clean)} clean but {len(jittered)} jittered utterances")
    for i, (a, b) in enumerate(zip(clean, jittered)):
        if not np.array_equal(a.features, b.features):
            raise DimensionMismatchError(f"utterance {i}: clean and jittered features differ")
    features = [utt.features for utt in clean]
    ref_sets = [[utt.noisy_ids for utt in clean], [utt.noisy_ids for utt in jittered]]
    reports = []
    for name, model in (("ce", ce_model), ("ctc", ctc_model)):
        clean_prob, degraded_prob = _avg_posteriors(model, features, ref_sets)
        if not clean_prob > 0.0:  # NaN too: a NaN row is NaN under both reference sets
            raise ZeroProbabilityError(f"the {name} model's clean probability is {clean_prob}")
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
