from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segctc.analysis
from segctc import (
    CorpusConfig,
    DimensionMismatchError,
    EmptyDatasetError,
    avg_posterior,
    compare_models,
    degradation_report,
    eval_split,
    gen_corpus,
    init_model,
    seeded_rng,
)
from segctc.analysis import format_report, report_tsv

CFG = CorpusConfig(
    utterances=4, frames=30, vocab=5, feature_dim=4, sigma=0.3, seed=9
)


def make_model(seed=0, zero=False):
    model = init_model(
        feature_dim=4,
        model_dim=6,
        embed_dim=5,
        vocab=5,
        n_blocks=1,
        rng=seeded_rng(seed, 2),
        n_pos=4,
    )
    if zero:
        # zero weights and biases make every logit 0: a uniform model
        model.head.proj_weight[...] = 0.0
        model.head.proj_bias[...] = 0.0
    return model


class TestAvgPosterior:
    def test_uniform_model_value(self):
        corpus = gen_corpus(CFG)
        value = avg_posterior(make_model(zero=True), corpus.utterances)
        assert value == pytest.approx(1.0 / (CFG.vocab + 1), abs=1e-12)

    def test_within_unit_interval(self):
        corpus = gen_corpus(CFG)
        value = avg_posterior(make_model(), corpus.utterances)
        assert 0.0 <= value <= 1.0

    def test_deterministic(self):
        corpus = gen_corpus(CFG)
        model = make_model()
        assert avg_posterior(model, corpus.utterances) == avg_posterior(
            model, corpus.utterances
        )

    def test_reference_selection(self):
        corpus = gen_corpus(CFG)
        model = make_model(seed=4)
        noisy = avg_posterior(model, corpus.utterances, refs="noisy")
        true = avg_posterior(model, corpus.utterances, refs="true")
        assert noisy != true  # jitter is on in CFG, so the refs differ

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            avg_posterior(make_model(), [])

    def test_bad_refs_argument(self):
        corpus = gen_corpus(CFG)
        with pytest.raises(ValueError):
            avg_posterior(make_model(), corpus.utterances, refs="wat")

    @pytest.mark.parametrize("bad_id", [CFG.vocab, CFG.vocab + 3, -1])
    def test_reference_outside_model_vocab(self, bad_id):
        # id V is the blank column and -1 would index it from the end: both
        # must be refused, not scored
        clean, jittered = eval_split(CFG, 4)
        utts = list(jittered.utterances)
        noisy = utts[2].noisy_ids.copy()
        noisy[-1] = bad_id
        utts[2] = replace(utts[2], noisy_ids=noisy)
        with pytest.raises(DimensionMismatchError):
            avg_posterior(make_model(), utts)
        with pytest.raises(DimensionMismatchError):
            compare_models(make_model(), make_model(seed=1), clean.utterances, utts)


class TestDegradationReport:
    def test_reference_pair_values(self):
        # figures reported for one CTC/CE posterior comparison; the ratios
        # follow the definition exactly
        report = degradation_report(0.8270, 0.8025)
        assert report.relative_degradation == pytest.approx(
            (0.8270 - 0.8025) / 0.8270, abs=1e-15
        )
        assert report.relative_degradation == pytest.approx(0.02963, abs=5e-5)
        report = degradation_report(0.5886, 0.5712)
        assert report.relative_degradation == pytest.approx(
            (0.5886 - 0.5712) / 0.5886, abs=1e-15
        )
        assert report.relative_degradation == pytest.approx(0.02956, abs=5e-5)

    def test_equal_inputs_zero(self):
        assert degradation_report(0.5, 0.5).relative_degradation == 0.0

    def test_zero_clean_probability(self):
        with pytest.raises(ZeroDivisionError):
            degradation_report(0.0, 0.1)

    def test_swap_antisymmetry_scaled_by_denominator_ratio(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a, b = rng.uniform(0.05, 1.0, size=2)
            fwd = degradation_report(a, b).relative_degradation
            rev = degradation_report(b, a).relative_degradation
            assert rev == pytest.approx(-fwd * (a / b), abs=1e-12)


class TestCompareModels:
    def test_identical_models_verdict_false(self):
        clean, jittered = eval_split(CFG, 4)
        model = make_model(seed=5)
        ce_report, ctc_report, verdict = compare_models(
            model, model, clean.utterances, jittered.utterances
        )
        assert ce_report == ctc_report
        assert verdict is False

    def test_verdict_tracks_degradation_order(self):
        clean, jittered = eval_split(CFG, 4)
        a = make_model(seed=6)
        b = make_model(seed=7)
        ce_report, ctc_report, verdict = compare_models(
            a, b, clean.utterances, jittered.utterances
        )
        assert verdict == (
            ctc_report.relative_degradation < ce_report.relative_degradation
        )

    def test_report_formats(self):
        clean, jittered = eval_split(CFG, 4)
        ce_report, ctc_report, verdict = compare_models(
            make_model(seed=6), make_model(seed=7), clean.utterances, jittered.utterances
        )
        text = format_report(ce_report, ctc_report, verdict)
        assert "frame-weighted" in text.splitlines()[0]
        assert "ce_relative_degradation:" in text
        tsv = report_tsv(ce_report, ctc_report, verdict)
        header, ce_row, ctc_row, verdict_row = tsv.strip().split("\n")
        assert header.split("\t") == [
            "model",
            "clean_prob",
            "degraded_prob",
            "relative_degradation",
        ]
        assert ce_row.startswith("ce\t")
        assert ctc_row.startswith("ctc\t")
        assert verdict_row.startswith("verdict\t")


def four_passes(ce_model, ctc_model, clean, jittered):
    """compare_models as one avg_posterior call per (model, reference set)."""
    reports = [
        degradation_report(avg_posterior(model, clean), avg_posterior(model, jittered))
        for model in (ce_model, ctc_model)
    ]
    return (*reports, reports[1].relative_degradation < reports[0].relative_degradation)


@st.composite
def analysis_cases(draw):
    """A small eval_split pair and two models, one seed apart."""
    vocab = draw(st.integers(2, 6))
    feature_dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    cfg = CorpusConfig(
        utterances=1,
        frames=draw(st.integers(1, 24)),
        vocab=vocab,
        feature_dim=feature_dim,
        sigma=0.3,
        seed=seed,
    )
    clean, jittered = eval_split(cfg, draw(st.integers(2, 4)))
    shape = dict(
        feature_dim=feature_dim,
        model_dim=6,
        embed_dim=5,
        vocab=vocab,
        n_blocks=draw(st.integers(1, 2)),
        nonlin=draw(st.sampled_from(["tanh", "relu"])),
        n_pos=4,
        attn_window=draw(st.sampled_from([0, 1, 3])),
    )
    models = [init_model(rng=seeded_rng(seed + k, 2), **shape) for k in (0, 1)]
    return models, clean.utterances, jittered.utterances


def perturbed(utterances, index=0):
    """The same utterances with one utterance's features shifted."""
    utts = list(utterances)
    utts[index] = replace(utts[index], features=utts[index].features + 1.0)
    return utts


class TestSharedForward:
    @settings(max_examples=40, deadline=None)
    @given(analysis_cases())
    def test_shared_pair_equals_four_passes(self, case):
        (ce, ctc), clean, jittered = case
        assert compare_models(ce, ctc, clean, jittered) == four_passes(ce, ctc, clean, jittered)

    @settings(max_examples=20, deadline=None)
    @given(analysis_cases())
    def test_fallback_equals_two_passes(self, case):
        (ce, ctc), clean, jittered = case
        for other in (perturbed(jittered, index=len(jittered) - 1), jittered[:-1]):
            assert compare_models(ce, ctc, clean, other) == four_passes(ce, ctc, clean, other)

    def test_forward_count(self, monkeypatch):
        calls = Counter()
        forward = segctc.analysis.model_logits

        def counting(model, features):
            calls[id(model)] += 1
            return forward(model, features)

        monkeypatch.setattr(segctc.analysis, "model_logits", counting)
        clean, jittered = eval_split(CFG, 4)
        ce, ctc = make_model(seed=6), make_model(seed=7)
        n = len(clean.utterances)
        compare_models(ce, ctc, clean.utterances, jittered.utterances)
        assert calls == {id(ce): n, id(ctc): n}
        calls.clear()
        compare_models(ce, ctc, clean.utterances, perturbed(jittered.utterances))
        assert calls == {id(ce): 2 * n, id(ctc): 2 * n}
