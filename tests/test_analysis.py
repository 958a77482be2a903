import tracemalloc
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
    ZeroProbabilityError,
    avg_posterior,
    clean_references,
    compare_models,
    degradation_report,
    eval_split,
    gen_corpus,
    init_model,
    log_softmax,
    model_forward,
    seeded_rng,
)
from segctc.analysis import format_report, report_tsv
from segctc.model import pack_forward

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
        # clean_references scores the same frames against their true ids
        corpus = gen_corpus(CFG)
        model = make_model(seed=4)
        noisy = avg_posterior(model, corpus.utterances)
        true = avg_posterior(model, clean_references(corpus).utterances)
        assert noisy != true  # jitter is on in CFG, so the refs differ

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            avg_posterior(make_model(), [])

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

    @pytest.mark.parametrize("change", [-5, 3], ids=["short", "long"])
    def test_reference_not_covering_its_utterance(self, change, monkeypatch):
        # A pack gathers all its utterances' references at once, so a short
        # reference would shift every later utterance's; it is refused, named,
        # before any forward runs.
        clean, jittered = eval_split(CFG, 4)
        utts = list(jittered.utterances)
        noisy = utts[2].noisy_ids
        noisy = noisy[:change] if change < 0 else np.concatenate([noisy, noisy[:change]])
        utts[2] = replace(utts[2], noisy_ids=noisy)

        def no_forward(model, features):
            raise AssertionError("a forward ran")

        monkeypatch.setattr(segctc.analysis, "pack_logits", no_forward)
        with pytest.raises(DimensionMismatchError, match="utterance 2 "):
            avg_posterior(make_model(), utts)
        with pytest.raises(DimensionMismatchError, match="utterance 2 "):
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

    @pytest.mark.parametrize("name", ["ce", "ctc"])
    def test_non_finite_clean_probability(self, name):
        # A NaN weight makes every logit NaN, silently; the figure is refused
        # rather than reported as nan.
        clean, jittered = eval_split(CFG, 4)
        models = {"ce": make_model(seed=6), "ctc": make_model(seed=7)}
        models[name].encoder.input_weight[0, 0] = np.nan
        message = f"the {name} model's clean probability is nan"
        with pytest.raises(ZeroProbabilityError, match=message):
            compare_models(models["ce"], models["ctc"], clean.utterances, jittered.utterances)

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


def four_passes(ce_model, ctc_model, clean, jittered, posterior=avg_posterior):
    """compare_models as one `posterior` call per (model, reference set)."""
    reports = [
        degradation_report(posterior(model, clean), posterior(model, jittered))
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
    def test_unpaired_sets_rejected_before_any_forward(self, case):
        # The clean and jittered sets must be the same utterances: one fewer,
        # or the last one's features changed, is refused before a forward runs.
        (ce, ctc), clean, jittered = case

        def no_forward(model, features):
            raise AssertionError("a forward ran")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(segctc.analysis, "pack_logits", no_forward)
            with pytest.raises(DimensionMismatchError, match=f"utterance {len(clean) - 1}:"):
                compare_models(ce, ctc, clean, perturbed(jittered, index=len(jittered) - 1))
            with pytest.raises(DimensionMismatchError, match=f"{len(clean)} clean but "):
                compare_models(ce, ctc, clean, jittered[:-1])

    def test_forward_count(self, monkeypatch):
        forwarded = Counter()
        pack_sizes = []
        forward = segctc.analysis.pack_logits

        def counting(model, features):
            forwarded[id(model)] += len(features)
            pack_sizes.append(len(features))
            return forward(model, features)

        monkeypatch.setattr(segctc.analysis, "pack_logits", counting)
        clean, jittered = eval_split(CFG, 17)
        ce, ctc = make_model(seed=6), make_model(seed=7)
        n = len(clean.utterances)
        compare_models(ce, ctc, clean.utterances, jittered.utterances)
        assert forwarded == {id(ce): n, id(ctc): n}
        assert pack_sizes == [8, 8, 1] * 2
        forwarded.clear()
        pack_sizes.clear()
        with pytest.raises(DimensionMismatchError):
            compare_models(ce, ctc, clean.utterances, perturbed(jittered.utterances))
        assert forwarded == {}
        assert pack_sizes == []

    def test_keeps_no_backward_record(self):
        # A pack of 8 at the default shape. After the call pack_logits holds
        # its logits alone (0.14 MB) and pack_forward its logits and backward
        # record (2.6 MB); during the call they peak at 1.3 and 2.7 MB.
        model = init_model(
            feature_dim=16,
            model_dim=32,
            embed_dim=16,
            vocab=20,
            n_blocks=2,
            rng=seeded_rng(0, 2),
            nonlin="relu",
            n_pos=8,
            attn_window=3,
        )
        features = [seeded_rng(1, i).normal(size=(100, 16)) for i in range(8)]

        def traced(forward):
            """(bytes held after the call, peak bytes during it)"""
            forward(model, features)  # fills the per-length caches
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = forward(model, features)
                held, peak = (size - before for size in tracemalloc.get_traced_memory())
                del result
                return held, peak
            finally:
                tracemalloc.stop()

        held, peak = traced(segctc.analysis.pack_logits)
        record_held, record_peak = traced(pack_forward)
        assert held <= 0.15 * record_held
        assert peak <= 0.6 * record_peak


def loop_posterior(model, utterances):
    """avg_posterior as one model_forward (the training forward, which keeps
    the backward record) and one log_softmax per utterance."""
    total = 0.0
    frames = 0
    for utt in utterances:
        log_probs = log_softmax(model_forward(model, utt.features)[0], axis=1)
        ref = utt.noisy_ids
        total += float(np.exp(log_probs[np.arange(ref.size), ref]).sum())
        frames += ref.size
    return total / frames


def truncated(utterances, lengths):
    """Each utterance cut to its own number of frames."""
    return [
        replace(
            utt, features=utt.features[:n], true_ids=utt.true_ids[:n], noisy_ids=utt.noisy_ids[:n]
        )
        for utt, n in zip(utterances, lengths)
    ]


@st.composite
def packed_cases(draw):
    """Two models and an eval_split pair of 1-17 utterances of mixed lengths,
    so that packs are full, partial or both."""
    vocab = draw(st.integers(2, 6))
    feature_dim = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2**16))
    count = draw(st.sampled_from([1, 7, 8, 9, 16, 17]))
    cfg = CorpusConfig(
        utterances=1, frames=24, vocab=vocab, feature_dim=feature_dim, sigma=0.3, seed=seed
    )
    clean, jittered = eval_split(cfg, count)
    lengths = draw(st.lists(st.integers(1, 24), min_size=count, max_size=count))
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
    return models, truncated(clean.utterances, lengths), truncated(jittered.utterances, lengths)


def assert_reports_close(got, want):
    """Each model's probabilities within 1e-12 of the reference's. The
    relative degradation is a cancellation when the two probabilities nearly
    agree, so it must be exactly what `got`'s own probabilities give."""
    for a, b in zip(got[:2], want[:2]):
        for name in ("clean_prob", "degraded_prob"):
            assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-12, abs=0.0)
        assert a == degradation_report(a.clean_prob, a.degraded_prob)


class TestPackedForward:
    @settings(max_examples=40, deadline=None)
    @given(packed_cases())
    def test_equals_per_utterance_loop(self, case):
        (ce, ctc), clean, jittered = case
        for model in (ce, ctc):
            for utts in (clean, jittered):
                assert avg_posterior(model, utts) == pytest.approx(
                    loop_posterior(model, utts), rel=1e-12, abs=0.0
                )
        want = four_passes(ce, ctc, clean, jittered, posterior=loop_posterior)
        assert_reports_close(compare_models(ce, ctc, clean, jittered), want)

    def test_default_shape_is_bitwise_per_utterance_loop(self):
        # At T = 100 and d_model 32 every product of a pack runs on the same
        # BLAS kernel as its pack of one, so the figures match bit for bit.
        cfg = CorpusConfig(utterances=1, frames=100, vocab=20, feature_dim=16, seed=3)
        clean, jittered = eval_split(cfg, 20)
        ce, ctc = (
            init_model(
                feature_dim=16,
                model_dim=32,
                embed_dim=16,
                vocab=20,
                n_blocks=2,
                rng=seeded_rng(seed, 2),
                nonlin="relu",
                n_pos=8,
                attn_window=3,
            )
            for seed in (0, 1)
        )
        clean, jittered = clean.utterances, jittered.utterances
        assert avg_posterior(ce, jittered) == loop_posterior(ce, jittered)
        want = four_passes(ce, ctc, clean, jittered, posterior=loop_posterior)
        assert compare_models(ce, ctc, clean, jittered) == want
