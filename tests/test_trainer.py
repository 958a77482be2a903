import dataclasses

import numpy as np
import pytest

from segctc import (
    AdamHyper,
    AdamState,
    ConfigError,
    CorpusConfig,
    NonFiniteLossError,
    ShapeMismatchError,
    StepMetrics,
    TrainConfig,
    TrainingMode,
    adam_step,
    finetune,
    finetune_loss_and_grads,
    format_metrics,
    gen_corpus,
    init_finetune_head,
    init_model,
    learning_rate,
    load_checkpoint,
    named_params,
    pretrain_loss_and_grads,
    sample_mask,
    seeded_rng,
    train,
)
from segctc.model import Model, _band_pad, _position_table
from segctc.trainer import _BATCH_STREAM, _MASK_STREAM

TINY_CORPUS_CFG = CorpusConfig(
    utterances=6, frames=24, vocab=4, feature_dim=3, self_loop=0.8, sigma=0.3, seed=5
)


def tiny_model(seed=0):
    return init_model(
        feature_dim=3,
        model_dim=6,
        embed_dim=4,
        vocab=4,
        n_blocks=1,
        rng=seeded_rng(seed, 2),
        attention=True,
        attn_window=4,
        n_pos=4,
    )


def tiny_train_config(**kwargs):
    defaults = dict(
        steps=5,
        batch_size=3,
        lr_peak=1e-3,
        lr_warmup_steps=2,
        mask_p=0.15,
        mask_l=4,
        mode=TrainingMode(alpha=0.5),
        seed=0,
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestAdamStep:
    def _single(self, grad, lr=0.1, weight_decay=0.0, start=1.0):
        p = np.array([start])
        params = [("p", p)]
        state = AdamState()
        hyper = AdamHyper(lr=lr, weight_decay=weight_decay)
        adam_step(params, {"p": np.array([grad])}, state, hyper)
        return p[0]

    def test_zero_gradient_zero_decay_leaves_params(self):
        assert self._single(0.0) == 1.0

    def test_first_step_is_signlike(self):
        # from zero state, bias correction makes the update -lr * g / (|g| + eps)
        hyper = AdamHyper(lr=0.1, weight_decay=0.0)
        for g in (0.5, -2.0, 3.7):
            got = self._single(g, lr=hyper.lr)
            expected = 1.0 - hyper.lr * g / (abs(g) + hyper.eps)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_decay_only_shrinks_by_factor(self):
        got = self._single(0.0, lr=0.1, weight_decay=0.5)
        assert got == pytest.approx(1.0 * (1.0 - 0.1 * 0.5), abs=1e-15)

    def test_shape_mismatch(self):
        p = np.zeros((2, 2))
        with pytest.raises(ShapeMismatchError):
            adam_step([("p", p)], {"p": np.zeros(3)}, AdamState(), AdamHyper(lr=0.1))

    def test_two_steps_track_reference_formula(self):
        # independent oracle: textbook update applied step by step
        rng = np.random.default_rng(0)
        p = rng.normal(size=4)
        grads = [rng.normal(size=4), rng.normal(size=4)]
        hyper = AdamHyper(lr=0.01, beta1=0.9, beta2=0.98, eps=1e-8, weight_decay=0.01)

        ref = p.copy()
        m = np.zeros(4)
        v = np.zeros(4)
        for t, g in enumerate(grads, start=1):
            m = hyper.beta1 * m + (1 - hyper.beta1) * g
            v = hyper.beta2 * v + (1 - hyper.beta2) * g * g
            m_hat = m / (1 - hyper.beta1**t)
            v_hat = v / (1 - hyper.beta2**t)
            ref = ref - hyper.lr * m_hat / (np.sqrt(v_hat) + hyper.eps)
            ref = ref - hyper.lr * hyper.weight_decay * ref

        params = [("p", p)]
        state = AdamState()
        for g in grads:
            adam_step(params, {"p": g}, state, hyper)
        np.testing.assert_allclose(p, ref, atol=1e-12)


class TestTrainConfig:
    def test_invalid_counts_rejected(self):
        with pytest.raises(ConfigError):
            tiny_train_config(steps=-1)
        with pytest.raises(ConfigError):
            tiny_train_config(batch_size=0)
        with pytest.raises(ConfigError):
            tiny_train_config(lr_peak=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("adam_beta1", 1.5),
            ("adam_beta2", 1.0),
            ("adam_eps", 0.0),
            ("weight_decay", -0.1),
            ("grad_clip", -1.0),
            ("mask_p", 2.0),
            ("mask_l", 0),
            ("lr_peak", float("nan")),
        ],
    )
    def test_out_of_range_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            tiny_train_config(**{field: value})


class TestLearningRate:
    def test_warmup_ramp_and_decay(self):
        cfg = tiny_train_config(steps=100, lr_warmup_steps=10, lr_peak=1.0)
        assert learning_rate(0, cfg) == pytest.approx(0.1)
        assert learning_rate(9, cfg) == pytest.approx(1.0)
        assert learning_rate(10, cfg) == pytest.approx(1.0)
        assert learning_rate(55, cfg) == pytest.approx(0.5)
        assert learning_rate(99, cfg) < 0.02

    def test_no_warmup_starts_at_peak(self):
        cfg = tiny_train_config(steps=10, lr_warmup_steps=0, lr_peak=2.0)
        assert learning_rate(0, cfg) == pytest.approx(2.0)


class TestTrain:
    def test_zero_steps_leaves_model_at_init(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        model = tiny_model()
        before = [p.copy() for _, p in named_params(model)]
        train(corpus, tiny_train_config(steps=0), model)
        for (_, p), b in zip(named_params(model), before):
            np.testing.assert_array_equal(p, b)

    def test_metrics_one_line_per_step(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        _, metrics = train(corpus, tiny_train_config(steps=4), tiny_model())
        assert [m.step for m in metrics] == [0, 1, 2, 3]

    def test_deterministic_logs_and_checkpoints(self, tmp_path):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        paths = []
        for tag in ("a", "b"):
            log = tmp_path / f"{tag}.tsv"
            ckpt = tmp_path / f"{tag}.bin"
            train(
                corpus,
                tiny_train_config(steps=6),
                tiny_model(seed=3),
                log_path=log,
                checkpoint_path=ckpt,
            )
            paths.append((log.read_bytes(), ckpt.read_bytes()))
        assert paths[0] == paths[1]

    def test_warmup_logged_alpha(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=6, mode=TrainingMode(alpha=1.0, ce_warmup_steps=3))
        _, metrics = train(corpus, cfg, tiny_model())
        assert [m.alpha for m in metrics] == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_empty_corpus_rejected(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        corpus.utterances.clear()
        with pytest.raises(ConfigError):
            train(corpus, tiny_train_config(), tiny_model())

    def test_non_finite_loss_reports_step(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        corpus.utterances[0].features[0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as exc_info:
            train(corpus, tiny_train_config(steps=50, batch_size=6), tiny_model())
        assert exc_info.value.step == 0
        assert exc_info.value.utterance == 0
        assert exc_info.value.term == "grad"
        assert "utterance 0" in str(exc_info.value)

    def test_non_finite_frame_scored_by_ce_reports_ce(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=5, batch_size=6)
        model = tiny_model()
        utt = corpus.utterances[1]
        frames = utt.features.shape[0]
        mask_rng = seeded_rng(cfg.seed, _MASK_STREAM, 1, 0)
        masked = sample_mask(frames, cfg.mask_p, cfg.mask_l, mask_rng).frame_mask()
        w = model.encoder.attn_window
        # an unmasked frame that a masked (CE-scored) frame attends to
        near = [
            j for j in range(frames) if not masked[j] and masked[max(0, j - w) : j + w + 1].any()
        ]
        assert near
        utt.features[near[0], 0] = np.nan
        with pytest.raises(NonFiniteLossError) as exc_info:
            train(corpus, cfg, model)
        assert (exc_info.value.step, exc_info.value.utterance) == (0, 1)
        assert exc_info.value.term == "ce"

    def test_non_finite_ctc_term_reported(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        corpus.utterances[2].features[:] = np.nan
        cfg = tiny_train_config(steps=5, batch_size=6, mode=TrainingMode(alpha=1.0))
        with pytest.raises(NonFiniteLossError) as exc_info:
            train(corpus, cfg, tiny_model())
        assert (exc_info.value.step, exc_info.value.utterance) == (0, 2)
        assert exc_info.value.term == "ctc"

    def test_grad_clip_changes_trajectory(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        _, m1 = train(corpus, tiny_train_config(steps=3), tiny_model(seed=7))
        _, m2 = train(
            corpus, tiny_train_config(steps=3, grad_clip=1e-4), tiny_model(seed=7)
        )
        assert m1[0].combined == m2[0].combined
        assert m1[1].combined != m2[1].combined

    def test_format_metrics_shape(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        _, metrics = train(corpus, tiny_train_config(steps=2), tiny_model())
        text = format_metrics(metrics)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert all(len(line.split("\t")) == 5 for line in lines)


def per_utterance_run(corpus, cfg, model, loss_and_grads):
    """The optimizer loop of train/finetune with one loss call per utterance:
    `loss_and_grads(idx, step, alpha)` returns (ce, ctc, combined, grads)."""
    trainable = named_params(model)
    state = AdamState()
    metrics = []
    n = len(corpus.utterances)
    for step in range(cfg.steps):
        rng = seeded_rng(cfg.seed, _BATCH_STREAM, step)
        indices = np.sort(rng.choice(n, size=min(cfg.batch_size, n), replace=False))
        alpha = cfg.mode.alpha if step >= cfg.mode.ce_warmup_steps else 0.0
        total = {name: np.zeros_like(p) for name, p in trainable}
        ce_sum = ctc_sum = combined_sum = 0.0
        for idx in indices:
            ce, ctc, combined, grads = loss_and_grads(int(idx), step, alpha)
            ce_sum += ce
            ctc_sum += ctc
            combined_sum += combined
            for name in total:
                total[name] += grads[name]
        for name in total:
            total[name] /= indices.size
        hyper = AdamHyper(
            lr=learning_rate(step, cfg),
            beta1=cfg.adam_beta1,
            beta2=cfg.adam_beta2,
            eps=cfg.adam_eps,
            weight_decay=cfg.weight_decay,
        )
        adam_step(trainable, total, state, hyper)
        size = indices.size
        metrics.append(
            StepMetrics(step, ce_sum / size, ctc_sum / size, combined_sum / size, alpha)
        )
    return metrics


class TestBatchedStep:
    """train/finetune compute a whole batch per step; the result must equal a
    loop over the single-utterance loss functions with the same seeds."""

    @pytest.mark.parametrize("mode", [TrainingMode(alpha=0.5), TrainingMode(1.0, 2)])
    def test_pretrain_equals_per_utterance_loop(self, mode):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=5, batch_size=4, mode=mode)
        loop_model = tiny_model(seed=4)

        def loss_and_grads(idx, step, alpha):
            utt = corpus.utterances[idx]
            rng = seeded_rng(cfg.seed, _MASK_STREAM, idx, step)
            spec = sample_mask(utt.features.shape[0], cfg.mask_p, cfg.mask_l, rng)
            b, grads = pretrain_loss_and_grads(
                loop_model, utt.features, utt.noisy_ids, spec, alpha
            )
            return b.ce, b.ctc, b.combined, grads

        expected = per_utterance_run(corpus, cfg, loop_model, loss_and_grads)
        model, metrics = train(corpus, cfg, tiny_model(seed=4))
        assert metrics == expected
        for (_, got), (_, want) in zip(named_params(model), named_params(loop_model)):
            np.testing.assert_array_equal(got, want)

    def test_finetune_equals_per_utterance_loop(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=4, batch_size=4, mode=TrainingMode(alpha=1.0))

        def fresh():
            head = init_finetune_head(None, vocab=4, model_dim=6, rng=seeded_rng(13))
            return Model(encoder=tiny_model(seed=5).encoder, head=head)

        loop_model = fresh()

        def loss_and_grads(idx, step, alpha):
            utt = corpus.utterances[idx]
            loss, grads = finetune_loss_and_grads(loop_model, utt.features, utt.true_ids)
            return 0.0, loss, loss, grads

        expected = per_utterance_run(corpus, cfg, loop_model, loss_and_grads)
        model, metrics = finetune(corpus, cfg, fresh())
        assert metrics == expected
        for (_, got), (_, want) in zip(named_params(model), named_params(loop_model)):
            np.testing.assert_array_equal(got, want)


class TestMixedLengths:
    def test_equals_loop_and_caches_once_per_length(self):
        """Utterances of different lengths draw a new set of lengths almost
        every step. The packed step still equals the per-utterance loop, and
        the position tables and band pads stay cached once per utterance
        length, not once per batch."""
        base = gen_corpus(dataclasses.replace(TINY_CORPUS_CFG, utterances=10))
        lengths = [6, 8, 10, 12, 14, 16, 18, 20, 22, 24]
        corpus = dataclasses.replace(
            base,
            utterances=[
                dataclasses.replace(
                    utt,
                    features=utt.features[:frames],
                    true_ids=utt.true_ids[:frames],
                    noisy_ids=utt.noisy_ids[:frames],
                )
                for utt, frames in zip(base.utterances, lengths)
            ],
        )
        cfg = tiny_train_config(steps=20, batch_size=3)
        loop_model = tiny_model(seed=6)

        def loss_and_grads(idx, step, alpha):
            utt = corpus.utterances[idx]
            rng = seeded_rng(cfg.seed, _MASK_STREAM, idx, step)
            spec = sample_mask(utt.features.shape[0], cfg.mask_p, cfg.mask_l, rng)
            b, grads = pretrain_loss_and_grads(
                loop_model, utt.features, utt.noisy_ids, spec, alpha
            )
            return b.ce, b.ctc, b.combined, grads

        expected = per_utterance_run(corpus, cfg, loop_model, loss_and_grads)
        _position_table.cache_clear()
        _band_pad.cache_clear()
        model, metrics = train(corpus, cfg, tiny_model(seed=6))
        assert metrics == expected
        for (_, got), (_, want) in zip(named_params(model), named_params(loop_model)):
            np.testing.assert_array_equal(got, want)
        assert _position_table.cache_info().currsize <= len(lengths)
        assert _band_pad.cache_info().currsize <= len(lengths)


class TestFinetune:
    def _pretrained(self, tmp_path):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        model = tiny_model(seed=1)
        path = tmp_path / "pre.bin"
        train(corpus, tiny_train_config(steps=3), model, checkpoint_path=path)
        return corpus, load_checkpoint(path)

    def test_runs_and_logs_ctc_loss(self, tmp_path):
        corpus, pre = self._pretrained(tmp_path)
        head = init_finetune_head(None, vocab=corpus.vocab, model_dim=6, rng=seeded_rng(8))
        model = Model(encoder=pre.encoder, head=head)
        _, metrics = finetune(corpus, tiny_train_config(steps=4), model)
        assert all(m.ce == 0.0 and m.alpha == 1.0 for m in metrics)
        assert all(np.isfinite(m.ctc) for m in metrics)

    def test_freeze_encoder_keeps_encoder_params(self, tmp_path):
        corpus, pre = self._pretrained(tmp_path)
        head = init_finetune_head(None, vocab=corpus.vocab, model_dim=6, rng=seeded_rng(9))
        model = Model(encoder=pre.encoder, head=head)
        encoder_before = [
            p.copy() for name, p in named_params(model) if name.startswith("encoder.")
        ]
        head_before = model.head.weight.copy()
        finetune(corpus, tiny_train_config(steps=3), model, freeze_encoder=True)
        encoder_after = [
            p for name, p in named_params(model) if name.startswith("encoder.")
        ]
        for before, after in zip(encoder_before, encoder_after):
            np.testing.assert_array_equal(before, after)
        assert not np.array_equal(head_before, model.head.weight)

    def test_unfrozen_encoder_moves(self, tmp_path):
        corpus, pre = self._pretrained(tmp_path)
        head = init_finetune_head(None, vocab=corpus.vocab, model_dim=6, rng=seeded_rng(10))
        model = Model(encoder=pre.encoder, head=head)
        weight_before = model.encoder.input_weight.copy()
        finetune(corpus, tiny_train_config(steps=3), model)
        assert not np.array_equal(weight_before, model.encoder.input_weight)

    def test_smaller_vocab_finetune_runs(self, tmp_path):
        corpus, pre = self._pretrained(tmp_path)
        remapped = dataclasses.replace(TINY_CORPUS_CFG, vocab=3, seed=6)
        small = gen_corpus(remapped)
        head = init_finetune_head(None, vocab=3, model_dim=6, rng=seeded_rng(11))
        model = Model(encoder=pre.encoder, head=head)
        _, metrics = finetune(small, tiny_train_config(steps=2), model)
        assert len(metrics) == 2

    def test_checkpoint_written(self, tmp_path):
        corpus, pre = self._pretrained(tmp_path)
        head = init_finetune_head(None, vocab=corpus.vocab, model_dim=6, rng=seeded_rng(12))
        model = Model(encoder=pre.encoder, head=head)
        out = tmp_path / "ft.bin"
        finetune(corpus, tiny_train_config(steps=2), model, checkpoint_path=out)
        loaded = load_checkpoint(out)
        np.testing.assert_array_equal(
            loaded.head.weight, model.head.weight.astype(np.float32)
        )
