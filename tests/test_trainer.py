import copy
import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segctc.masking
import segctc.model
import segctc.objectives
import segctc.trainer
from segctc import (
    AdamHyper,
    AdamState,
    ConfigError,
    CorpusConfig,
    DimensionMismatchError,
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
    save_checkpoint,
    seeded_rng,
    train,
)
from segctc.cli import ExperimentConfig
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


def reference_adam_step(params, grads, state, hyper):
    """adam_step as the loop over parameters, with per-name moments in
    `state` (a dict), that the flat update replaced; kept as its reference."""
    state["step"] = t = state.get("step", 0) + 1
    c1 = 1.0 - hyper.beta1**t
    c2 = 1.0 - hyper.beta2**t
    for name, p in params:
        g = grads[name]
        m = state.setdefault(("m", name), np.zeros_like(p))
        v = state.setdefault(("v", name), np.zeros_like(p))
        m *= hyper.beta1
        m += (1.0 - hyper.beta1) * g
        v *= hyper.beta2
        v += (1.0 - hyper.beta2) * g * g
        p -= hyper.lr * (m / c1) / (np.sqrt(v / c2) + hyper.eps)
        if hyper.weight_decay:
            p -= hyper.lr * hyper.weight_decay * p


class TestFlatAdam:
    @settings(max_examples=100, deadline=None)
    @given(
        shapes=st.lists(
            st.lists(st.integers(1, 5), min_size=1, max_size=3), min_size=1, max_size=6
        ),
        steps=st.integers(1, 6),
        weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_per_parameter_loop(self, shapes, steps, weight_decay, seed):
        # Several steps on parameters of mixed shapes and scales: every value
        # is bitwise the per-parameter update's, written into the same arrays.
        rng = np.random.default_rng(seed)
        params = [
            (f"p{i}", rng.normal(scale=10.0 ** rng.integers(-3, 3), size=shape))
            for i, shape in enumerate(shapes)
        ]
        want = copy.deepcopy(params)
        arrays = [p for _, p in params]
        state, ref_state = AdamState(), {}
        for step in range(steps):
            grads = {name: rng.normal(size=p.shape) * (step % 3) for name, p in params}
            hyper = AdamHyper(lr=10.0 ** -rng.integers(1, 5), weight_decay=weight_decay)
            adam_step(params, grads, state, hyper)
            reference_adam_step(want, grads, ref_state, hyper)
        assert state.step == steps
        for (_, got), (_, ref), array in zip(params, want, arrays):
            assert got is array
            np.testing.assert_array_equal(got, ref)


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
            model, metrics = train(corpus, tiny_train_config(steps=6), tiny_model(seed=3))
            log.write_text(format_metrics(metrics))
            save_checkpoint(model, ckpt)
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

    def test_ids_of_each_utterance_must_cover_its_frames(self):
        # One id short in one utterance and one over in the next: the pack
        # still holds one id per frame, but the ids would shift by a frame.
        corpus = gen_corpus(TINY_CORPUS_CFG)
        first, second = corpus.utterances[:2]
        corpus = dataclasses.replace(
            corpus,
            utterances=[
                dataclasses.replace(first, noisy_ids=first.noisy_ids[:-1]),
                dataclasses.replace(
                    second, noisy_ids=np.append(second.noisy_ids, second.noisy_ids[-1])
                ),
            ],
        )
        with pytest.raises(DimensionMismatchError):
            train(corpus, tiny_train_config(steps=1, batch_size=2), tiny_model())

    @pytest.mark.parametrize("mask_p", [0.0, 0.3, 1.0])
    def test_step_builds_no_spec_and_copies_no_utterance(self, monkeypatch, mask_p):
        # A step's masked regions keep one form, the array of pack rows, from
        # the draw to the mask embedding's gradient: with MaskSpec and
        # apply_mask refusing to run, training gives the same bits.
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=3, mask_p=mask_p)
        want_model, want = train(corpus, cfg, tiny_model())

        def refuse(*args, **kwargs):
            raise AssertionError("a training step built a MaskSpec or a masked copy")

        monkeypatch.setattr(segctc.masking.MaskSpec, "__post_init__", refuse)
        for module in (segctc, segctc.masking, segctc.model, segctc.objectives, segctc.trainer):
            if hasattr(module, "apply_mask"):
                monkeypatch.setattr(module, "apply_mask", refuse)
        with pytest.raises(AssertionError):
            segctc.MaskSpec((), 1)
        got_model, got = train(corpus, cfg, tiny_model())
        assert got == want
        for (name, a), (_, b) in zip(named_params(got_model), named_params(want_model)):
            np.testing.assert_array_equal(a, b, err_msg=name)

    def test_array_path_has_no_optional_forms(self):
        # pack_backward reads the masked rows from the forward's cache, and
        # the loss path takes the regions array, never None.
        assert "masked_rows" not in inspect.signature(segctc.model.pack_backward).parameters
        for fn in (segctc.objectives.segment_ctc_terms, segctc.objectives.joint_loss_pack):
            params = inspect.signature(fn).parameters
            assert params["regions"].default is inspect.Parameter.empty
            assert all(p.default is not None for p in params.values())

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
    `loss_and_grads(idx, step, alpha)` returns (ce, ctc, combined, grads).
    Every float sum adds left to right from 0.0."""
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
        if cfg.grad_clip > 0.0:
            squares = 0.0
            for g in total.values():
                squares += float(np.sum(g * g))
            norm = np.sqrt(squares)
            if norm > cfg.grad_clip:
                for g in total.values():
                    g *= cfg.grad_clip / norm
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


def compensated_sum(values, start=0):
    """A compensated float sum, as the builtin sum() adds floats from Python 3.12 on."""
    return math.fsum([start, *values])


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

    @pytest.mark.parametrize("grad_clip", [0.0, 1e-2])
    def test_pretrain_sums_do_not_depend_on_builtin_sum(self, monkeypatch, grad_clip):
        # The per-utterance loop adds with +=; the trainer must too, whatever
        # the interpreter's sum() does.
        monkeypatch.setattr(segctc.trainer, "sum", compensated_sum, raising=False)
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=5, batch_size=4, grad_clip=grad_clip)
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

    def test_finetune_sums_do_not_depend_on_builtin_sum(self, monkeypatch):
        monkeypatch.setattr(segctc.trainer, "sum", compensated_sum, raising=False)
        corpus = gen_corpus(TINY_CORPUS_CFG)
        cfg = tiny_train_config(steps=5, batch_size=6, mode=TrainingMode(alpha=1.0))

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

    def test_default_shape_is_bitwise_per_utterance_loop(self):
        # At T = 100 and d_model 32 every product of a pack runs on the same
        # BLAS kernel as its pack of one, so the steps match bit for bit.
        exp = ExperimentConfig(utterances=12, steps=3)
        corpus = gen_corpus(exp.corpus_config())
        cfg = exp.train_config()

        def fresh():
            return init_model(
                feature_dim=exp.feature_dim,
                model_dim=exp.d_model,
                embed_dim=exp.d_embed,
                vocab=exp.vocab,
                n_blocks=exp.layers,
                rng=seeded_rng(exp.seed, 2),
                nonlin=exp.nonlin,
                n_pos=exp.n_pos,
                attn_window=exp.attn_window,
            )

        loop_model = fresh()

        def loss_and_grads(idx, step, alpha):
            utt = corpus.utterances[idx]
            rng = seeded_rng(cfg.seed, _MASK_STREAM, idx, step)
            spec = sample_mask(utt.features.shape[0], cfg.mask_p, cfg.mask_l, rng)
            b, grads = pretrain_loss_and_grads(
                loop_model, utt.features, utt.noisy_ids, spec, alpha
            )
            return b.ce, b.ctc, b.combined, grads

        expected = per_utterance_run(corpus, cfg, loop_model, loss_and_grads)
        model, metrics = train(corpus, cfg, fresh())
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
        train(corpus, tiny_train_config(steps=3), model)
        save_checkpoint(model, path)
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

    def test_frozen_encoder_runs_no_encoder_backward(self, tmp_path, monkeypatch):
        """A frozen finetune forms the head's gradients alone, and its head
        ends where a full backward, whose encoder gradients the loop drops,
        leaves it."""
        corpus, pre = self._pretrained(tmp_path)
        cfg = tiny_train_config(steps=3)

        def fresh():
            head = init_finetune_head(None, vocab=corpus.vocab, model_dim=6, rng=seeded_rng(14))
            return Model(encoder=copy.deepcopy(pre.encoder), head=head)

        def full_backward(model, cache, dlogits, with_encoder=True):
            return real_pack_backward(model, cache, dlogits)

        real_pack_backward = segctc.trainer.pack_backward
        monkeypatch.setattr(segctc.trainer, "pack_backward", full_backward)
        full, _ = finetune(corpus, cfg, fresh(), freeze_encoder=True)
        monkeypatch.undo()

        calls = []
        real_encoder_backward = segctc.model._encoder_backward

        def counting(*args):
            calls.append(args)
            return real_encoder_backward(*args)

        monkeypatch.setattr(segctc.model, "_encoder_backward", counting)
        frozen, _ = finetune(corpus, cfg, fresh(), freeze_encoder=True)
        assert calls == []
        for (name, got), (_, want) in zip(named_params(frozen), named_params(full)):
            np.testing.assert_array_equal(got, want, err_msg=name)
        finetune(corpus, tiny_train_config(steps=1), fresh())
        assert len(calls) == 1  # the count sees an unfrozen step's backward

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
        finetune(corpus, tiny_train_config(steps=2), model)
        save_checkpoint(model, out)
        loaded = load_checkpoint(out)
        np.testing.assert_array_equal(
            loaded.head.weight, model.head.weight.astype(np.float32)
        )

    def test_labels_of_each_utterance_must_cover_its_frames(self):
        # One label short in one utterance and one over in the next: the pack
        # still holds one label per frame, but the labels would shift by a frame.
        corpus = gen_corpus(TINY_CORPUS_CFG)
        first, second = corpus.utterances[:2]
        corpus = dataclasses.replace(
            corpus,
            utterances=[
                dataclasses.replace(first, true_ids=first.true_ids[:-1]),
                dataclasses.replace(
                    second, true_ids=np.append(second.true_ids, second.true_ids[-1])
                ),
            ],
        )
        head = init_finetune_head(None, vocab=4, model_dim=6, rng=seeded_rng(15))
        model = Model(encoder=tiny_model().encoder, head=head)
        with pytest.raises(DimensionMismatchError):
            finetune(corpus, tiny_train_config(steps=1, batch_size=2), model)
        with pytest.raises(DimensionMismatchError):
            finetune_loss_and_grads(model, first.features, first.true_ids[:-1])

    def test_non_finite_utterance_reported(self):
        corpus = gen_corpus(TINY_CORPUS_CFG)
        corpus.utterances[3].features[:] = np.nan
        head = init_finetune_head(None, vocab=4, model_dim=6, rng=seeded_rng(16))
        model = Model(encoder=tiny_model().encoder, head=head)
        with pytest.raises(NonFiniteLossError) as exc_info:
            finetune(corpus, tiny_train_config(steps=5, batch_size=6), model)
        assert (exc_info.value.step, exc_info.value.utterance) == (0, 3)
        assert exc_info.value.term == "ctc"
