import numpy as np
import pytest

from segctc import (
    AffineHead,
    BlankParams,
    DimensionMismatchError,
    EmbeddingHead,
    MaskSpec,
    Model,
    VersionMismatchError,
    check_gradient,
    compute_logits,
    encoder_forward,
    extract_blank_params,
    init_finetune_head,
    init_model,
    load_checkpoint,
    named_params,
    position_channels,
    pretrain_loss_and_grads,
    read_blank_params,
    save_checkpoint,
    seeded_rng,
    write_blank_params,
)


def toy_model(seed=0, **kwargs):
    defaults = dict(
        feature_dim=3, model_dim=4, embed_dim=3, vocab=3, n_blocks=2, n_pos=4
    )
    defaults.update(kwargs)
    return init_model(rng=seeded_rng(seed, 50), **defaults)


def flatten_params(params):
    return np.concatenate([p.ravel() for _, p in params])


def set_params(params, flat):
    offset = 0
    for _, p in params:
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size


class TestEncoderForward:
    def test_zero_weights_give_zero_hidden(self):
        model = toy_model()
        for _, p in named_params(model):
            p[...] = 0.0
        hidden = encoder_forward(np.ones((5, 3)), model.encoder)
        np.testing.assert_array_equal(hidden, np.zeros((5, 4)))

    def test_no_blocks_is_pure_linear(self):
        model = toy_model(n_blocks=0)
        rng = seeded_rng(1)
        features = rng.normal(size=(6, 3))
        pos = position_channels(6, model.encoder.n_pos)
        xin = np.concatenate([features, pos], axis=1)
        expected = xin @ model.encoder.input_weight.T + model.encoder.input_bias
        np.testing.assert_allclose(encoder_forward(features, model.encoder), expected)

    def test_deterministic(self):
        model = toy_model()
        features = seeded_rng(2).normal(size=(7, 3))
        a = encoder_forward(features, model.encoder)
        b = encoder_forward(features, model.encoder)
        np.testing.assert_array_equal(a, b)

    def test_feature_dim_mismatch(self):
        model = toy_model()
        with pytest.raises(DimensionMismatchError):
            encoder_forward(np.zeros((5, 2)), model.encoder)

    @pytest.mark.parametrize("attention,window", [(False, 0), (True, 0), (True, 2)])
    def test_end_to_end_gradient(self, attention, window):
        model = toy_model(attention=attention, attn_window=window)
        rng = seeded_rng(3)
        features = rng.normal(size=(6, 3))
        ids = rng.integers(0, 3, size=6)
        spec = MaskSpec(((1, 3), (4, 6)), 6)
        params = named_params(model)
        x0 = flatten_params(params)

        def f(x):
            set_params(params, x)
            breakdown, grads = pretrain_loss_and_grads(model, features, ids, spec, 0.5)
            flat_grad = np.concatenate([grads[name].ravel() for name, _ in params])
            set_params(params, x0)
            return breakdown.combined, flat_grad

        assert check_gradient(f, x0, eps=1e-6) < 1e-3


class TestComputeLogits:
    def test_identity_projection_one_hot_embeddings(self):
        head = EmbeddingHead(
            proj_weight=np.eye(4),
            proj_bias=np.zeros(4),
            embeddings=np.eye(4),
        )
        hidden = seeded_rng(4).normal(size=(5, 4))
        np.testing.assert_allclose(compute_logits(hidden, head), hidden)

    def test_zero_hidden_gives_embedded_bias(self):
        rng = seeded_rng(5)
        head = EmbeddingHead(
            proj_weight=rng.normal(size=(3, 4)),
            proj_bias=rng.normal(size=3),
            embeddings=rng.normal(size=(5, 3)),
        )
        logits = compute_logits(np.zeros((2, 4)), head)
        expected = head.embeddings @ head.proj_bias
        np.testing.assert_allclose(logits, np.tile(expected, (2, 1)))

    def test_affine_head(self):
        rng = seeded_rng(6)
        head = AffineHead(weight=rng.normal(size=(4, 3)), bias=rng.normal(size=4))
        hidden = rng.normal(size=(5, 3))
        np.testing.assert_allclose(
            compute_logits(hidden, head), hidden @ head.weight.T + head.bias
        )

    def test_hidden_width_mismatch(self):
        head = AffineHead(weight=np.zeros((4, 3)), bias=np.zeros(4))
        with pytest.raises(DimensionMismatchError):
            compute_logits(np.zeros((5, 2)), head)


class TestBlankParams:
    def test_basis_vector_blank_embedding(self):
        rng = seeded_rng(7)
        proj_weight = rng.normal(size=(4, 6))
        proj_bias = rng.normal(size=4)
        embeddings = rng.normal(size=(3, 4))
        embeddings[-1] = np.eye(4)[1]  # blank embedding = second basis vector
        head = EmbeddingHead(proj_weight, proj_bias, embeddings)
        blank = extract_blank_params(head)
        np.testing.assert_allclose(blank.weight, proj_weight[1])
        assert blank.bias == pytest.approx(proj_bias[1])

    def test_zero_blank_embedding(self):
        rng = seeded_rng(8)
        head = EmbeddingHead(
            proj_weight=rng.normal(size=(4, 6)),
            proj_bias=rng.normal(size=4),
            embeddings=np.vstack([rng.normal(size=(2, 4)), np.zeros(4)]),
        )
        blank = extract_blank_params(head)
        np.testing.assert_array_equal(blank.weight, np.zeros(6))
        assert blank.bias == 0.0

    def test_blank_logit_identity(self):
        rng = seeded_rng(9)
        worst = 0.0
        for _ in range(100):
            head = EmbeddingHead(
                proj_weight=rng.normal(size=(5, 7)),
                proj_bias=rng.normal(size=5),
                embeddings=rng.normal(size=(4, 5)),
            )
            blank = extract_blank_params(head)
            hidden = rng.normal(size=(3, 7))
            logits = compute_logits(hidden, head)
            direct = hidden @ blank.weight + blank.bias
            worst = max(worst, float(np.abs(logits[:, -1] - direct).max()))
        assert worst < 1e-10


class TestInitFinetuneHead:
    def test_blank_row_set_exactly(self):
        blank = BlankParams(weight=np.arange(4.0), bias=2.5)
        head = init_finetune_head(blank, vocab=6, model_dim=4, rng=seeded_rng(10))
        np.testing.assert_array_equal(head.weight[-1], blank.weight)
        assert head.bias[-1] == 2.5

    def test_zero_blank_gives_zero_row(self):
        blank = BlankParams(weight=np.zeros(4), bias=0.0)
        head = init_finetune_head(blank, vocab=6, model_dim=4, rng=seeded_rng(11))
        np.testing.assert_array_equal(head.weight[-1], np.zeros(4))

    def test_same_seed_fully_identical(self):
        blank = BlankParams(weight=np.ones(4), bias=1.0)
        a = init_finetune_head(blank, vocab=5, model_dim=4, rng=seeded_rng(12))
        b = init_finetune_head(blank, vocab=5, model_dim=4, rng=seeded_rng(12))
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_with_and_without_blank_differ_only_in_blank_row(self):
        blank = BlankParams(weight=np.full(4, 3.0), bias=-1.0)
        loaded = init_finetune_head(blank, vocab=5, model_dim=4, rng=seeded_rng(13))
        fresh = init_finetune_head(None, vocab=5, model_dim=4, rng=seeded_rng(13))
        np.testing.assert_array_equal(loaded.weight[:-1], fresh.weight[:-1])
        np.testing.assert_array_equal(loaded.bias[:-1], fresh.bias[:-1])
        assert not np.array_equal(loaded.weight[-1], fresh.weight[-1])

    def test_blank_width_mismatch(self):
        blank = BlankParams(weight=np.zeros(3), bias=0.0)
        with pytest.raises(DimensionMismatchError):
            init_finetune_head(blank, vocab=5, model_dim=4, rng=seeded_rng(14))


class TestCheckpointIO:
    def test_round_trip_preserves_values(self, tmp_path):
        model = toy_model(attention=True, attn_window=3)
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.encoder.nonlin == model.encoder.nonlin
        assert loaded.encoder.attn_window == 3
        for (name_a, a), (name_b, b) in zip(named_params(model), named_params(loaded)):
            assert name_a == name_b
            np.testing.assert_array_equal(a.astype(np.float32), b.astype(np.float32))

    def test_second_save_is_bit_identical(self, tmp_path):
        model = toy_model()
        first = tmp_path / "a.bin"
        second = tmp_path / "b.bin"
        save_checkpoint(model, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_affine_head_round_trip(self, tmp_path):
        encoder = toy_model().encoder
        head = init_finetune_head(None, vocab=5, model_dim=4, rng=seeded_rng(15))
        model = Model(encoder=encoder, head=head)
        path = tmp_path / "ft.bin"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert isinstance(loaded.head, AffineHead)
        assert loaded.head.vocab == 5

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_bad_version(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = toy_model()
        path = tmp_path / "model.bin"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)


class TestBlankFileIO:
    def test_bitwise_round_trip(self, tmp_path):
        rng = seeded_rng(16)
        blank = BlankParams(weight=rng.normal(size=8), bias=float(rng.normal()))
        first = tmp_path / "a.blank"
        second = tmp_path / "b.blank"
        write_blank_params(blank, first)
        loaded = read_blank_params(first)
        np.testing.assert_array_equal(loaded.weight, blank.weight)
        assert loaded.bias == blank.bias
        write_blank_params(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.blank"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(VersionMismatchError):
            read_blank_params(path)

    def test_truncated(self, tmp_path):
        blank = BlankParams(weight=np.zeros(8), bias=0.0)
        path = tmp_path / "t.blank"
        write_blank_params(blank, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(VersionMismatchError):
            read_blank_params(path)


class TestPositionChannels:
    def test_shape_and_range(self):
        for n_pos in (8, 0):
            pos = position_channels(50, n_pos)
            assert pos.shape == (50, n_pos)
            assert np.all(np.abs(pos) <= 1.0)

    def test_rows_distinguish_positions(self):
        pos = position_channels(100, 8)
        distinct = {tuple(np.round(row, 9)) for row in pos}
        assert len(distinct) == 100

    def test_odd_channel_count_rejected(self):
        with pytest.raises(ValueError):
            position_channels(10, 3)
        # init_model refuses, before any draw, a model no checkpoint can hold
        for shape in (dict(n_pos=3), dict(n_pos=-2), dict(attn_window=-1)):
            rng = seeded_rng(0, 50)
            with pytest.raises(ValueError, match="n_pos|attn_window"):
                init_model(3, 4, 3, 3, 2, rng, **shape)
            assert rng.random() == seeded_rng(0, 50).random()
