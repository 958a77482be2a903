"""Banded attention against the dense masked attention it replaced, and the
packed encoder against its batch-of-one case.

`reference_forward` and `reference_backward` are the earlier encoder pass for
`attn_window = w > 0`: a full T x T score matrix with the cells outside
|i - j| <= w set to -inf before the softmax. They are kept here only as the
reference for the band, which computes the (T, 2w+1) diagonals alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segctc import (
    MaskSpec,
    Model,
    check_gradient,
    compute_logits,
    encoder_forward,
    init_finetune_head,
    init_model,
    model_backward,
    model_forward,
    named_params,
    position_channels,
    pretrain_loss_and_grads,
    seeded_rng,
)
from segctc.model import (
    _encoder_backward,
    _encoder_forward,
    _nonlin,
    _nonlin_deriv,
    pack_backward,
    pack_forward,
    unpack,
)

RTOL = 1e-12


def reference_forward(x, params):
    frames = x.shape[0]
    xin = np.concatenate([x, position_channels(frames, params.n_pos)], axis=1)
    h = xin @ params.input_weight.T + params.input_bias
    cache = {"xin": xin, "blocks": []}
    scale = 1.0 / np.sqrt(params.model_dim)
    offsets = np.arange(frames)
    band = np.abs(offsets[:, None] - offsets[None, :]) > params.attn_window
    for block in params.blocks:
        h_in = h
        u = h_in @ block.weight.T + block.bias
        v = _nonlin(u, params.nonlin)
        record = {"h_in": h_in, "u": u, "v": v}
        if block.attention is not None:
            q = v @ block.attention.wq.T
            k = v @ block.attention.wk.T
            w = v @ block.attention.wv.T
            scores = (q @ k.T) * scale
            scores[band] = -np.inf
            scores -= scores.max(axis=1, keepdims=True)
            att = np.exp(scores)
            att /= att.sum(axis=1, keepdims=True)
            h = v + att @ w
            record.update({"q": q, "k": k, "w": w, "att": att})
        else:
            h = v
        cache["blocks"].append(record)
    return h, cache


def reference_backward(dh, params, cache):
    grads = {}
    scale = 1.0 / np.sqrt(params.model_dim)
    for i in range(len(params.blocks) - 1, -1, -1):
        block = params.blocks[i]
        rec = cache["blocks"][i]
        if block.attention is not None:
            att, q, k, w, v = rec["att"], rec["q"], rec["k"], rec["w"], rec["v"]
            dw = att.T @ dh
            datt = dh @ w.T
            dscores = att * (datt - (datt * att).sum(axis=1, keepdims=True))
            dq = (dscores @ k) * scale
            dk = (dscores.T @ q) * scale
            grads[f"encoder.blocks.{i}.attention.wq"] = dq.T @ v
            grads[f"encoder.blocks.{i}.attention.wk"] = dk.T @ v
            grads[f"encoder.blocks.{i}.attention.wv"] = dw.T @ v
            dv = dh + dq @ block.attention.wq + dk @ block.attention.wk + dw @ block.attention.wv
        else:
            dv = dh
        du = dv * _nonlin_deriv(rec["u"], rec["v"], params.nonlin)
        grads[f"encoder.blocks.{i}.weight"] = du.T @ rec["h_in"]
        grads[f"encoder.blocks.{i}.bias"] = du.sum(axis=0)
        dh = du @ block.weight
    grads["encoder.input_weight"] = dh.T @ cache["xin"]
    grads["encoder.input_bias"] = dh.sum(axis=0)
    grads["_dx"] = (dh @ params.input_weight)[:, : params.feature_dim]
    return grads


def assert_close(actual, expected):
    """Equal to RTOL relative to the largest magnitude of `expected`."""
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=RTOL * scale)


def banded_model(seed, window, attention=True, nonlin="tanh", n_blocks=2):
    return init_model(
        feature_dim=3,
        model_dim=5,
        embed_dim=4,
        vocab=4,
        n_blocks=n_blocks,
        rng=seeded_rng(seed, 60),
        attention=attention,
        nonlin=nonlin,
        n_pos=4,
        attn_window=window,
    )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_band_equals_dense_masked_reference(data):
    frames = data.draw(st.integers(1, 40), label="frames")
    window = data.draw(st.integers(1, frames + 3), label="window")
    nonlin = data.draw(st.sampled_from(["tanh", "relu"]), label="nonlin")
    flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=3), label="attention")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = banded_model(seed, window, attention=flags, nonlin=nonlin, n_blocks=len(flags))
    rng = seeded_rng(seed, 61)
    x = rng.normal(size=(frames, 3))
    dh = rng.normal(size=(frames, model.encoder.model_dim))

    hidden, cache = _encoder_forward([x], model.encoder)
    ref_hidden, ref_cache = reference_forward(x, model.encoder)
    assert_close(compute_logits(hidden, model.head), compute_logits(ref_hidden, model.head))
    grads, dx = _encoder_backward(dh, model.encoder, cache)
    ref_grads = reference_backward(dh, model.encoder, ref_cache)
    assert_close(dx, ref_grads.pop("_dx"))
    assert grads.keys() == ref_grads.keys()
    for name, ref in ref_grads.items():
        assert_close(grads[name][0], ref)


def cache_attention(model, x):
    return _encoder_forward([x], model.encoder)[1]["blocks"][0]["att"]


def test_window_zero_is_full_attention():
    model = banded_model(1, 0)
    x = seeded_rng(62).normal(size=(9, 3))
    # a window as wide as the utterance masks nothing
    wide = banded_model(1, 8)
    assert_close(encoder_forward(x, model.encoder), encoder_forward(x, wide.encoder))
    (dense,) = cache_attention(model, x)
    assert dense.shape == (9, 9)
    assert cache_attention(wide, x).shape == (9 + 2 * 8, 2 * 8 + 1)


@pytest.mark.parametrize(
    "window, frames",
    [(1, 6), (5, 6), (6, 6), (9, 6), (2, 1)],
    ids=["w=1", "w=T-1", "w=T", "w>T", "T=1"],
)
def test_banded_gradient(window, frames):
    model = banded_model(3, window)
    rng = seeded_rng(63)
    features = rng.normal(size=(frames, 3))
    ids = rng.integers(0, 4, size=frames)
    spec = MaskSpec(((1, 3), (4, 6)), 6) if frames == 6 else MaskSpec(((0, 1),), 1)
    params = named_params(model)
    x0 = np.concatenate([p.ravel() for _, p in params])

    def set_params(flat):
        offset = 0
        for _, p in params:
            p[...] = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    def f(x):
        set_params(x)
        breakdown, grads = pretrain_loss_and_grads(model, features, ids, spec, 0.5)
        set_params(x0)
        return breakdown.combined, np.concatenate([grads[name].ravel() for name, _ in params])

    assert check_gradient(f, x0, eps=1e-6) < 1e-3


@pytest.mark.parametrize("window, n_blocks", [(1, 1), (2, 2), (3, 3)])
def test_perturbation_stays_within_receptive_field(window, n_blocks):
    model = banded_model(4, window, n_blocks=n_blocks)
    frames = 30
    x = seeded_rng(64).normal(size=(frames, 3))
    base = encoder_forward(x, model.encoder)
    reach = n_blocks * window
    for j in (0, 11, frames - 1):
        moved = x.copy()
        moved[j] += 1.0
        changed = np.flatnonzero(np.any(encoder_forward(moved, model.encoder) != base, axis=1))
        assert changed.min() == max(0, j - reach)
        assert changed.max() == min(frames - 1, j + reach)


def pack_model(seed, window, flags, nonlin, affine):
    model = banded_model(seed, window, attention=flags, nonlin=nonlin, n_blocks=len(flags))
    if affine:
        head = init_finetune_head(None, vocab=4, model_dim=5, rng=seeded_rng(seed, 65))
        model = Model(encoder=model.encoder, head=head)
    return model


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_pack_equals_per_utterance(data):
    """One packed forward and backward over utterances of mixed lengths gives
    each utterance's logits and gradients of the batch-of-one path. Bitwise
    when every utterance has the pack's band (always when the lengths are
    equal) and more than one frame; else to RTOL, since a wider band changes
    how numpy groups each row's sums, and BLAS multiplies a one-row matrix by
    another kernel than a taller one. (BLAS may also switch kernels with a
    product's size; every product here is small enough to stay on one.) The
    encoder also matches the dense reference to RTOL."""
    lengths = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=5), label="lengths")
    if data.draw(st.booleans(), label="equal lengths"):
        lengths = [lengths[0]] * len(lengths)
    window = data.draw(st.integers(0, max(lengths) + 3), label="window")
    nonlin = data.draw(st.sampled_from(["tanh", "relu"]), label="nonlin")
    flags = data.draw(st.lists(st.booleans(), min_size=1, max_size=3), label="attention")
    affine = data.draw(st.booleans(), label="affine head")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    model = pack_model(seed, window, flags, nonlin, affine)
    rng = seeded_rng(seed, 66)
    features = [rng.normal(size=(frames, 3)) for frames in lengths]
    dlogits = [rng.normal(size=(frames, 5)) for frames in lengths]
    masked_rows = [
        np.flatnonzero(rng.random(frames) < 0.3) if rng.random() < 0.7 else None
        for frames in lengths
    ]

    logits, cache = pack_forward(model, features)
    grads = pack_backward(model, cache, dlogits, masked_rows)
    half = min(window, max(lengths) - 1)
    same_band = window == 0 or all(min(window, frames - 1) == half for frames in lengths)
    exact = same_band and (min(lengths) > 1 or len(lengths) == 1)
    check = np.testing.assert_array_equal if exact else assert_close
    pieces = unpack(logits, cache)
    for x, got_logits, dl, rows, got in zip(features, pieces, dlogits, masked_rows, grads):
        want_logits, one = model_forward(model, x)
        check(got_logits, want_logits)
        want = model_backward(model, one, dl, masked_rows=rows)
        assert got.keys() == want.keys()
        for name in want:
            check(got[name], want[name])

    if window == 0:
        return
    dh = rng.normal(size=(sum(lengths), model.encoder.model_dim))
    hidden, cache = _encoder_forward(features, model.encoder)
    encoder_grads, dx = _encoder_backward(dh, model.encoder, cache)
    first = 0
    for i, x in enumerate(features):
        rows = slice(first, first + x.shape[0])
        first += x.shape[0]
        ref_hidden, ref_cache = reference_forward(x, model.encoder)
        assert_close(hidden[rows], ref_hidden)
        ref_grads = reference_backward(dh[rows], model.encoder, ref_cache)
        assert_close(dx[rows], ref_grads.pop("_dx"))
        for name, ref in ref_grads.items():
            assert_close(encoder_grads[name][i], ref)

