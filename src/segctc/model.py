"""Desk-scale masked-prediction encoder with an embedding-similarity head.

Fixed sinusoidal position channels are appended to the input frames (masked
prediction needs to know where a masked frame sits; without any positional
signal every masked frame would produce the same output). An input projection
maps to the model width, then each block applies affine -> nonlinearity ->
optional single-head self-attention with a residual connection.

With `attn_window = w > 0` frame i attends to frames |i - j| <= w only, and
the scores live on a (T, 2w+1) band: O(T·(2w+1)) per block instead of T x T.
Keys, values and queries are written into zero-padded buffers and read
through strided windows that copy nothing; the band's transposed products in
the backward pass are gathers along anti-diagonals, not scatters.
`attn_window = 0` means dense attention over all T x T pairs.

The encoder runs over a pack: the utterances of a batch laid end to end along
time as one (sum T, d) array, so a training step makes one forward and one
backward (sequence packing with a block-diagonal mask). Each utterance gets
its own position channels, and the band pad is the concatenation of each
utterance's own pad, h = min(w, T_max - 1); both are cached per utterance
length. Every slot that would reach into a neighbour is -inf, its weight
exactly 0, so a finite neighbour adds exactly 0 (a non-finite one makes its
neighbours non-finite too, through 0 * inf). Dense attention runs per
utterance inside the pack. pack_backward returns the gradient of the pack's
summed loss. Each weight or bias gradient is one term per utterance, on that
utterance's rows: the pack splits into runs of consecutive utterances of
equal length (a pack of equal lengths is one run), one stacked matmul (or
row sum) over a run's (k, T, d) view gives its k terms, each bitwise the
product of its utterance alone, and the terms add left to right in pack
order (np.add.reduce along the stacked axis would add them pairwise). The
products over all rows of the pack (the affine maps and their input
gradients) equal the utterances' own wherever BLAS picks the same kernel for
both shapes, so the sum is then bitwise that of the utterances' gradients.
pack_backward takes one logit gradient laid out like the pack,
(sum T, V+1), and skips the encoder when only the head is trained.
pack_forward writes the mask embedding into the input of the pack rows it
is given, the masked regions of a training step, and records those rows;
pack_backward adds their input gradients into the embedding's gradient,
one sum per utterance. model_forward and model_backward are the pack of one,
on input masked beforehand (masking.apply_mask).

One encoder forward serves two callers. pack_forward keeps the backward
record (the joined input, each block's input and output, the padded q, k,
w and band weights) for pack_backward. pack_logits (the analysis) and
encoder_forward run the same steps and keep none: each intermediate is freed
with its block. Both modes write each step into the array it produces (bias,
nonlinearity, residual) and give the same output bit for bit. A
nonlinearity's derivative is read from its output alone.

The pretraining head scores hidden states against per-class embeddings,
logits[t, k] = E_k . (W h_t + b), with the blank class at the last index.
Under this bilinear form the blank class collapses exactly to one affine row
(W^T E_blank, b . E_blank), which can seed the blank row of a fresh affine
head for a downstream CTC task.

Checkpoint format (version 1, little-endian):
    magic       4 bytes  b"SCTC"
    version     u32      1
    head_kind   u32      0 = embedding-similarity, 1 = direct affine
    d           u32      input feature dimension
    d_model     u32      hidden width
    d_embed     u32      class-embedding width (0 for affine heads)
    vocab       u32      V; the output layer has V+1 classes (last = blank)
    n_blocks    u32      number of encoder blocks
    n_pos       u32      sinusoidal position channels
    nonlin      u32      0 = tanh, 1 = relu
    attn_window u32      attention band half-width (0 = full attention)
    attn_flags  u32 * n_blocks   1 if the block carries attention weights
then raw float32 parameter blobs, row-major, in this order:
    mask_embedding, input_weight, input_bias,
    per block: weight, bias, [wq, wk, wv when the flag is set],
    head: proj_weight, proj_bias, embeddings   (embedding head)
          weight, bias                         (affine head)
Training runs in float64, so a save and load rounds every parameter to
float32; saving a loaded checkpoint again reproduces it byte for byte. The
format stays float32 at version 1 because files written before are read
unchanged; a float64 checkpoint would be a new, versioned format.

Blank-parameter file (version 1, little-endian):
    magic b"BLNK", version u32, d_model u32, then float64 weight (d_model)
    and one float64 bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, groupby
from operator import iadd

import numpy as np

from .codec import F32, F64, U32, FileReader, write_file
from .errors import DimensionMismatchError, VersionMismatchError
from .numerics import axis_max

CHECKPOINT_MAGIC = b"SCTC"
CHECKPOINT_VERSION = 1
BLANK_MAGIC = b"BLNK"
BLANK_VERSION = 1
POSITION_BASE = 100.0

NONLIN_CODES = {"tanh": 0, "relu": 1}
_NONLIN_NAMES = {code: name for name, code in NONLIN_CODES.items()}


def _keep_heap() -> None:
    """Allocate and free one 4 MB block, which glibc's malloc serves by mmap.

    glibc then raises its mmap threshold to the block's size and its trim
    threshold to twice that, for the rest of the process. A pack's arrays
    (~200 KB each for a default training step) then come from the heap, and
    the heap is not trimmed after each step or analysis forward and faulted
    back in by the next: ~300 minor page faults per default training step
    without this, ~0 with it. Other allocators ignore the block."""
    block = np.empty(4 << 20, np.uint8)
    del block


_keep_heap()


@dataclass
class AttentionParams:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray


@dataclass
class EncoderBlock:
    weight: np.ndarray
    bias: np.ndarray
    attention: AttentionParams | None = None


@dataclass
class EncoderParams:
    mask_embedding: np.ndarray
    input_weight: np.ndarray
    input_bias: np.ndarray
    blocks: list[EncoderBlock]
    nonlin: str = "tanh"
    n_pos: int = 8
    attn_window: int = 0  # 0 = full attention; w > 0 restricts to |i - j| <= w

    @property
    def feature_dim(self) -> int:
        return self.mask_embedding.shape[0]

    @property
    def model_dim(self) -> int:
        return self.input_weight.shape[0]


@dataclass
class EmbeddingHead:
    """logits[t, k] = embeddings[k] . (proj_weight @ h_t + proj_bias)."""

    proj_weight: np.ndarray
    proj_bias: np.ndarray
    embeddings: np.ndarray

    @property
    def vocab(self) -> int:
        return self.embeddings.shape[0] - 1


@dataclass
class AffineHead:
    """logits = h @ weight.T + bias, blank at the last row."""

    weight: np.ndarray
    bias: np.ndarray

    @property
    def vocab(self) -> int:
        return self.weight.shape[0] - 1


@dataclass
class BlankParams:
    """The blank class's effective affine row under an embedding head."""

    weight: np.ndarray
    bias: float


@dataclass
class Model:
    encoder: EncoderParams
    head: EmbeddingHead | AffineHead


def position_channels(total_frames: int, n_pos: int) -> np.ndarray:
    """Fixed sin/cos channels with geometrically spaced wavelengths."""
    if n_pos % 2 != 0:
        raise ValueError("n_pos must be even")
    out = np.empty((total_frames, n_pos))
    t = np.arange(total_frames, dtype=float)[:, None]
    inv_freq = POSITION_BASE ** (-2.0 * np.arange(n_pos // 2, dtype=float) / n_pos)
    angles = t * inv_freq[None, :]
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


def init_model(
    feature_dim: int,
    model_dim: int,
    embed_dim: int,
    vocab: int,
    n_blocks: int,
    rng: np.random.Generator,
    *,
    attention=True,
    nonlin: str = "tanh",
    n_pos: int = 8,
    attn_window: int = 0,
) -> Model:
    """Fresh model: affine weights uniform scaled by 1/sqrt(fan_in), biases
    zero, embeddings Gaussian scaled by 1/sqrt(embed_dim).

    `attention` is a bool applied to every block or a per-block sequence.
    `attn_window` > 0 restricts attention to a band of that half-width.
    """
    if nonlin not in NONLIN_CODES:
        raise ValueError(f"unknown nonlinearity {nonlin!r}")
    # A checkpoint stores both as u32 and refuses an odd n_pos on load.
    if n_pos < 0 or n_pos % 2:
        raise ValueError(f"n_pos must be even and >= 0, got {n_pos}")
    if attn_window < 0:
        raise ValueError(f"attn_window must be >= 0, got {attn_window}")
    if isinstance(attention, bool):
        attention = [attention] * n_blocks
    attention = [bool(a) for a in attention]
    if len(attention) != n_blocks:
        raise ValueError("attention flags must match the number of blocks")

    def affine(out_dim: int, in_dim: int) -> np.ndarray:
        bound = 1.0 / np.sqrt(in_dim)
        return rng.uniform(-bound, bound, size=(out_dim, in_dim))

    d_in = feature_dim + n_pos
    blocks = []
    for has_attn in attention:
        attn = None
        if has_attn:
            attn = AttentionParams(
                wq=affine(model_dim, model_dim),
                wk=affine(model_dim, model_dim),
                wv=affine(model_dim, model_dim),
            )
        blocks.append(EncoderBlock(affine(model_dim, model_dim), np.zeros(model_dim), attn))
    encoder = EncoderParams(
        mask_embedding=rng.uniform(-1.0, 1.0, size=feature_dim) / np.sqrt(feature_dim),
        input_weight=affine(model_dim, d_in),
        input_bias=np.zeros(model_dim),
        blocks=blocks,
        nonlin=nonlin,
        n_pos=n_pos,
        attn_window=attn_window,
    )
    head = EmbeddingHead(
        proj_weight=affine(embed_dim, model_dim),
        proj_bias=np.zeros(embed_dim),
        embeddings=rng.normal(size=(vocab + 1, embed_dim)) / np.sqrt(embed_dim),
    )
    return Model(encoder=encoder, head=head)


def _nonlin(u: np.ndarray, kind: str) -> np.ndarray:
    """The nonlinearity applied to `u` in place; returns `u`."""
    if kind == "tanh":
        return np.tanh(u, out=u)
    if kind == "relu":
        return np.maximum(u, 0.0, out=u)
    raise ValueError(f"unknown nonlinearity {kind!r}")


def _nonlin_deriv(v: np.ndarray, kind: str) -> np.ndarray:
    """The nonlinearity's derivative at its input, from its output `v`:
    relu(u) > 0 exactly where u > 0 (both false on NaN)."""
    if kind == "tanh":
        return 1.0 - v * v
    if kind == "relu":
        return (v > 0.0).astype(float)
    raise ValueError(f"unknown nonlinearity {kind!r}")


def _affine(x: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ weight.T + bias, with the bias added into the product."""
    out = x @ weight.T
    out += bias
    return out


@lru_cache(maxsize=256)
def _position_table(frames: int, n_pos: int) -> np.ndarray:
    """position_channels(frames, n_pos), computed once per utterance length
    and shared read-only."""
    table = position_channels(frames, n_pos)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=256)
def _band_pad(frames: int, half: int) -> np.ndarray:
    """Additive (frames, 2*half+1) score pad of one utterance: slot o of row t
    pairs frame t with frame t + o - half, and is -inf where that frame lies
    outside the utterance. A pack's pad is its utterances' pads joined, so no
    attention weight crosses into a neighbour."""
    keys = np.arange(frames)[:, None] + np.arange(-half, half + 1)
    pad = np.where((keys >= 0) & (keys < frames), 0.0, -np.inf)
    pad.flags.writeable = False
    return pad


def _slices(lengths: tuple[int, ...]) -> list[slice]:
    """The rows of each utterance of a pack."""
    return [slice(end - frames, end) for frames, end in zip(lengths, accumulate(lengths))]


def _runs(lengths: tuple[int, ...]) -> list[tuple[slice, tuple[int, int, int]]]:
    """(rows, shape) of each run of consecutive utterances of equal length in
    a pack: the run's rows and the (count, frames, -1) shape that stacks
    them, one utterance per stacked row. A pack of equal lengths is one run."""
    groups = [(len(list(group)), frames) for frames, group in groupby(lengths)]
    ends = accumulate(count * frames for count, frames in groups)
    return [(slice(end - n * t, end), (n, t, -1)) for end, (n, t) in zip(ends, groups)]


def _summed_products(a: np.ndarray, b: np.ndarray, runs) -> np.ndarray:
    """The sum of a[s].T @ b[s] over the rows s of every utterance, in pack
    order: one stacked matmul per run gives each utterance's term bitwise,
    and the terms add left to right (np.add.reduce and .sum would add them
    pairwise along a contiguous axis)."""
    stacks = (np.matmul(a[r].reshape(s).transpose(0, 2, 1), b[r].reshape(s)) for r, s in runs)
    return reduce(iadd, chain.from_iterable(stacks))


def _summed_row_sums(a: np.ndarray, runs) -> np.ndarray:
    """The sum of a[s].sum(axis=0) over the rows s of every utterance, in pack order."""
    return reduce(iadd, chain.from_iterable(a[r].reshape(s).sum(axis=1) for r, s in runs))


def _strided_view(padded: np.ndarray, shape, strides, offset: int = 0) -> np.ndarray:
    """Read-only view of the C-contiguous `padded` buffer; no data is copied.
    Unlike `as_strided`, the constructor checks the view against the buffer's
    bounds, and costs about a quarter as much per call."""
    view = np.ndarray(shape, padded.dtype, padded, offset, strides)
    view.flags.writeable = False
    return view


def _windows(padded: np.ndarray, frames: int, width: int) -> np.ndarray:
    """Read-only view (frames, width, d) of a row-padded (frames + width - 1,
    d) array, with [t, o] = padded[t + o]."""
    s0, s1 = padded.strides
    return _strided_view(padded, (frames, width, padded.shape[1]), (s0, s0, s1))


def _antidiagonals(padded: np.ndarray, frames: int) -> np.ndarray:
    """Read-only view (frames, width) of a row-padded (frames + width - 1,
    width) band, with [j, o] = padded[j + o, width - 1 - o]: the band slots of
    every query that point at key frame j. Paired with `_windows` of the
    row-padded query-side array, this turns the band's transpose-product into
    a gather."""
    width = padded.shape[1]
    s0, s1 = padded.strides
    return _strided_view(padded, (frames, width), (s0, s0 - s1), (width - 1) * s1)


def _band_contract(weights: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(frames, d) rows sum_o weights[t, o] * windows[t, o]: one batched
    (1, width) x (width, d) matmul, cheaper than the same einsum over strided
    windows."""
    return np.matmul(weights[:, None, :], windows)[:, 0, :]


def _padded_matmul(v: np.ndarray, weight: np.ndarray, half: int) -> np.ndarray:
    """v @ weight.T written into rows [half, half + T) of a zero buffer with
    `half` zero rows on each side."""
    frames = v.shape[0]
    out = np.zeros((frames + 2 * half, weight.shape[0]))
    np.matmul(v, weight.T, out=out[half : half + frames])
    return out


def _banded_attention(v, attn: AttentionParams, lengths, half: int, scale: float, record: bool):
    """Attention restricted to |i - j| <= half within each utterance of the
    pack, computed on the (sum T, 2*half+1) band only. Returns the attention
    output and, with `record`, the backward's record (else None), whose q,
    k, w and att are padded by `half` zero rows on each side."""
    frames = v.shape[0]
    width = 2 * half + 1
    rows = slice(half, half + frames)
    q = _padded_matmul(v, attn.wq, half)
    k = _padded_matmul(v, attn.wk, half)
    w = _padded_matmul(v, attn.wv, half)
    att_padded = np.zeros((frames + 2 * half, width))
    att = att_padded[rows]
    # Scores that overflow to inf give NaN in the softmax (inf - inf), which
    # the loss or the analysis refuses downstream; numpy need not warn first.
    with np.errstate(over="ignore", invalid="ignore"):
        np.einsum("td,tod->to", q[rows], _windows(k, frames, width), out=att)
        att *= scale
        att += np.concatenate([_band_pad(frames, half) for frames in lengths])
        att -= axis_max(att, 1)
        np.exp(att, out=att)
        att /= att.sum(axis=1, keepdims=True)
    out = _band_contract(att, _windows(w, frames, width))
    return out, ({"q": q, "k": k, "w": w, "att": att_padded} if record else None)


def _banded_attention_backward(do, rec, half: int, scale: float):
    """(dq, dk, dw) of `_banded_attention` for the output gradient `do`."""
    frames = do.shape[0]
    width = 2 * half + 1
    rows = slice(half, half + frames)
    q, k, w, att_padded = rec["q"], rec["k"], rec["w"], rec["att"]
    att = att_padded[rows]
    do_padded = np.zeros((frames + 2 * half, do.shape[1]))
    do_padded[rows] = do
    datt = np.einsum("td,tod->to", do, _windows(w, frames, width))
    dscores_padded = np.zeros_like(att_padded)
    dscores = dscores_padded[rows]
    np.multiply(att, datt - (datt * att).sum(axis=1, keepdims=True), out=dscores)
    dq = _band_contract(dscores, _windows(k, frames, width))
    dq *= scale
    dk = _band_contract(_antidiagonals(dscores_padded, frames), _windows(q, frames, width))
    dk *= scale
    dw = _band_contract(_antidiagonals(att_padded, frames), _windows(do_padded, frames, width))
    return dq, dk, dw


def _dense_attention(v, attn: AttentionParams, slices, scale: float, record: bool):
    """Full attention over all frame pairs of each utterance of the pack;
    the backward's record only with `record`, else None."""
    q = v @ attn.wq.T
    k = v @ attn.wk.T
    w = v @ attn.wv.T
    out = np.empty_like(w)
    atts = []
    for s in slices:
        with np.errstate(over="ignore", invalid="ignore"):  # as in _banded_attention
            att = (q[s] @ k[s].T) * scale
            att -= att.max(axis=1, keepdims=True)
            np.exp(att, out=att)
            att /= att.sum(axis=1, keepdims=True)
        np.matmul(att, w[s], out=out[s])
        if record:
            atts.append(att)
    return out, ({"q": q, "k": k, "w": w, "att": atts} if record else None)


def _dense_attention_backward(do, rec, slices, scale: float):
    q, k, w = rec["q"], rec["k"], rec["w"]
    dq, dk, dw = np.empty_like(do), np.empty_like(do), np.empty_like(do)
    for s, att in zip(slices, rec["att"]):
        dw[s] = att.T @ do[s]
        datt = do[s] @ w[s].T
        dscores = att * (datt - (datt * att).sum(axis=1, keepdims=True))
        dq[s] = (dscores @ k[s]) * scale
        dk[s] = (dscores.T @ q[s]) * scale
    return dq, dk, dw


def _band_half_width(params: EncoderParams, lengths) -> int:
    """The band half-width a window of `attn_window` frames has over a pack:
    a wider band would only add slots that point past every utterance."""
    return min(params.attn_window, max(lengths) - 1)


def _encoder_forward(features, params: EncoderParams, record: bool, masked=()):
    """Hidden states (sum T, d_model) of the (T_i, d) frames of every
    utterance in `features`, laid end to end along time, with the mask
    embedding in place of the frames of the pack rows `masked`, and the
    pack's cache: its lengths and slices, and with `record` what
    _encoder_backward reads (the joined input and each block's record).
    Every step writes into the array it produces; without `record` no
    intermediate outlives its block."""
    arrays = [np.asarray(x, dtype=float) for x in features]
    for x in arrays:
        if x.ndim != 2 or x.shape[1] != params.feature_dim:
            raise DimensionMismatchError(
                f"features of shape {x.shape} do not match feature dimension "
                f"{params.feature_dim}"
            )
    lengths = tuple(x.shape[0] for x in arrays)
    xin = np.empty((sum(lengths), params.feature_dim + params.n_pos))
    np.concatenate(arrays, out=xin[:, : params.feature_dim])
    np.concatenate(
        [_position_table(frames, params.n_pos) for frames in lengths],
        out=xin[:, params.feature_dim :],
    )
    xin[masked, : params.feature_dim] = params.mask_embedding
    h = _affine(xin, params.input_weight, params.input_bias)
    slices = _slices(lengths)
    cache = {"lengths": lengths, "slices": slices, "runs": _runs(lengths)}
    if record:
        cache.update(xin=xin, blocks=[])
    del xin
    scale = 1.0 / np.sqrt(params.model_dim)
    half = _band_half_width(params, lengths)
    for block in params.blocks:
        v = _nonlin(_affine(h, block.weight, block.bias), params.nonlin)
        if record:
            cache["blocks"].append({"h_in": h, "v": v})
        if block.attention is not None:
            if params.attn_window > 0:
                h, attn_record = _banded_attention(
                    v, block.attention, lengths, half, scale, record
                )
            else:
                h, attn_record = _dense_attention(v, block.attention, slices, scale, record)
            h += v
            if record:
                cache["blocks"][-1].update(attn_record)
        else:
            h = v
    return h, cache


def encoder_forward(features, params: EncoderParams) -> np.ndarray:
    """Hidden states (T, d_model) for already-masked input frames."""
    return _encoder_forward([features], params, record=False)[0]


def _encoder_backward(dh, params: EncoderParams, cache):
    """Parameter gradients of the pack in `cache`, each summed over its
    utterances in pack order, and the (sum T, d) input-frame gradient."""
    lengths, slices, runs = cache["lengths"], cache["slices"], cache["runs"]
    grads = {}
    scale = 1.0 / np.sqrt(params.model_dim)
    half = _band_half_width(params, lengths)
    for i in range(len(params.blocks) - 1, -1, -1):
        block = params.blocks[i]
        rec = cache["blocks"][i]
        if block.attention is not None:
            v = rec["v"]
            if params.attn_window > 0:
                dq, dk, dw = _banded_attention_backward(dh, rec, half, scale)
            else:
                dq, dk, dw = _dense_attention_backward(dh, rec, slices, scale)
            for name, d in (("wq", dq), ("wk", dk), ("wv", dw)):
                grads[f"encoder.blocks.{i}.attention.{name}"] = _summed_products(d, v, runs)
            # dh + dq @ wq + dk @ wk + dw @ wv, added in that order
            dv = dq @ block.attention.wq
            dv += dh
            dv += dk @ block.attention.wk
            dv += dw @ block.attention.wv
        else:
            dv = dh
        du = dv * _nonlin_deriv(rec["v"], params.nonlin)
        grads[f"encoder.blocks.{i}.weight"] = _summed_products(du, rec["h_in"], runs)
        grads[f"encoder.blocks.{i}.bias"] = _summed_row_sums(du, runs)
        dh = du @ block.weight
    grads["encoder.input_weight"] = _summed_products(dh, cache["xin"], runs)
    grads["encoder.input_bias"] = _summed_row_sums(dh, runs)
    dxin = dh @ params.input_weight
    return grads, dxin[:, : params.feature_dim]


def compute_logits(hidden, head) -> np.ndarray:
    """Per-frame class scores (T, V+1) for either head type."""
    hidden = np.asarray(hidden, dtype=float)
    if isinstance(head, EmbeddingHead):
        if hidden.shape[1] != head.proj_weight.shape[1]:
            raise DimensionMismatchError(
                f"hidden width {hidden.shape[1]} does not match projection "
                f"input {head.proj_weight.shape[1]}"
            )
        return _affine(hidden, head.proj_weight, head.proj_bias) @ head.embeddings.T
    if isinstance(head, AffineHead):
        if hidden.shape[1] != head.weight.shape[1]:
            raise DimensionMismatchError(
                f"hidden width {hidden.shape[1]} does not match head input "
                f"{head.weight.shape[1]}"
            )
        return _affine(hidden, head.weight, head.bias)
    raise TypeError(f"unknown head type {type(head).__name__}")


def pack_forward(model: Model, features, masked=()) -> tuple[np.ndarray, dict]:
    """Logits (sum T, V+1) of the (T_i, d) utterances in `features`, laid end
    to end along time, with the mask embedding as the input frame of each
    of the sorted int pack rows `masked`, plus the cache pack_backward
    reads: the pack's slices (the rows of each utterance, in pack order),
    its masked rows, its hidden states and the encoder's backward record.
    For a caller that reads only the logits, pack_logits runs the same
    forward and keeps no record."""
    hidden, cache = _encoder_forward(features, model.encoder, record=True, masked=masked)
    cache.update(hidden=hidden, masked=np.asarray(masked, dtype=int))
    return compute_logits(hidden, model.head), cache


def pack_logits(model: Model, features) -> tuple[np.ndarray, list[slice]]:
    """pack_forward's logits, bit for bit, and the rows of each utterance, in
    pack order, without the backward record."""
    hidden, cache = _encoder_forward(features, model.encoder, record=False)
    return compute_logits(hidden, model.head), cache["slices"]


def pack_backward(model: Model, cache, dlogits, with_encoder: bool = True) -> dict[str, np.ndarray]:
    """Parameter gradients of the summed loss of the utterances of a
    pack_forward cache, for its (sum T, V+1) logit gradient `dlogits`, laid
    out like the pack.

    Each gradient adds one term per utterance, formed on that utterance's
    rows by one stacked product per run of equal lengths, left to right in
    pack order; a pack of one is its utterance alone. The mask embedding's
    gradient adds, left to right, each utterance's sum of the input
    gradients of its masked rows (the cache's). Without `with_encoder` only
    the head's gradients are formed and the encoder backward does not run.
    """
    dlogits = np.asarray(dlogits, dtype=float)
    hidden, slices, runs = cache["hidden"], cache["slices"], cache["runs"]
    head = model.head
    if isinstance(head, EmbeddingHead):
        # compute_logits's projection, recomputed bit for bit from the same inputs
        proj = _affine(hidden, head.proj_weight, head.proj_bias)
        dproj = dlogits @ head.embeddings
        grads = {
            "head.embeddings": _summed_products(dlogits, proj, runs),
            "head.proj_weight": _summed_products(dproj, hidden, runs),
            "head.proj_bias": _summed_row_sums(dproj, runs),
        }
        dout, weight = dproj, head.proj_weight
    else:
        grads = {
            "head.weight": _summed_products(dlogits, hidden, runs),
            "head.bias": _summed_row_sums(dlogits, runs),
        }
        dout, weight = dlogits, head.weight
    if not with_encoder:
        return grads
    encoder_grads, dx = _encoder_backward(dout @ weight, model.encoder, cache)
    grads.update(encoder_grads)
    cuts = np.searchsorted(cache["masked"], [s.stop for s in slices[:-1]])
    sums = (rows.sum(axis=0) for rows in np.split(dx[cache["masked"]], cuts))
    grads["encoder.mask_embedding"] = reduce(iadd, sums, np.zeros(model.encoder.feature_dim))
    return grads


def model_forward(model: Model, features) -> tuple[np.ndarray, dict]:
    """Logits (T, V+1) of one utterance plus the cache needed by model_backward."""
    return pack_forward(model, [features])


def model_backward(model: Model, cache, dlogits, masked_rows=None) -> dict[str, np.ndarray]:
    """Parameter gradients of one utterance for a loss whose logit gradient
    is `dlogits`. `masked_rows` index the frames (int indices or a boolean
    mask, or None for none) whose input model_forward was given as the mask
    embedding; their input gradients add up to the embedding's gradient."""
    masked = np.arange(len(cache["hidden"]))[[] if masked_rows is None else masked_rows]
    return pack_backward(model, {**cache, "masked": masked}, dlogits)


def named_params(model: Model) -> list[tuple[str, np.ndarray]]:
    """All trainable arrays in the fixed order used by the optimizer and
    the checkpoint format."""
    enc = model.encoder
    out = [
        ("encoder.mask_embedding", enc.mask_embedding),
        ("encoder.input_weight", enc.input_weight),
        ("encoder.input_bias", enc.input_bias),
    ]
    for i, block in enumerate(enc.blocks):
        out.append((f"encoder.blocks.{i}.weight", block.weight))
        out.append((f"encoder.blocks.{i}.bias", block.bias))
        if block.attention is not None:
            out.append((f"encoder.blocks.{i}.attention.wq", block.attention.wq))
            out.append((f"encoder.blocks.{i}.attention.wk", block.attention.wk))
            out.append((f"encoder.blocks.{i}.attention.wv", block.attention.wv))
    if isinstance(model.head, EmbeddingHead):
        out.append(("head.proj_weight", model.head.proj_weight))
        out.append(("head.proj_bias", model.head.proj_bias))
        out.append(("head.embeddings", model.head.embeddings))
    else:
        out.append(("head.weight", model.head.weight))
        out.append(("head.bias", model.head.bias))
    return out


def extract_blank_params(head: EmbeddingHead) -> BlankParams:
    """Collapse the blank class to a direct affine row:
    weight = proj_weight^T @ E_blank, bias = proj_bias . E_blank."""
    blank_embedding = head.embeddings[-1]
    return BlankParams(
        weight=head.proj_weight.T @ blank_embedding,
        bias=float(head.proj_bias @ blank_embedding),
    )


def init_finetune_head(
    blank: BlankParams | None,
    vocab: int,
    model_dim: int,
    rng: np.random.Generator,
) -> AffineHead:
    """Fresh affine head for a (possibly different) vocabulary.

    All rows are drawn from the default initializer; when blank parameters
    are given they overwrite the blank row and bias, so two heads built from
    the same seed differ only in that row.
    """
    bound = 1.0 / np.sqrt(model_dim)
    weight = rng.uniform(-bound, bound, size=(vocab + 1, model_dim))
    bias = np.zeros(vocab + 1)
    if blank is not None:
        if blank.weight.shape != (model_dim,):
            raise DimensionMismatchError(
                f"blank weight of shape {blank.weight.shape} does not match "
                f"model width {model_dim}"
            )
        weight[-1] = blank.weight
        bias[-1] = blank.bias
    return AffineHead(weight=weight, bias=bias)


def save_checkpoint(model: Model, path) -> None:
    enc, head = model.encoder, model.head
    embedding = isinstance(head, EmbeddingHead)
    header = (
        0 if embedding else 1,
        enc.feature_dim,
        enc.model_dim,
        head.embeddings.shape[1] if embedding else 0,
        head.vocab,
        len(enc.blocks),
        enc.n_pos,
        NONLIN_CODES[enc.nonlin],
        enc.attn_window,
    )
    flags = [block.attention is not None for block in enc.blocks]
    arrays = [(U32, flags)] + [(F32, arr) for _, arr in named_params(model)]
    write_file(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header, arrays)


def load_checkpoint(path) -> Model:
    with open(path, "rb") as fh:
        reader = FileReader(fh, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, "checkpoint")
        head_kind, d, d_model, d_embed, vocab, n_blocks, n_pos, nonlin_code, attn_window = (
            reader.u32s(9)
        )
        if (
            head_kind not in (0, 1)
            or nonlin_code not in _NONLIN_NAMES
            or 0 in (d, d_model, vocab)
            or n_pos % 2
            or (d_embed == 0) != (head_kind == 1)
        ):
            raise VersionMismatchError("corrupt checkpoint header")
        attn_flags = reader.u32s(n_blocks)
        if not set(attn_flags) <= {0, 1}:
            raise VersionMismatchError("corrupt checkpoint attention flags")

        f32 = partial(reader.array, F32)

        def read_block(flag: int) -> EncoderBlock:
            block = EncoderBlock(weight=f32(d_model, d_model), bias=f32(d_model))
            if flag:
                block.attention = AttentionParams(
                    wq=f32(d_model, d_model), wk=f32(d_model, d_model), wv=f32(d_model, d_model)
                )
            return block

        # Keyword arguments evaluate left to right, which is the file order.
        encoder = EncoderParams(
            mask_embedding=f32(d),
            input_weight=f32(d_model, d + n_pos),
            input_bias=f32(d_model),
            blocks=[read_block(flag) for flag in attn_flags],
            nonlin=_NONLIN_NAMES[nonlin_code],
            n_pos=n_pos,
            attn_window=attn_window,
        )
        if head_kind == 0:
            head = EmbeddingHead(
                proj_weight=f32(d_embed, d_model),
                proj_bias=f32(d_embed),
                embeddings=f32(vocab + 1, d_embed),
            )
        else:
            head = AffineHead(weight=f32(vocab + 1, d_model), bias=f32(vocab + 1))
        reader.end()
        return Model(encoder=encoder, head=head)


def write_blank_params(blank: BlankParams, path) -> None:
    arrays = [(F64, blank.weight), (F64, [blank.bias])]
    write_file(path, BLANK_MAGIC, BLANK_VERSION, (blank.weight.shape[0],), arrays)


def read_blank_params(path) -> BlankParams:
    with open(path, "rb") as fh:
        reader = FileReader(fh, BLANK_MAGIC, BLANK_VERSION, "blank-parameter")
        (d_model,) = reader.u32s(1)
        if d_model == 0:
            raise VersionMismatchError("corrupt blank-parameter header")
        values = reader.array(F64, d_model + 1)  # the weight, then the bias
        reader.end()
    return BlankParams(weight=values[:-1], bias=float(values[-1]))
