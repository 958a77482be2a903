"""The padded batch CTC kernel against the per-region recursion it replaced.

`reference_loss_and_grad` is the earlier one-lattice-at-a-time
forward-backward: a Python loop over frames with fresh shifted rows per
frame. It is slow and kept here only as the reference for the batch kernel.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segctc import brute_force_ctc, ctc_loss, ctc_loss_and_grad, log_softmax
from segctc.ctc import _pack, ctc_loss_packed
from segctc.numerics import NEG_INF

RTOL = 1e-12


def _extended_labels(target, blank):
    ext = np.full(2 * target.size + 1, blank, dtype=int)
    ext[1::2] = target
    return ext


def _skip_allowed(ext, blank):
    ok = np.zeros(ext.size, dtype=bool)
    if ext.size > 2:
        ok[2:] = (ext[2:] != blank) & (ext[2:] != ext[:-2])
    return ok


def _forward(lattice, ext, skip_ok):
    T = lattice.shape[0]
    S = ext.size
    emit = lattice[:, ext]
    alpha = np.full((T, S), NEG_INF)
    alpha[0, 0] = emit[0, 0]
    if S > 1:
        alpha[0, 1] = emit[0, 1]
    for t in range(1, T):
        prev = alpha[t - 1]
        step = np.full(S, NEG_INF)
        step[1:] = prev[:-1]
        skip = np.full(S, NEG_INF)
        skip[2:] = prev[:-2]
        skip[~skip_ok] = NEG_INF
        alpha[t] = np.logaddexp(np.logaddexp(prev, step), skip) + emit[t]
    if S > 1:
        total = float(np.logaddexp(alpha[-1, -1], alpha[-1, -2]))
    else:
        total = float(alpha[-1, -1])
    return alpha, total


def _backward(lattice, ext, skip_ok):
    T = lattice.shape[0]
    S = ext.size
    emit = lattice[:, ext]
    beta = np.full((T, S), NEG_INF)
    beta[-1, -1] = 0.0
    if S > 1:
        beta[-1, -2] = 0.0
    for t in range(T - 2, -1, -1):
        nxt = emit[t + 1] + beta[t + 1]
        step = np.full(S, NEG_INF)
        step[:-1] = nxt[1:]
        skip = np.full(S, NEG_INF)
        if S > 2:
            skip[:-2] = np.where(skip_ok[2:], nxt[2:], NEG_INF)
        beta[t] = np.logaddexp(np.logaddexp(nxt, step), skip)
    return beta


def reference_loss_and_grad(lattice, target):
    lattice = np.asarray(lattice, dtype=float)
    target = np.asarray(target, dtype=int).reshape(-1)
    blank = lattice.shape[1] - 1
    ext = _extended_labels(target, blank)
    skip_ok = _skip_allowed(ext, blank)
    alpha, total = _forward(lattice, ext, skip_ok)
    if total == NEG_INF:
        return float("inf"), np.zeros_like(lattice)
    beta = _backward(lattice, ext, skip_ok)
    state_post = np.exp(alpha + beta - total)
    gamma = np.zeros_like(lattice)
    np.add.at(gamma.T, ext, state_post.T)
    return -total, np.exp(lattice) - gamma


def random_lattice(rng, frames, vocab):
    return log_softmax(rng.normal(size=(frames, vocab + 1)), axis=1)


def end_to_end(lattices):
    """The (T_r, V+1) lattices laid end to end as one pack, and their regions."""
    lengths = [lattice.shape[0] for lattice in lattices]
    ends = np.cumsum(lengths)
    return np.concatenate(lattices), np.stack([ends - lengths, ends], axis=1)


def flat(targets):
    """ctc_loss_packed's target form of a list of targets: their labels end
    to end and each target's length."""
    targets = [np.asarray(target, dtype=int).reshape(-1) for target in targets]
    return np.concatenate([np.zeros(0, dtype=int), *targets]), [t.size for t in targets]


def packed_losses(lattices, targets):
    """ctc_loss_packed's forward-only losses over the lattices end to end."""
    return ctc_loss_packed(*end_to_end(lattices), flat(targets), with_grad=False)[0]


def packed_losses_and_grads(lattices, targets):
    """ctc_loss_packed's losses over the lattices end to end, and each
    lattice's rows of the pack gradient."""
    emissions, regions = end_to_end(lattices)
    losses, grad = ctc_loss_packed(emissions, regions, flat(targets), with_grad=True)
    return losses, [grad[start:end] for start, end in regions]


def assert_matches_reference(lattices, targets):
    losses, grads = packed_losses_and_grads(lattices, targets)
    forward_only = packed_losses(lattices, targets)
    assert losses.shape == forward_only.shape == (len(lattices),)
    assert len(grads) == len(lattices)
    for lattice, target, loss, fwd, grad in zip(lattices, targets, losses, forward_only, grads):
        ref_loss, ref_grad = reference_loss_and_grad(lattice, target)
        assert grad.shape == lattice.shape
        if np.isinf(ref_loss):
            assert loss == fwd == ref_loss
            assert np.all(grad == 0.0)
            continue
        assert abs(loss - ref_loss) <= RTOL * max(1.0, abs(ref_loss))
        assert fwd == loss
        np.testing.assert_allclose(grad, ref_grad, rtol=RTOL, atol=RTOL)


def with_zero_classes(rng, lattice, share):
    """`lattice` with about `share` of its cells at probability zero (-inf),
    renormalized; every frame keeps at least one class."""
    frames, classes = lattice.shape
    zero = rng.random(lattice.shape) < share
    zero[np.arange(frames), rng.integers(classes, size=frames)] = False
    return log_softmax(np.where(zero, NEG_INF, lattice), axis=1)


@st.composite
def batches(draw, max_frames=8, zero_share=0.0):
    """R lattices of mixed lengths over one class count, with any targets
    that fit: empty, as long as the lattice, with adjacent repeats. With
    `zero_share`, about that share of the cells are -inf."""
    vocab = draw(st.integers(1, 4))
    regions = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattices, targets = [], []
    for _ in range(regions):
        frames = draw(st.integers(1, max_frames))
        lattice = random_lattice(rng, frames, vocab)
        lattices.append(with_zero_classes(rng, lattice, zero_share) if zero_share else lattice)
        targets.append(draw(st.lists(st.integers(0, vocab - 1), max_size=frames)))
    return lattices, targets


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_random_batches(self, batch):
        assert_matches_reference(*batch)

    @settings(max_examples=200, deadline=None)
    @given(batches(zero_share=0.2))
    def test_random_batches_with_zero_probability_classes(self, batch):
        assert_matches_reference(*batch)

    @settings(max_examples=100, deadline=None)
    @given(batches(max_frames=4))
    def test_random_batches_against_oracle(self, batch):
        lattices, targets = batch
        losses = packed_losses(lattices, targets)
        for lattice, target, loss in zip(lattices, targets, losses):
            oracle = brute_force_ctc(lattice, target)
            if np.isinf(oracle):
                assert loss == oracle
            else:
                assert abs(loss - oracle) <= 1e-9 * max(1.0, abs(oracle))

    def test_edge_cases_in_one_batch(self):
        rng = np.random.default_rng(0)
        lattices = [
            random_lattice(rng, 1, 3),  # T = 1
            random_lattice(rng, 1, 3),  # T = 1, empty target (S = 1)
            random_lattice(rng, 5, 3),  # empty target on a longer lattice
            random_lattice(rng, 4, 3),  # U = T
            random_lattice(rng, 2, 3),  # adjacent repeat without room: unreachable
            random_lattice(rng, 9, 3),  # the longest region, padded around
            random_lattice(rng, 3, 3),
        ]
        targets = [[2], [], [], [0, 1, 2, 0], [1, 1], [0, 0, 1, 2, 1], [1, 1]]
        assert_matches_reference(lattices, targets)
        losses, grads = packed_losses_and_grads(lattices, targets)
        assert losses[4] == np.inf and np.all(grads[4] == 0.0)
        assert np.isfinite(losses[6])

    def test_each_region_as_if_alone(self):
        rng = np.random.default_rng(1)
        lattices = [random_lattice(rng, int(n), 4) for n in rng.integers(1, 30, size=12)]
        targets = [rng.integers(0, 4, size=int(rng.integers(0, lat.shape[0] // 2 + 1)))
                   for lat in lattices]
        losses, grads = packed_losses_and_grads(lattices, targets)
        for lattice, target, loss, grad in zip(lattices, targets, losses, grads):
            alone_loss, alone_grad = ctc_loss_and_grad(lattice, target)
            assert loss == alone_loss
            np.testing.assert_array_equal(grad, alone_grad)


@st.composite
def packs(draw):
    """A pack of regions of mixed lengths, in any order, with gap rows of NaN
    before, between and after them; about a fifth of the region cells are
    -inf, and targets may hold adjacent repeats that do not fit."""
    vocab = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks, regions, targets = [], [], []
    first = 0
    for _ in range(draw(st.integers(1, 5))):
        gap = draw(st.integers(0, 3))
        frames = draw(st.integers(1, 8))
        blocks.append(np.full((gap, vocab + 1), np.nan))
        blocks.append(with_zero_classes(rng, random_lattice(rng, frames, vocab), 0.2))
        regions.append((first + gap, first + gap + frames))
        targets.append(draw(st.lists(st.integers(0, vocab - 1), max_size=frames)))
        first += gap + frames
    blocks.append(np.full((draw(st.integers(0, 3)), vocab + 1), np.nan))
    order = draw(st.permutations(range(len(regions))))
    return np.concatenate(blocks), [regions[i] for i in order], [targets[i] for i in order]


class TestPacked:
    @settings(max_examples=200, deadline=None)
    @given(packs())
    def test_regions_against_reference(self, pack):
        """Each region's loss and gradient rows match the reference on its
        lattice alone; every row outside a region has gradient exactly 0."""
        emissions, regions, targets = pack
        losses, grad = ctc_loss_packed(emissions, regions, flat(targets), with_grad=True)
        forward_only, none = ctc_loss_packed(emissions, regions, flat(targets), with_grad=False)
        assert none is None
        assert grad.shape == emissions.shape
        inside = np.zeros(emissions.shape[0], dtype=bool)
        for (start, end), target, loss, fwd in zip(regions, targets, losses, forward_only):
            inside[start:end] = True
            ref_loss, ref_grad = reference_loss_and_grad(emissions[start:end], target)
            assert fwd == loss
            if np.isinf(ref_loss):
                assert loss == ref_loss
                assert np.all(grad[start:end] == 0.0)
                continue
            assert abs(loss - ref_loss) <= RTOL * max(1.0, abs(ref_loss))
            np.testing.assert_allclose(grad[start:end], ref_grad, rtol=RTOL, atol=RTOL)
        assert np.all(grad[~inside] == 0.0)

    @settings(max_examples=200, deadline=None)
    @given(packs())
    def test_extended_labels_equal_per_region_fill(self, pack):
        # The one scatter of the flat labels fills each batch row as the loop
        # over regions filled it: target at the odd states, blank elsewhere;
        # a mirrored batch holds the same rows at its even indices.
        emissions, regions, targets = pack
        regions = np.asarray(regions).reshape(-1, 2)
        labels, counts = flat(targets)
        forward = _pack(emissions, regions, labels, np.asarray(counts), mirrored=False)
        states = [2 * len(targets[i]) + 1 for i in forward.order]
        want = np.full((len(targets), max(states)), emissions.shape[1] - 1)
        for row, i in enumerate(forward.order):
            want[row, 1 : states[row] : 2] = targets[i]
        np.testing.assert_array_equal(forward.ext, want)
        mirrored = _pack(emissions, regions, labels, np.asarray(counts), mirrored=True)
        np.testing.assert_array_equal(mirrored.ext[::2], want)

    @pytest.mark.parametrize(
        "regions",
        [[(0, 3), (2, 5)], [(4, 6), (0, 5)], [(1, 4), (1, 4)], [(-1, 2)], [(3, 7)], [(2, 2)]],
        ids=["overlap", "overlap-unsorted", "repeated", "negative-start", "past-end", "empty"],
    )
    @pytest.mark.parametrize("with_grad", [True, False])
    def test_bad_regions_rejected(self, regions, with_grad):
        emissions = random_lattice(np.random.default_rng(5), 6, 3)
        with pytest.raises(ValueError):
            ctc_loss_packed(emissions, regions, flat([[0]] * len(regions)), with_grad)

    def test_no_regions(self):
        emissions = random_lattice(np.random.default_rng(6), 4, 2)
        losses, grad = ctc_loss_packed(emissions, [], flat([]), with_grad=True)
        assert losses.shape == (0,)
        assert grad.shape == emissions.shape and np.all(grad == 0.0)


class TestBatchContract:
    def test_empty_batch(self):
        losses, grad = ctc_loss_packed(np.zeros((0, 3)), [], flat([]), with_grad=True)
        assert losses.shape == (0,) and grad.shape == (0, 3)
        assert ctc_loss_packed(np.zeros((0, 3)), [], flat([]), with_grad=False)[0].shape == (0,)

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            packed_losses([random_lattice(rng, 3, 2)], [[0], [1]])

    def test_empty_lattice_rejected(self):
        with pytest.raises(ValueError):
            ctc_loss(np.zeros((0, 3)), [])

    def test_non_finite_lattice_propagates_without_warnings(self):
        rng = np.random.default_rng(4)
        lattice = random_lattice(rng, 4, 3)
        lattice[1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss, grad = ctc_loss_and_grad(lattice, [0, 1])
            forward_only = ctc_loss(lattice, [0, 1])
        assert np.isnan(loss) and np.isnan(forward_only)
        assert np.isnan(grad).any()
