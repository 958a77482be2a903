"""CTC loss and gradient over a log-probability lattice, plus a brute-force oracle.

Conventions: a lattice is a (T, V+1) array of per-frame log-probabilities whose
rows each sum to 1 after exponentiation; the blank class sits at the last
column (index V). Targets are integer sequences over [0, V), never blank.
The loss is computed with the extended-label forward recursion (labels
interleaved with blanks, 2U+1 states), entirely in the log domain.

Every loss goes through one kernel, `ctc_loss_packed`. It works on a pack:
(N, V+1) rows with each lattice a row range, a region. The regions are
gathered into one time-major batch that shares a single alpha recursion, so
the Python loop over frames runs once per batch, not once per region. There
is no beta recursion: beta is the alpha of the time-reversed region, which
rides in the same batch when a gradient is wanted. One lattice is one region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLargeError, InfeasibleTargetError
from .numerics import NEG_INF, concat_ranges, log_sum_exp
from .targets import dedup

ENUMERATION_LIMIT = 10_000_000
_ENUMERATION_CHUNK = 1 << 16


@dataclass(frozen=True)
class _Packed:
    """R regions of a pack padded into one batch of N recursion rows, longest first.

    Region k is input order[k]. It is row k of the recursion, or, in a
    mirrored batch (N = 2R), rows 2k and 2k+1: the region, then the region
    reversed in time and in its extended labels. Frame t of the recursion
    covers rows [:rows[t]], those longer than t, and states [:cols[t]]; the
    rest of each (T, N, S) array is padding.
    """

    order: np.ndarray  # (R,) input index of each region
    starts: np.ndarray  # (R,) first row of each region in `emissions`
    emissions: np.ndarray  # (rows, V+1) the whole pack
    frames: np.ndarray  # (N,) T_r, descending
    states: np.ndarray  # (N,) S_r = 2 U_r + 1
    ext: np.ndarray  # (N, S) extended labels, blank past S_r
    skip_pen: np.ndarray  # (N, S) 0 where state s may be entered from s-2, else -inf
    emit: np.ndarray  # (T, N, S) log-probability of ext[n, s] at frame t, -inf past S_r
    rows: list[int]  # (T,)
    cols: list[int]  # (T,)


def collapse_path(path, blank: int) -> list[int]:
    """Map a frame-level path to labels: collapse adjacent repeats, drop blanks."""
    return [int(s) for s in dedup(path) if s != blank]


def _pack(emissions, regions, labels, counts, mirrored: bool) -> _Packed:
    """Check each region's target and pad the regions of `emissions` into
    one batch, each followed by its reversal when `mirrored`. Region r's
    target is the next counts[r] of the flat `labels`."""
    n_classes = emissions.shape[1]
    blank = n_classes - 1
    sizes = regions[:, 1] - regions[:, 0]
    if (counts > sizes).any():
        r = (counts > sizes).argmax()
        raise InfeasibleTargetError(f"target of length {counts[r]} cannot fit in {sizes[r]} frames")
    if labels.size and (labels.min() < 0 or labels.max() >= blank):
        raise ValueError("target labels must lie in [0, V)")
    order = np.argsort(-sizes, kind="stable")
    frames = sizes[order]
    starts = regions[order, 0]
    states = 2 * counts + 1
    n_frames, n_regions, n_states = int(frames[0]), order.size, int(states.max())
    s = np.arange(n_states)
    # Row by row, the odd states below each region's S_r take the flat labels
    # in order: one scatter, then the batch order.
    ext = np.full((n_regions, n_states), blank)
    ext[(s % 2 == 1) & (s < states[:, None])] = labels
    ext, states = ext[order], states[order]
    # Frames past a region's end read its last row; the recursion never uses them.
    t = np.minimum(np.arange(n_frames)[:, None], frames[None, :] - 1)
    at = starts[None, :] + t
    if mirrored:
        # Row 2k+1 reads region k at frame T_k-1-t and state S_k-1-s.
        back = np.where(s < states[:, None], states[:, None] - 1 - s, s)
        ext = np.stack([ext, np.take_along_axis(ext, back, axis=1)], axis=1)
        ext = ext.reshape(2 * n_regions, n_states)
        at = np.stack([at, starts + frames - 1 - t], axis=2).reshape(n_frames, 2 * n_regions)
        frames, states = np.repeat(frames, 2), np.repeat(states, 2)
    skip_pen = np.full(ext.shape, NEG_INF)
    skip_pen[:, 2:][(ext[:, 2:] != blank) & (ext[:, 2:] != ext[:, :-2])] = 0.0
    # One flat index gathers faster than a pair of broadcast index arrays.
    emit = emissions.ravel()[at[:, :, None] * n_classes + ext[None, :, :]]
    emit[:, s[None, :] >= states[:, None]] = NEG_INF
    rows = (frames[None, :] > np.arange(n_frames)[:, None]).sum(axis=1)
    return _Packed(
        order=order,
        starts=starts,
        emissions=emissions,
        frames=frames,
        states=states,
        ext=ext,
        skip_pen=skip_pen,
        emit=emit,
        rows=rows.tolist(),
        cols=np.maximum.accumulate(states)[rows - 1].tolist(),
    )


def _forward(p: _Packed) -> tuple[np.ndarray, np.ndarray]:
    """Alpha, (T, N, S), and the log-probability of each row's target."""
    n_frames, n_rows, n_states = p.emit.shape
    # Two leading -inf columns stand in for the s-1 and s-2 predecessors of
    # states 0 and 1, so no frame needs a shifted copy.
    alpha = np.full((n_frames, n_rows, n_states + 2), NEG_INF)
    first = min(n_states, 2)
    alpha[0, :, 2 : 2 + first] = p.emit[0, :, :first]
    skip = np.empty((n_rows, n_states))
    for t in range(1, n_frames):
        n, s = p.rows[t], p.cols[t]
        prev = alpha[t - 1, :n]
        out = alpha[t, :n, 2 : s + 2]
        sk = skip[:n, :s]
        np.logaddexp(prev[:, 2 : s + 2], prev[:, 1 : s + 1], out=out)
        np.add(prev[:, :s], p.skip_pen[:n, :s], out=sk)
        np.logaddexp(out, sk, out=out)
        out += p.emit[t, :n, :s]
    alpha = alpha[:, :, 2:]
    last, all_rows = p.frames - 1, np.arange(n_rows)
    end = alpha[last, all_rows, p.states - 1]
    before = alpha[last, all_rows, np.maximum(p.states - 2, 0)]
    total = np.where(p.states > 1, np.logaddexp(end, before), end)
    return alpha, total


def _grad(p: _Packed, alpha, total) -> np.ndarray:
    """softmax - gamma of a mirrored batch, laid out like `p.emissions`: on
    the rows of every region with a reachable target, and exactly 0 on all
    other rows. Beta of region k at (t, s) is the alpha of its reversal, row
    2k+1, at (T_k-1-t, S_k-1-s) less the emission at (t, s) (Graves et al.,
    2006). One scatter adds every frame's state posteriors into their
    classes, in ascending state order."""
    n_frames, _, n_states = alpha.shape
    frames, states, total = p.frames[::2], p.states[::2], total[::2]
    live = total != NEG_INF
    cells = (
        (np.arange(n_frames)[:, None, None] < frames[None, :, None])
        & (np.arange(n_states)[None, None, :] < states[None, :, None])
        & live[None, :, None]
    )
    t, k, s = np.nonzero(cells)
    r = 2 * k
    emit = p.emit[t, r, s]
    beta = alpha[frames[k] - 1 - t, r + 1, states[k] - 1 - s] - emit
    post = np.exp(alpha[t, r, s] + beta - total[k])
    post[emit == NEG_INF] = 0.0  # no path crosses the cell; -inf - -inf is NaN
    n_classes = p.emissions.shape[1]
    dest = (p.starts[k] + t) * n_classes + p.ext[r, s]
    gamma = np.bincount(dest, weights=post, minlength=p.emissions.size)
    gamma = gamma.reshape(p.emissions.shape)
    # The pack row of every frame of every live region, region by region.
    rows = concat_ranges(p.starts[live], frames[live])
    grad = np.zeros_like(p.emissions)
    grad[rows] = np.exp(p.emissions[rows]) - gamma[rows]
    return grad


def ctc_loss_packed(emissions, regions, targets, with_grad: bool):
    """ctc_loss of every region of a pack against its target and, with
    `with_grad`, the pack gradient of their sum (else None).

    Region r is the lattice emissions[start:end], (start, end) = regions[r],
    of the (N, V+1) pack; regions are non-empty, disjoint, in any order.
    `targets` is the pair (labels, counts): region r's target is the next
    counts[r] labels of the flat `labels`, in region order. The regions are
    padded into one batch, longest first, so that frame t updates only the
    regions still running (the padded layout of warp-ctc). Each region's
    loss and gradient rows are bitwise those of a pack holding it alone. The
    gradient is softmax - gamma on the rows of each region and exactly 0 on
    every other row, including those of a region whose target is unreachable.
    """
    emissions = np.asarray(emissions, dtype=float)
    if emissions.ndim != 2 or emissions.shape[1] < 2:
        raise ValueError(f"emissions must be (N, V+1) with V >= 1, got {emissions.shape}")
    regions = np.asarray(regions, dtype=int).reshape(-1, 2)
    labels, counts = (np.asarray(part, dtype=int).reshape(-1) for part in targets)
    if len(regions) != len(counts) or counts.sum() != labels.size:
        raise ValueError(f"{len(regions)} regions, target lengths {counts}, {labels.size} labels")
    # Sorted by start, the edges 0, start, end, start, end, ..., N of disjoint
    # non-empty regions never fall and always rise within a region.
    edges = np.diff([0, *regions[np.argsort(regions[:, 0])].ravel(), emissions.shape[0]])
    if (edges < 0).any() or (edges[1::2] == 0).any():
        raise ValueError(f"regions must be non-empty, disjoint rows of {emissions.shape[0]}")
    if not counts.size:
        return np.zeros(0), (np.zeros_like(emissions) if with_grad else None)
    p = _pack(emissions, regions, labels, counts, mirrored=with_grad)
    grad = None
    with np.errstate(invalid="ignore"):
        alpha, total = _forward(p)
        if with_grad:
            grad, total = _grad(p, alpha, total), total[::2]
    losses = np.empty(total.size)
    losses[p.order] = -total
    return losses, grad


def ctc_loss(lattice, target) -> float:
    """Negative log-probability of all paths collapsing to `target`.

    +inf when no path can produce the target (e.g. adjacent repeats with no
    room for a separating blank). Raises InfeasibleTargetError when the target
    is longer than the lattice.
    """
    losses, _ = ctc_loss_packed(lattice, [(0, len(lattice))], (target, np.size(target)), False)
    return float(losses[0])


def ctc_loss_and_grad(lattice, target) -> tuple[float, np.ndarray]:
    """Loss plus its gradient with respect to the pre-softmax logits.

    The gradient is softmax - gamma, where gamma[t, k] is the posterior
    occupancy of class k at frame t. For an unreachable target (infinite
    loss) the gradient is left at zero.
    """
    (loss,), grad = ctc_loss_packed(lattice, [(0, len(lattice))], (target, np.size(target)), True)
    return float(loss), grad


def brute_force_ctc(lattice, target) -> float:
    """Oracle: enumerate every length-T path and sum those collapsing to `target`.

    Exact but exponential; guarded to (V+1)^T <= ENUMERATION_LIMIT.
    """
    lattice = np.asarray(lattice, dtype=float)
    target = np.asarray(target, dtype=int).reshape(-1)
    T, C = lattice.shape
    blank = C - 1
    n_paths = C**T
    if n_paths > ENUMERATION_LIMIT:
        raise EnumerationTooLargeError(
            f"{C}^{T} = {n_paths} paths exceeds the {ENUMERATION_LIMIT} limit"
        )
    u = target.size
    powers = C ** np.arange(T - 1, -1, -1, dtype=np.int64)
    matched: list[np.ndarray] = []
    for lo in range(0, n_paths, _ENUMERATION_CHUNK):
        idx = np.arange(lo, min(lo + _ENUMERATION_CHUNK, n_paths), dtype=np.int64)
        paths = (idx[:, None] // powers[None, :]) % C
        logp = lattice[np.arange(T)[None, :], paths].sum(axis=1)
        keep = np.ones(paths.shape, dtype=bool)
        keep[:, 1:] = paths[:, 1:] != paths[:, :-1]
        keep &= paths != blank
        candidates = keep.sum(axis=1) == u
        if not candidates.any():
            continue
        if u == 0:
            matched.append(logp[candidates])
            continue
        collapsed = paths[candidates][keep[candidates]].reshape(-1, u)
        hits = (collapsed == target[None, :]).all(axis=1)
        matched.append(logp[candidates][hits])
    if not matched:
        return float("inf")
    return -log_sum_exp(np.concatenate(matched))


def greedy_collapse(lattice) -> list[int]:
    """Per-frame argmax (ties to the lowest index) followed by path collapse."""
    return collapse_path(np.argmax(lattice, axis=1), np.shape(lattice)[1] - 1)
