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
rides in the same batch when a gradient is wanted. The lattice-list and
one-lattice functions join their lattices into a pack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EnumerationTooLargeError, InfeasibleTargetError
from .numerics import NEG_INF, log_sum_exp

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
    out: list[int] = []
    prev = None
    for sym in path:
        sym = int(sym)
        if sym != prev:
            if sym != blank:
                out.append(sym)
            prev = sym
    return out


def _pack(emissions, regions, targets, mirrored: bool) -> _Packed:
    """Check each region's target and pad the regions of `emissions` into
    one batch, each followed by its reversal when `mirrored`."""
    n_classes = emissions.shape[1]
    blank = n_classes - 1
    lengths = regions[:, 1] - regions[:, 0]
    for target, frames in zip(targets, lengths):
        if target.size > frames:
            raise InfeasibleTargetError(
                f"target of length {target.size} cannot fit in {frames} frames"
            )
    labels = np.concatenate(targets)
    if labels.size and (labels.min() < 0 or labels.max() >= blank):
        raise ValueError("target labels must lie in [0, V)")
    order = np.argsort(-lengths, kind="stable")
    frames = lengths[order]
    starts = regions[order, 0]
    states = np.array([2 * targets[i].size + 1 for i in order])
    n_frames, n_regions, n_states = int(frames[0]), order.size, int(states.max())
    ext = np.full((n_regions, n_states), blank)
    for row, i in enumerate(order):
        ext[row, 1 : states[row] : 2] = targets[i]
    # Frames past a region's end read its last row; the recursion never uses them.
    t = np.minimum(np.arange(n_frames)[:, None], frames[None, :] - 1)
    at = starts[None, :] + t
    s = np.arange(n_states)
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
    frames = frames[live]
    rows = np.repeat(p.starts[live] - np.cumsum(frames) + frames, frames)
    rows += np.arange(rows.size)
    grad = np.zeros_like(p.emissions)
    grad[rows] = np.exp(p.emissions[rows]) - gamma[rows]
    return grad


def ctc_loss_packed(emissions, regions, targets, with_grad: bool):
    """ctc_loss of every region of a pack against its target and, with
    `with_grad`, the pack gradient of their sum (else None).

    Region r is the lattice emissions[start:end], (start, end) = regions[r],
    of the (N, V+1) pack; regions are non-empty, disjoint, in any order. They
    are padded into one batch, longest first, so that frame t updates only
    the regions still running (the padded layout of warp-ctc). Each region's
    loss and gradient rows are bitwise those of a pack holding it alone. The
    gradient is softmax - gamma on the rows of each region and exactly 0 on
    every other row, including those of a region whose target is unreachable.
    """
    emissions = np.asarray(emissions, dtype=float)
    if emissions.ndim != 2 or emissions.shape[1] < 2:
        raise ValueError(f"emissions must be (N, V+1) with V >= 1, got {emissions.shape}")
    regions = np.asarray(regions, dtype=int).reshape(-1, 2)
    targets = [np.asarray(target, dtype=int).reshape(-1) for target in targets]
    if len(regions) != len(targets):
        raise ValueError(f"{len(regions)} regions but {len(targets)} targets")
    # Sorted by start, the edges 0, start, end, start, end, ..., N of disjoint
    # non-empty regions never fall and always rise within a region.
    edges = np.diff([0, *regions[np.argsort(regions[:, 0])].ravel(), emissions.shape[0]])
    if np.any(edges < 0) or np.any(edges[1::2] == 0):
        raise ValueError(f"regions must be non-empty, disjoint rows of {emissions.shape[0]}")
    if not targets:
        return np.zeros(0), (np.zeros_like(emissions) if with_grad else None)
    p = _pack(emissions, regions, targets, mirrored=with_grad)
    grad = None
    with np.errstate(invalid="ignore"):
        alpha, total = _forward(p)
        if with_grad:
            grad, total = _grad(p, alpha, total), total[::2]
    losses = np.empty(total.size)
    losses[p.order] = -total
    return losses, grad


def _joined(lattices, targets):
    """The (T_r, V+1) lattices end to end as one pack, and their regions."""
    lattices = [np.asarray(lattice, dtype=float) for lattice in lattices]
    if len(lattices) != len(targets):
        raise ValueError(f"{len(lattices)} lattices but {len(targets)} targets")
    for lattice in lattices:
        if lattice.ndim != 2 or lattice.shape[1] < 2 or lattice.shape[0] < 1:
            raise ValueError(
                f"lattice must be (T, V+1) with T >= 1 and V >= 1, got {lattice.shape}"
            )
    classes = {lattice.shape[1] for lattice in lattices}
    if len(classes) > 1:
        raise ValueError(f"lattices of one batch must share V+1, got {sorted(classes)}")
    lengths = [lattice.shape[0] for lattice in lattices]
    ends = np.cumsum(lengths)
    return np.concatenate(lattices), np.stack([ends - lengths, ends], axis=1)


def ctc_loss_batch(lattices, targets) -> np.ndarray:
    """ctc_loss of every (lattice, target) pair: one forward recursion over
    the padded batch. Lattices may differ in length, not in V+1."""
    if len(lattices) == 0:
        return np.zeros(0)
    return ctc_loss_packed(*_joined(lattices, targets), targets, with_grad=False)[0]


def ctc_loss_and_grad_batch(lattices, targets) -> tuple[np.ndarray, list[np.ndarray]]:
    """ctc_loss_and_grad of every (lattice, target) pair, in input order,
    from one ctc_loss_packed call over the lattices end to end."""
    if len(lattices) == 0:
        return np.zeros(0), []
    emissions, regions = _joined(lattices, targets)
    losses, grad = ctc_loss_packed(emissions, regions, targets, with_grad=True)
    return losses, [grad[start:end] for start, end in regions]


def ctc_loss(lattice, target) -> float:
    """Negative log-probability of all paths collapsing to `target`.

    +inf when no path can produce the target (e.g. adjacent repeats with no
    room for a separating blank). Raises InfeasibleTargetError when the target
    is longer than the lattice.
    """
    return float(ctc_loss_batch([lattice], [target])[0])


def ctc_loss_and_grad(lattice, target) -> tuple[float, np.ndarray]:
    """Loss plus its gradient with respect to the pre-softmax logits.

    The gradient is softmax - gamma, where gamma[t, k] is the posterior
    occupancy of class k at frame t. For an unreachable target (infinite
    loss) the gradient is left at zero.
    """
    losses, grads = ctc_loss_and_grad_batch([lattice], [target])
    return float(losses[0]), grads[0]


def ctc_grad(lattice, target) -> np.ndarray:
    """Gradient of ctc_loss with respect to the pre-softmax logits."""
    return ctc_loss_and_grad(lattice, target)[1]


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
    lattice = np.asarray(lattice, dtype=float)
    best = np.argmax(lattice, axis=1)
    return collapse_path(best, lattice.shape[1] - 1)
