"""Output checks: CTC against independent references, analyze reports in range.

`reference_ctc` is a deliberately slow scalar log-domain forward-backward
(Graves et al., ICML 2006), written out state by state so that it shares no
code with `segctc.ctc`. Windows of at most BRUTE_FORCE_FRAMES frames are also
checked against the package's path-enumeration oracle, `brute_force_ctc`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from segctc import brute_force_ctc, ctc_loss_and_grad, dedup

NEG_INF = float("-inf")
BRUTE_FORCE_FRAMES = 4  # 21^4 paths at V=20: about 10 ms per window
LOSS_RTOL = 1e-9
GRAD_ATOL = 1e-9


def _logadd(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


def reference_ctc(lattice, target) -> tuple[float, np.ndarray]:
    """CTC loss and its gradient with respect to the pre-softmax logits.

    `lattice` is (T, V+1) log-probabilities with blank last. Returns
    (inf, zeros) when no path collapses to `target`.
    """
    lp = np.asarray(lattice, dtype=float).tolist()
    frames, classes = len(lp), len(lp[0])
    blank = classes - 1
    ext = [blank]
    for label in target:
        ext += [int(label), blank]
    states = len(ext)

    def can_skip(s: int) -> bool:
        return s >= 2 and ext[s] != blank and ext[s] != ext[s - 2]

    alpha = [[NEG_INF] * states for _ in range(frames)]
    alpha[0][0] = lp[0][ext[0]]
    if states > 1:
        alpha[0][1] = lp[0][ext[1]]
    for t in range(1, frames):
        for s in range(states):
            a = alpha[t - 1][s]
            if s >= 1:
                a = _logadd(a, alpha[t - 1][s - 1])
            if can_skip(s):
                a = _logadd(a, alpha[t - 1][s - 2])
            alpha[t][s] = a + lp[t][ext[s]]

    # beta[t][s]: log-probability of the frames after t, given state s at t.
    beta = [[NEG_INF] * states for _ in range(frames)]
    beta[-1][-1] = 0.0
    if states > 1:
        beta[-1][-2] = 0.0
    for t in range(frames - 2, -1, -1):
        for s in range(states):
            b = beta[t + 1][s] + lp[t + 1][ext[s]]
            if s + 1 < states:
                b = _logadd(b, beta[t + 1][s + 1] + lp[t + 1][ext[s + 1]])
            if s + 2 < states and can_skip(s + 2):
                b = _logadd(b, beta[t + 1][s + 2] + lp[t + 1][ext[s + 2]])
            beta[t][s] = b

    total = alpha[-1][-1]
    if states > 1:
        total = _logadd(total, alpha[-1][-2])
    grad = np.zeros((frames, classes))
    if total == NEG_INF:
        return math.inf, grad
    for t in range(frames):
        for k in range(classes):
            grad[t][k] = math.exp(lp[t][k])
        for s in range(states):
            if alpha[t][s] != NEG_INF and beta[t][s] != NEG_INF:
                grad[t][ext[s]] -= math.exp(alpha[t][s] + beta[t][s] - total)
    return -total, grad


def _loss_close(a: float, b: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= LOSS_RTOL * max(1.0, abs(b))


def check_ctc(cases) -> tuple[int, list[str]]:
    """Check `ctc_loss_and_grad` on (lattice, frame_ids) cases.

    The target of each case is dedup(frame_ids), as for a masked region or a
    finetuning utterance. Loss and gradient are compared with `reference_ctc`
    on the whole lattice; on the first BRUTE_FORCE_FRAMES frames, taken as a
    region of their own, the loss is also compared with `brute_force_ctc`.
    Returns (comparisons made, failure messages).
    """
    checked = 0
    failures = []
    for i, (lattice, ids) in enumerate(cases):
        window = min(len(ids), BRUTE_FORCE_FRAMES)
        for label, lat, target in (
            ("whole", lattice, dedup(ids)),
            ("window", lattice[:window], dedup(ids[:window])),
        ):
            loss, grad = ctc_loss_and_grad(lat, target)
            ref_loss, ref_grad = reference_ctc(lat, target)
            checked += 1
            if not _loss_close(loss, ref_loss):
                failures.append(f"case {i} {label}: loss {loss!r} != reference {ref_loss!r}")
            err = float(np.max(np.abs(grad - ref_grad)))
            if not err <= GRAD_ATOL:
                failures.append(f"case {i} {label}: gradient off the reference by {err:.3g}")
            if label == "window":
                oracle = brute_force_ctc(lat, target)
                checked += 1
                if not _loss_close(loss, oracle):
                    failures.append(f"case {i} window: loss {loss!r} != oracle {oracle!r}")
    return checked, failures


def check_report(values) -> list[str]:
    """The four posterior averages of an analyze report must lie in (0, 1)
    and the two relative degradations must be finite."""
    failures = []
    probs = [values[0], values[1], values[3], values[4]]
    for p in probs:
        if not (math.isfinite(p) and 0.0 < p < 1.0):
            failures.append(f"posterior probability {p!r} outside (0, 1)")
    for rel in (values[2], values[5]):
        if not math.isfinite(rel):
            failures.append(f"relative degradation {rel!r} is not finite")
    return failures


def read_report_tsv(path) -> list[float]:
    """The six figures of report.tsv: ce then ctc (clean, degraded, relative)."""
    rows = [line.split("\t") for line in Path(path).read_text().splitlines()]
    return [float(x) for row in rows[1:3] for x in row[1:4]]
