"""Stable log-domain kernels and a finite-difference gradient checker."""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Callable

import numpy as np

NEG_INF = float("-inf")


def left_sum(values) -> float:
    """Floats added left to right from 0.0; sum() compensates them from Python 3.12 on."""
    return reduce(add, values, 0.0)


def concat_ranges(starts, lengths) -> np.ndarray:
    """The rows start, ..., start + n - 1 of every (start, n) pair of the int
    arrays, in order: np.concatenate of their np.arange ranges, in one pass."""
    return np.repeat(starts - lengths.cumsum() + lengths, lengths) + np.arange(lengths.sum())


def log_sum_exp(values) -> float:
    """log(sum(exp(values))), stable against overflow.

    The empty sum is zero probability, so an empty input returns -inf.
    -inf entries contribute nothing; NaN propagates.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return NEG_INF
    m = float(np.max(arr))
    if m == NEG_INF:
        return NEG_INF
    return m + float(np.log(np.sum(np.exp(arr - m))))


def axis_max(a: np.ndarray, axis: int) -> np.ndarray:
    """The values of a.max(axis=axis, keepdims=True), NaN where a lane along
    `axis` holds NaN.

    numpy reduces each short row of a 2-D array along axis 1 on its own; down
    the leading axis of a contiguous copy with `axis` swapped first the
    reduction is one pass, several times cheaper on an (800, 7) attention
    band or (800, 21) logits. Where a maximum is zero, its sign may differ
    from a.max's; subtracting a zero of either sign from a nonzero value, or
    taking exp of it, gives the same bits.
    """
    swapped = np.ascontiguousarray(a.swapaxes(0, axis))
    return swapped.max(axis=0, keepdims=True).swapaxes(0, axis)


def log_softmax(logits, axis: int = -1) -> np.ndarray:
    """logits minus their log-sum-exp along `axis`.

    exp of the result sums to 1 along `axis` to double-precision roundoff.
    """
    arr = np.asarray(logits, dtype=float)
    shifted = arr - axis_max(arr, axis)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def check_gradient(f: Callable[[np.ndarray], tuple], x, eps: float = 1e-5) -> float:
    """Max relative error between central differences and the analytic gradient.

    `f` maps a 1-D parameter vector to `(value, gradient)`. For each coordinate
    the central difference (f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps) is
    compared to the analytic gradient; the error per coordinate is
    |fd - analytic| / max(1, |analytic|) and the max over coordinates returned.
    """
    x = np.asarray(x, dtype=float)
    _, analytic = f(x)
    analytic = np.asarray(analytic, dtype=float).ravel()
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = eps
        hi, _ = f(x + step)
        lo, _ = f(x - step)
        fd = (hi - lo) / (2.0 * eps)
        err = abs(fd - analytic[i]) / max(1.0, abs(analytic[i]))
        worst = max(worst, err)
    return worst
