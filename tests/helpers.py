"""Random draws shared by the CTC and acceptance tests."""

from segctc import log_softmax


def random_lattice(rng, frames, vocab):
    return log_softmax(rng.normal(size=(frames, vocab + 1)), axis=1)


def random_dedup_target(rng, vocab, length):
    target = []
    for _ in range(length):
        c = int(rng.integers(vocab))
        while target and vocab > 1 and c == target[-1]:
            c = int(rng.integers(vocab))
        target.append(c)
    return target
