"""Synthetic frame corpora with ground-truth alignments and controlled label errors.

Each utterance is a run-structured label sequence from a V-state Markov chain;
features are fixed unit-norm class means plus Gaussian noise. Training ids are
derived from the true ids by two independent error modes: run-boundary jitter
(misalignment, which preserves the deduplicated label sequence) and run-label
corruption (low-quality labels).

Corpus file format (version 1, little-endian):
    magic b"CORP", version u32, n_utterances u32, feature_dim u32, vocab u32
    per utterance: T u32, features float32 row-major (T * d),
                   true_ids int32 (T), noisy_ids int32 (T)
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .codec import F32, I32, U32, FileReader, write_file
from .errors import ConfigError, EmptyDatasetError, VersionMismatchError
from .seeding import seeded_rng

CORPUS_MAGIC = b"CORP"
CORPUS_VERSION = 1

_MEANS_STREAM = 0
_UTTERANCE_STREAM = 1

# Features are unit-norm means plus sigma times standard normal draws, stored
# as float32. numpy's ziggurat normal sampler draws its tail as r - log(u) / r
# with r = 3.654 and u a 53-bit uniform, so no draw reaches 3.66 + 53 ln 2 / r
# < 14 in magnitude, and below this bound every feature fits a float32.
_SIGMA_MAX = float(np.finfo(np.float32).max) / 16


@dataclass(frozen=True)
class CorpusConfig:
    utterances: int
    frames: int
    vocab: int
    feature_dim: int
    self_loop: float = 0.95
    sigma: float = 0.5
    jitter_k: int = 2
    jitter_q: float = 0.5
    corrupt_r: float = 0.05
    seed: int = 0

    def __post_init__(self):
        # Each is a u32 field of the corpus file.
        for name, low in (("utterances", 1), ("frames", 1), ("feature_dim", 1), ("vocab", 2)):
            value = getattr(self, name)
            if not low <= value < 2**32:
                raise ConfigError(f"{name} must lie in [{low}, 2^32), got {value}")
        for name in ("self_loop", "jitter_q", "corrupt_r"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 <= self.sigma <= _SIGMA_MAX:
            raise ConfigError(
                f"sigma must lie in [0, {_SIGMA_MAX:.6g}] for features to fit the "
                f"corpus file's float32, got {self.sigma}"
            )
        if self.jitter_k < 0:
            raise ConfigError("jitter_k must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")


@dataclass
class Utterance:
    features: np.ndarray
    true_ids: np.ndarray
    noisy_ids: np.ndarray


@dataclass
class Corpus:
    vocab: int
    utterances: list[Utterance]

    @property
    def feature_dim(self) -> int:
        return self.utterances[0].features.shape[1]


def class_means(config: CorpusConfig) -> np.ndarray:
    """Fixed unit-norm class mean vectors, shared by every split of a corpus."""
    rng = seeded_rng(config.seed, _MEANS_STREAM)
    raw = rng.normal(size=(config.vocab, config.feature_dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _sample_chain(frames: int, vocab: int, self_loop: float, rng) -> np.ndarray:
    ids = np.empty(frames, dtype=int)
    ids[0] = rng.integers(vocab)
    if frames > 1:
        stay = rng.random(frames - 1) < self_loop
        jumps = rng.integers(0, vocab - 1, size=frames - 1)
        for t in range(1, frames):
            if stay[t - 1]:
                ids[t] = ids[t - 1]
            else:
                jump = jumps[t - 1]
                ids[t] = jump + 1 if jump >= ids[t - 1] else jump
    return ids


def _run_lengths(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    boundaries = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [ids.size]))
    return ids[starts], ends - starts


def shift_run_boundaries(lengths, offsets) -> np.ndarray:
    """Apply per-boundary offsets to the run structure, never letting a run
    shrink below one frame or a boundary cross its neighbours.

    Offsets are applied left to right; an offset that would violate the
    constraints is rejected (the boundary stays put).
    """
    lengths = np.asarray(lengths, dtype=int)
    total = int(lengths.sum())
    bounds = np.cumsum(lengths)[:-1]
    new_bounds = np.empty_like(bounds)
    prev = 0
    for i, b in enumerate(bounds):
        upper = bounds[i + 1] if i + 1 < bounds.size else total
        candidate = b + int(offsets[i])
        if not (prev + 1 <= candidate <= upper - 1):
            candidate = int(b)
        new_bounds[i] = candidate
        prev = candidate
    edges = np.concatenate(([0], new_bounds, [total]))
    return np.diff(edges)


def _jitter(lengths, k: int, q: float, rng) -> np.ndarray:
    """Jitter run boundaries by uniform offsets in [-k, k] with probability q.

    Only boundaries whose two adjacent runs are longer than k are eligible, so
    the offset distribution is direction-symmetric wherever it applies (a
    one-sided rejection rule would systematically widen short runs, turning
    the misalignment into a signal a frame classifier can learn).
    """
    if lengths.size < 2 or k == 0 or q == 0.0:
        return lengths.copy()
    offsets = np.zeros(lengths.size - 1, dtype=int)
    for i in range(offsets.size):
        if lengths[i] > k and lengths[i + 1] > k and rng.random() < q:
            offsets[i] = rng.integers(-k, k + 1)
    return shift_run_boundaries(lengths, offsets)


def _corrupt(labels, vocab: int, r: float, rng) -> np.ndarray:
    out = labels.copy()
    for i in range(out.size):
        if rng.random() < r:
            draw = rng.integers(vocab - 1)
            out[i] = draw + 1 if draw >= out[i] else draw
    return out


def generate_utterance(
    config: CorpusConfig, means: np.ndarray, index: int, stream: int = 0
) -> Utterance:
    """One utterance from its own derived stream: chain, feature noise,
    boundary jitter, then run corruption, in that fixed draw order."""
    rng = seeded_rng(config.seed, _UTTERANCE_STREAM, stream, index)
    true_ids = _sample_chain(config.frames, config.vocab, config.self_loop, rng)
    noise = rng.normal(size=(config.frames, config.feature_dim))
    features = means[true_ids] + config.sigma * noise
    labels, lengths = _run_lengths(true_ids)
    jittered = _jitter(lengths, config.jitter_k, config.jitter_q, rng)
    corrupted = _corrupt(labels, config.vocab, config.corrupt_r, rng)
    noisy_ids = np.repeat(corrupted, jittered)
    return Utterance(features=features, true_ids=true_ids, noisy_ids=noisy_ids)


def gen_corpus(config: CorpusConfig, stream: int = 0) -> Corpus:
    """Deterministic corpus: identical config (including seed) is bit-identical.

    `stream` separates splits drawn from the same seed (train vs evaluation)
    while keeping the class means shared.
    """
    means = class_means(config)
    utterances = [
        generate_utterance(config, means, i, stream) for i in range(config.utterances)
    ]
    return Corpus(vocab=config.vocab, utterances=utterances)


def clean_references(corpus: Corpus) -> Corpus:
    """Same features and true ids, with the true ids as references."""
    return Corpus(
        vocab=corpus.vocab,
        utterances=[
            Utterance(u.features, u.true_ids.copy(), u.true_ids.copy())
            for u in corpus.utterances
        ],
    )


def eval_split(config: CorpusConfig, eval_utterances: int) -> tuple[Corpus, Corpus]:
    """Clean and jittered evaluation corpora sharing true sequences and features.

    The jittered split carries boundary jitter only (corruption off), so the
    two reference sets differ purely in alignment quality. A separate stream
    keeps evaluation utterances disjoint from any training split.
    """
    cfg = replace(config, utterances=eval_utterances, corrupt_r=0.0)
    jittered = gen_corpus(cfg, stream=1)
    return clean_references(jittered), jittered


def save_corpus(corpus: Corpus, path) -> None:
    arrays = []
    for utt in corpus.utterances:
        arrays += [
            (U32, [utt.features.shape[0]]),
            (F32, utt.features),
            (I32, utt.true_ids),
            (I32, utt.noisy_ids),
        ]
    header = (len(corpus.utterances), corpus.feature_dim, corpus.vocab)
    write_file(path, CORPUS_MAGIC, CORPUS_VERSION, header, arrays)


def load_corpus(path) -> Corpus:
    with open(path, "rb") as fh:
        reader = FileReader(fh, CORPUS_MAGIC, CORPUS_VERSION, "corpus")
        count, dim, vocab = reader.u32s(3)
        if count == 0:
            raise EmptyDatasetError(f"corpus {path} has no utterances")
        if dim == 0 or vocab == 0:
            raise VersionMismatchError("corrupt corpus header")
        utterances = []
        for _ in range(count):
            (frames,) = reader.u32s(1)
            if frames == 0:
                raise VersionMismatchError("corrupt corpus file: utterance of zero frames")
            features = reader.array(F32, frames, dim)
            ids = reader.array(I32, 2, frames)  # the true ids, then the noisy ids
            if ids.min() < 0 or ids.max() >= vocab:
                raise VersionMismatchError(f"corrupt corpus file: id outside [0, {vocab})")
            true_ids, noisy_ids = ids
            utterances.append(Utterance(features, true_ids, noisy_ids))
        reader.end()
    return Corpus(vocab=vocab, utterances=utterances)
