"""Blank-parameter extraction and transfer into a finetuning head.

Pretrains with the joint objective, extracts the blank class's effective
affine row from the embedding head, and compares early finetuning loss with
and without seeding the fresh head's blank row from it.
"""

import numpy as np

from segctc import (
    CorpusConfig,
    TrainConfig,
    TrainingMode,
    compute_logits,
    extract_blank_params,
    finetune,
    gen_corpus,
    seeded_rng,
    train,
)
from segctc.cli import ExperimentConfig, finetuning_model, pretraining_model

corpus_cfg = CorpusConfig(
    utterances=80,
    frames=80,
    vocab=10,
    feature_dim=10,
    self_loop=0.9,
    sigma=0.4,
    jitter_k=2,
    jitter_q=0.5,
    corrupt_r=0.05,
    seed=2,
)
corpus = gen_corpus(corpus_cfg)

# The models `segctc pretrain` and `segctc finetune` build under this encoder
# config; the feature dimension and vocabulary come from the corpus.
model_cfg = ExperimentConfig(d_model=24, d_embed=12, attn_window=6, nonlin="tanh", seed=2)

print("pretraining with 0.5 CE + 0.5 CTC...")
model = pretraining_model(model_cfg, corpus)
train(
    corpus,
    TrainConfig(steps=800, batch_size=8, lr_peak=5e-3, lr_warmup_steps=80,
                mode=TrainingMode(alpha=0.5), seed=2),
    model,
)

blank = extract_blank_params(model.head)
print(f"blank row norm {np.linalg.norm(blank.weight):.4f}, bias {blank.bias:+.4f}")

hidden = seeded_rng(3).normal(size=(4, 24))
full = compute_logits(hidden, model.head)[:, -1]
direct = hidden @ blank.weight + blank.bias
print(f"blank logit identity max |diff|: {np.abs(full - direct).max():.2e}")

print()
print("finetuning 50 steps with a fresh affine head...")
losses = {}
for label, seed_blank in (("random blank row", None), ("loaded blank row", blank)):
    ft_model = finetuning_model(model_cfg, corpus, model, seed_blank)
    cfg = TrainConfig(steps=50, batch_size=8, lr_peak=2e-3, lr_warmup_steps=10,
                      mode=TrainingMode(alpha=1.0), seed=2)
    _, metrics = finetune(corpus, cfg, ft_model)
    losses[label] = float(np.mean([m.combined for m in metrics]))
    print(f"  {label:18s} mean loss over first 50 steps: {losses[label]:.4f}")

gain = losses["random blank row"] - losses["loaded blank row"]
print(f"loading the blank parameters changed the early loss by {gain:+.4f}")
