"""Posterior-degradation comparison between CE-trained and joint-trained models.

Trains both objectives on the same noisy corpus, then scores each model's
average reference posterior on a clean and a boundary-jittered evaluation set
that share features and true label sequences.
"""

from segctc import (
    CorpusConfig,
    TrainConfig,
    TrainingMode,
    avg_posterior,
    compare_models,
    eval_split,
    gen_corpus,
    train,
)
from segctc.analysis import format_report
from segctc.cli import ExperimentConfig, pretraining_model

corpus_cfg = CorpusConfig(
    utterances=100,
    frames=100,
    vocab=12,
    feature_dim=12,
    self_loop=0.95,
    sigma=0.5,
    jitter_k=2,
    jitter_q=0.5,
    corrupt_r=0.05,
    seed=1,
)
corpus = gen_corpus(corpus_cfg, stream=0)
clean, jittered = eval_split(corpus_cfg, 50)
print(f"train: {len(corpus.utterances)} utterances; eval: {len(clean.utterances)} shared pairs")


def pretrain(alpha, steps=1200):
    # `segctc pretrain`'s fresh model for the default encoder at seed 1; its
    # feature dimension and vocabulary come from the corpus
    model = pretraining_model(ExperimentConfig(seed=1), corpus)
    cfg = TrainConfig(
        steps=steps,
        batch_size=8,
        lr_peak=5e-3,
        lr_warmup_steps=120,
        mode=TrainingMode(alpha=alpha),
        seed=1,
    )
    train(corpus, cfg, model)
    return model


print("training CE baseline (alpha=0)...")
ce_model = pretrain(0.0)
print("training joint model (alpha=0.5)...")
joint_model = pretrain(0.5)

ce_report, ctc_report, verdict = compare_models(
    ce_model, joint_model, clean.utterances, jittered.utterances
)
print()
print(format_report(ce_report, ctc_report, verdict))
print("uniform-model floor:", 1.0 / (corpus.vocab + 1))
print("joint clean posterior:", avg_posterior(joint_model, clean.utterances))
