"""Segment-wise CTC and masked cross-entropy objectives for masked-prediction
pretraining on pseudo-labeled frame sequences, with a desk-scale encoder,
deterministic trainer, synthetic corpora and misalignment-tolerance analysis.
"""

from .analysis import (
    PosteriorReport,
    avg_posterior,
    compare_models,
    degradation_report,
    format_report,
    report_tsv,
)
from .ctc import (
    brute_force_ctc,
    collapse_path,
    ctc_loss,
    ctc_loss_and_grad,
    greedy_collapse,
)
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyDatasetError,
    EnumerationTooLargeError,
    InfeasibleTargetError,
    LengthMismatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
    ZeroProbabilityError,
)
from .masking import MaskSpec, apply_mask, merge_spans, sample_mask
from .model import (
    AffineHead,
    AttentionParams,
    BlankParams,
    EmbeddingHead,
    EncoderBlock,
    EncoderParams,
    Model,
    compute_logits,
    encoder_forward,
    extract_blank_params,
    init_finetune_head,
    init_model,
    load_checkpoint,
    model_backward,
    model_forward,
    named_params,
    position_channels,
    read_blank_params,
    save_checkpoint,
    write_blank_params,
)
from .numerics import NEG_INF, check_gradient, log_softmax, log_sum_exp
from .objectives import (
    LossBreakdown,
    TrainingMode,
    effective_alpha,
    joint_loss,
    joint_loss_batch,
    masked_ce_loss,
    masked_ctc_loss,
)
from .seeding import seeded_rng
from .synthesis import (
    Corpus,
    CorpusConfig,
    Utterance,
    class_means,
    clean_references,
    eval_split,
    gen_corpus,
    generate_utterance,
    load_corpus,
    save_corpus,
)
from .targets import dedup, segment_targets
from .trainer import (
    AdamHyper,
    AdamState,
    StepMetrics,
    TrainConfig,
    adam_step,
    finetune,
    finetune_loss_and_grads,
    format_metrics,
    learning_rate,
    pretrain_loss_and_grads,
    train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
