"""Command-line entry point wiring configs, corpora, training and analysis.

Commands: gen-data, pretrain, finetune, analyze, export-blank. Configuration
is a flat key=value text file; command-line flags override file values. This
module writes every file a command leaves: the trainer and the analysis only
return their results. For the four commands that read a configuration, `main`
checks that the output directory exists before any input is read, and echoes
the effective configuration into it once the command has succeeded. Exit code
is 0 on success, otherwise nonzero with one categorized error line on stderr;
a command that fails writes nothing.

Each input is checked in one place. A config key parses as the type of its
default and ExperimentConfig checks its value. `analyze` leaves its inputs
to the library: compare_models checks that the evaluation sets pair and
that every reference id is a label of both heads, and a checkpoint whose
feature width is not the corpus's is refused at its first forward.
`finetune` checks that width itself, since with steps=0 no forward runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .analysis import compare_models, format_report, report_tsv
from .errors import (
    ConfigError,
    DimensionMismatchError,
    EmptyDatasetError,
    LengthMismatchError,
    NonFiniteLossError,
    ShapeMismatchError,
    VersionMismatchError,
    ZeroProbabilityError,
)
from .model import (
    NONLIN_CODES,
    EmbeddingHead,
    Model,
    extract_blank_params,
    init_finetune_head,
    init_model,
    load_checkpoint,
    read_blank_params,
    save_checkpoint,
    write_blank_params,
)
from .objectives import TrainingMode
from .seeding import seeded_rng
from .synthesis import Corpus, CorpusConfig, eval_split, gen_corpus, load_corpus, save_corpus
from .trainer import TrainConfig, finetune, format_metrics, train

_MODEL_INIT_STREAM = 2
_HEAD_INIT_STREAM = 3


# TrainConfig fields whose config key differs; `mode` comes from alpha and ce_warmup.
_TRAIN_KEYS = {"lr_warmup_steps": "lr_warmup", "adam_beta1": "beta1", "adam_beta2": "beta2"}


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment configuration; see SCHEMA for keys and defaults.

    The corpus and training configs are projections of it, and building it
    validates every value, raising ConfigError before any work starts.
    """

    utterances: int = 200
    eval_utterances: int = 100
    frames: int = 100
    vocab: int = 20
    feature_dim: int = 16
    self_loop: float = 0.95
    sigma: float = 0.5
    jitter_k: int = 2
    jitter_q: float = 0.5
    corrupt_r: float = 0.05
    d_model: int = 32
    d_embed: int = 16
    layers: int = 2
    attention: int = 1
    attn_window: int = 3
    nonlin: str = "relu"
    n_pos: int = 8
    steps: int = 2000
    batch_size: int = 8
    lr_peak: float = 5e-3
    lr_warmup: int = 200
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    mask_p: float = 0.08
    mask_l: int = 10
    alpha: float = 0.5
    ce_warmup: int = 0
    grad_clip: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.corpus_config()
        self.train_config()
        # Each is a u32 field of the corpus or checkpoint file.
        for name, low in (
            ("eval_utterances", 1),
            ("d_model", 1),
            ("d_embed", 1),
            ("layers", 0),
            ("n_pos", 0),
            ("attn_window", 0),
        ):
            value = getattr(self, name)
            if not low <= value < 2**32:
                raise ConfigError(f"{name} must lie in [{low}, 2^32), got {value}")
        if self.attention not in (0, 1):
            raise ConfigError(f"attention must be 0 or 1, got {self.attention}")
        if self.nonlin not in NONLIN_CODES:
            raise ConfigError(f"nonlin must be one of {sorted(NONLIN_CODES)}, got {self.nonlin!r}")
        if self.n_pos % 2:
            raise ConfigError(f"n_pos must be even, got {self.n_pos}")

    def corpus_config(self) -> CorpusConfig:
        fields = dataclasses.fields(CorpusConfig)
        return CorpusConfig(**{f.name: getattr(self, f.name) for f in fields})

    def train_config(self) -> TrainConfig:
        values = {
            f.name: getattr(self, _TRAIN_KEYS.get(f.name, f.name))
            for f in dataclasses.fields(TrainConfig)
            if f.name != "mode"
        }
        mode = TrainingMode(alpha=self.alpha, ce_warmup_steps=self.ce_warmup)
        return TrainConfig(**values, mode=mode)


# Parser per key: the type of its default. ExperimentConfig checks the value.
SCHEMA = {field.name: type(field.default) for field in dataclasses.fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """key=value lines of UTF-8 text; '#' starts a comment; unknown and
    repeated keys are rejected."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ConfigError(f"{path}:{lineno}: not UTF-8 text: {exc.reason}") from exc
    values, first_line = {}, {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw_line!r}")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        raw_value = raw_value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(
                f"{path}:{lineno}: key {key!r} repeats line {first_line[key]}"
            )
        first_line[key] = lineno
        try:
            values[key] = SCHEMA[key](raw_value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def build_config(config_path, overrides: dict) -> ExperimentConfig:
    """File values first, then flag overrides (flags win).

    A config is refused here, before any work, when one group of the arrays
    it sizes would alone need more bytes than this machine's physical
    memory: the corpora, the encoder blocks, the input projection, one
    utterance's position table, the head, or the class means. Such a config
    need size no array beyond numpy's largest, so without the bound nothing
    would fail until the OOM killer ends the run; and an array beyond numpy's
    largest (2^63 bytes) exceeds any machine's memory, so this bound is the
    one size check. The bound is the host's, so ExperimentConfig does not
    check it.
    """
    values = parse_config_file(config_path) if config_path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = SCHEMA[key](str(value))
    cfg = ExperimentConfig(**values)
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    # Lower bounds in 8-byte words: float64 features plus two int64 ids per
    # frame; d_model^2 float64 weights per block, four such with attention;
    # the input projection; one position table; the head's projection and
    # embeddings; the class means.
    frames = (cfg.utterances + cfg.eval_utterances) * cfg.frames
    matrices = cfg.layers * (4 if cfg.attention else 1)
    for names, words in (
        ("utterances, eval_utterances, frames, feature_dim", frames * (cfg.feature_dim + 2)),
        ("layers, d_model, attention", matrices * cfg.d_model**2),
        ("d_model, feature_dim, n_pos", cfg.d_model * (cfg.feature_dim + cfg.n_pos)),
        ("frames, n_pos", cfg.frames * cfg.n_pos),
        ("d_embed, d_model, vocab", cfg.d_embed * (cfg.d_model + cfg.vocab + 1)),
        ("vocab, feature_dim", cfg.vocab * cfg.feature_dim),
    ):
        if 8 * words > memory:
            raise ConfigError(f"{names} need at least {8 * words} bytes; this machine has {memory}")
    return cfg


def config_text(cfg: ExperimentConfig) -> str:
    lines = [
        f"{field.name}={getattr(cfg, field.name)}"
        for field in dataclasses.fields(ExperimentConfig)
    ]
    return "\n".join(lines) + "\n"


def cmd_gen_data(cfg: ExperimentConfig, out_dir: Path) -> None:
    """Write train, eval_clean and eval_jittered corpus files."""
    train_corpus = gen_corpus(cfg.corpus_config(), stream=0)
    clean, jittered = eval_split(cfg.corpus_config(), cfg.eval_utterances)
    save_corpus(train_corpus, out_dir / "train.corpus")
    save_corpus(clean, out_dir / "eval_clean.corpus")
    save_corpus(jittered, out_dir / "eval_jittered.corpus")


def _write_run(out_dir: Path, model: Model, metrics) -> None:
    """A training command's files: its metrics log, then its checkpoint."""
    (out_dir / "metrics.tsv").write_text(format_metrics(metrics))
    save_checkpoint(model, out_dir / "checkpoint.bin")


def pretraining_model(cfg: ExperimentConfig, corpus: Corpus) -> Model:
    """The fresh model `pretrain` trains on `corpus` under `cfg`."""
    return init_model(
        feature_dim=corpus.feature_dim,
        model_dim=cfg.d_model,
        embed_dim=cfg.d_embed,
        vocab=corpus.vocab,
        n_blocks=cfg.layers,
        rng=seeded_rng(cfg.seed, _MODEL_INIT_STREAM),
        attention=bool(cfg.attention),
        nonlin=cfg.nonlin,
        n_pos=cfg.n_pos,
        attn_window=cfg.attn_window,
    )


def finetuning_model(cfg: ExperimentConfig, corpus: Corpus, pretrained: Model, blank=None) -> Model:
    """The model `finetune` trains on `corpus` under `cfg`: the pretrained
    encoder under a fresh affine head over the corpus's vocab, whose blank
    row comes from the BlankParams `blank` when given."""
    rng = seeded_rng(cfg.seed, _HEAD_INIT_STREAM)
    head = init_finetune_head(blank, corpus.vocab, pretrained.encoder.model_dim, rng)
    return Model(encoder=pretrained.encoder, head=head)


def cmd_pretrain(cfg: ExperimentConfig, corpus_path, out_dir: Path) -> None:
    """Train a fresh model on a corpus's noisy ids; write checkpoint and log."""
    corpus = load_corpus(corpus_path)
    _write_run(out_dir, *train(corpus, cfg.train_config(), pretraining_model(cfg, corpus)))


def cmd_finetune(
    cfg: ExperimentConfig,
    checkpoint_path,
    corpus_path,
    out_dir: Path,
    blank_path=None,
    freeze_encoder: bool = False,
) -> None:
    """CTC finetuning with a fresh affine head over the corpus's label vocab."""
    pretrained = load_checkpoint(checkpoint_path)
    corpus = load_corpus(corpus_path)
    if corpus.feature_dim != pretrained.encoder.feature_dim:
        raise DimensionMismatchError(
            f"corpus feature dim {corpus.feature_dim} does not match checkpoint "
            f"{pretrained.encoder.feature_dim}"
        )
    blank = read_blank_params(blank_path) if blank_path else None
    model = finetuning_model(cfg, corpus, pretrained, blank)
    _write_run(out_dir, *finetune(corpus, cfg.train_config(), model, freeze_encoder=freeze_encoder))


def cmd_analyze(ce_checkpoint, ctc_checkpoint, clean_path, jittered_path, out_dir: Path) -> str:
    """Compare posterior degradation of two checkpoints; returns the report text."""
    ce_model = load_checkpoint(ce_checkpoint)
    ctc_model = load_checkpoint(ctc_checkpoint)
    clean = load_corpus(clean_path)
    jittered = load_corpus(jittered_path)
    ce_report, ctc_report, verdict = compare_models(
        ce_model, ctc_model, clean.utterances, jittered.utterances
    )
    text = format_report(ce_report, ctc_report, verdict)
    (out_dir / "report.txt").write_text(text)
    (out_dir / "report.tsv").write_text(report_tsv(ce_report, ctc_report, verdict))
    return text


def cmd_export_blank(checkpoint_path, out_path) -> None:
    """Extract blank-related parameters from a checkpoint into a small file."""
    model = load_checkpoint(checkpoint_path)
    if not isinstance(model.head, EmbeddingHead):
        raise DimensionMismatchError("checkpoint has no embedding head to take the blank from")
    write_blank_params(extract_blank_params(model.head), out_path)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value configuration file")
    parser.add_argument("--seed", type=int, help="override the seed")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, help="CTC weight in the joint loss")
    parser.add_argument("--ce-warmup", type=int, help="steps of CE-only training")
    parser.add_argument("--mask-p", type=float, help="mask start probability")
    parser.add_argument("--mask-l", type=int, help="mask span length")
    parser.add_argument("--steps", type=int, help="training steps")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segctc",
        description="Masked-prediction pretraining with segment-wise CTC objectives",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate train/eval corpus files")
    _add_common(p)
    p.add_argument("--out", required=True, help="existing output directory")

    p = sub.add_parser("pretrain", help="train a model on a corpus")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--corpus", required=True, help="training corpus file")
    p.add_argument("--out", required=True, help="existing output directory")

    p = sub.add_parser("finetune", help="CTC-finetune a pretrained checkpoint")
    _add_common(p)
    _add_train_flags(p)
    p.add_argument("--checkpoint", required=True, help="pretrained checkpoint")
    p.add_argument("--corpus", required=True, help="labeled corpus file")
    p.add_argument("--load-blank", help="blank-parameter file to seed the head")
    p.add_argument("--freeze-encoder", action="store_true", help="update only the head")
    p.add_argument("--out", required=True, help="existing output directory")

    p = sub.add_parser("analyze", help="posterior degradation report for two checkpoints")
    _add_common(p)
    p.add_argument("--ce-checkpoint", required=True)
    p.add_argument("--ctc-checkpoint", required=True)
    p.add_argument("--eval-clean", required=True)
    p.add_argument("--eval-jittered", required=True)
    p.add_argument("--out", required=True, help="existing output directory")

    p = sub.add_parser("export-blank", help="write blank-related parameters to a file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output file path")

    return parser


_ERROR_CATEGORIES = [
    (ConfigError, "config", 2),
    (VersionMismatchError, "format", 4),
    ((NonFiniteLossError, ZeroProbabilityError), "numeric", 5),
    ((DimensionMismatchError, ShapeMismatchError, LengthMismatchError, EmptyDatasetError),
     "data", 6),
    (OSError, "io", 3),
    # sizes that pass validation but ask for more memory than there is
    (MemoryError, "config", 2),
]


def _categorize(exc: Exception) -> tuple[str, int]:
    for types, category, code in _ERROR_CATEGORIES:
        if isinstance(exc, types):
            return category, code
    return "internal", 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "export-blank":
            cmd_export_blank(args.checkpoint, args.out)
            return 0
        flags = {key: value for key, value in vars(args).items() if key in SCHEMA}
        cfg = build_config(args.config, flags)
        out = Path(args.out)
        if not out.is_dir():
            raise FileNotFoundError(f"output directory does not exist: {out}")
        report = ""  # only analyze prints a report, after the echo
        if args.command == "gen-data":
            cmd_gen_data(cfg, out)
        elif args.command == "pretrain":
            cmd_pretrain(cfg, args.corpus, out)
        elif args.command == "finetune":
            cmd_finetune(
                cfg,
                args.checkpoint,
                args.corpus,
                out,
                blank_path=args.load_blank,
                freeze_encoder=args.freeze_encoder,
            )
        else:
            report = cmd_analyze(
                args.ce_checkpoint, args.ctc_checkpoint, args.eval_clean, args.eval_jittered, out
            )
        (out / "effective_config.txt").write_text(config_text(cfg))
        sys.stdout.write(report)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        category, code = _categorize(exc)
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
