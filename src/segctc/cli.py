"""Command-line entry point wiring configs, corpora, training and analysis.

Commands: gen-data, pretrain, finetune, analyze, export-blank. Configuration
is a flat key=value text file; command-line flags override file values, and
the effective configuration is echoed into every output directory. Exit code
is 0 on success, otherwise nonzero with one categorized error line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    write_blank_params,
)
from .objectives import TrainingMode
from .seeding import seeded_rng
from .synthesis import CorpusConfig, eval_split, gen_corpus, load_corpus, save_corpus
from .trainer import TrainConfig, finetune, train

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
        if not 1 <= self.eval_utterances < 2**32:
            raise ConfigError(
                f"eval_utterances must lie in [1, 2^32), got {self.eval_utterances}"
            )
        if self.d_model < 1 or self.d_embed < 1 or self.layers < 0:
            raise ConfigError("d_model and d_embed must be >= 1 and layers >= 0")
        if self.attention not in (0, 1):
            raise ConfigError(f"attention must be 0 or 1, got {self.attention}")
        if not 0 <= self.attn_window < 2**32:
            raise ConfigError(f"attn_window must lie in [0, 2^32), got {self.attn_window}")
        if self.nonlin not in NONLIN_CODES:
            raise ConfigError(f"nonlin must be one of {sorted(NONLIN_CODES)}, got {self.nonlin!r}")
        if self.n_pos < 0 or self.n_pos % 2:
            raise ConfigError(f"n_pos must be even and >= 0, got {self.n_pos}")

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


def _parse_bool(raw: str) -> int:
    if raw in ("0", "1"):
        return int(raw)
    raise ValueError(f"expected 0 or 1, got {raw!r}")


# Parser per key: the type of its default, except for the 0/1 flag `attention`.
SCHEMA = {field.name: type(field.default) for field in dataclasses.fields(ExperimentConfig)}
SCHEMA["attention"] = _parse_bool


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
    """File values first, then flag overrides (flags win)."""
    values = parse_config_file(config_path) if config_path else {}
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = SCHEMA[key](str(value))
    return ExperimentConfig(**values)


def config_text(cfg: ExperimentConfig) -> str:
    lines = [
        f"{field.name}={getattr(cfg, field.name)}"
        for field in dataclasses.fields(ExperimentConfig)
    ]
    return "\n".join(lines) + "\n"


def _require_dir(path) -> Path:
    out = Path(path)
    if not out.is_dir():
        raise FileNotFoundError(f"output directory does not exist: {out}")
    return out


def _echo_config(cfg: ExperimentConfig, out_dir: Path) -> None:
    (out_dir / "effective_config.txt").write_text(config_text(cfg))


def cmd_gen_data(cfg: ExperimentConfig, out_dir) -> None:
    """Write train, eval_clean and eval_jittered corpus files."""
    out = _require_dir(out_dir)
    train_corpus = gen_corpus(cfg.corpus_config(), stream=0)
    clean, jittered = eval_split(cfg.corpus_config(), cfg.eval_utterances)
    save_corpus(train_corpus, out / "train.corpus")
    save_corpus(clean, out / "eval_clean.corpus")
    save_corpus(jittered, out / "eval_jittered.corpus")
    _echo_config(cfg, out)


def cmd_pretrain(cfg: ExperimentConfig, corpus_path, out_dir) -> None:
    """Train a fresh model on a corpus's noisy ids; write checkpoint and log."""
    out = _require_dir(out_dir)
    corpus = load_corpus(corpus_path)
    model = init_model(
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
    train(
        corpus,
        cfg.train_config(),
        model,
        log_path=out / "metrics.tsv",
        checkpoint_path=out / "checkpoint.bin",
    )
    _echo_config(cfg, out)


def cmd_finetune(
    cfg: ExperimentConfig,
    checkpoint_path,
    corpus_path,
    out_dir,
    blank_path=None,
    freeze_encoder: bool = False,
) -> None:
    """CTC finetuning with a fresh affine head over the corpus's label vocab."""
    out = _require_dir(out_dir)
    pretrained = load_checkpoint(checkpoint_path)
    corpus = load_corpus(corpus_path)
    if corpus.feature_dim != pretrained.encoder.feature_dim:
        raise DimensionMismatchError(
            f"corpus feature dim {corpus.feature_dim} does not match checkpoint "
            f"{pretrained.encoder.feature_dim}"
        )
    blank = read_blank_params(blank_path) if blank_path else None
    head = init_finetune_head(
        blank,
        vocab=corpus.vocab,
        model_dim=pretrained.encoder.model_dim,
        rng=seeded_rng(cfg.seed, _HEAD_INIT_STREAM),
    )
    model = Model(encoder=pretrained.encoder, head=head)
    finetune(
        corpus,
        cfg.train_config(),
        model,
        freeze_encoder=freeze_encoder,
        log_path=out / "metrics.tsv",
        checkpoint_path=out / "checkpoint.bin",
    )
    _echo_config(cfg, out)


def cmd_analyze(ce_checkpoint, ctc_checkpoint, clean_path, jittered_path, out_dir) -> str:
    """Compare posterior degradation of two checkpoints; returns the report text."""
    out = _require_dir(out_dir)
    ce_model = load_checkpoint(ce_checkpoint)
    ctc_model = load_checkpoint(ctc_checkpoint)
    clean = load_corpus(clean_path)
    jittered = load_corpus(jittered_path)
    # Every corpus is checked against every checkpoint before any forward runs.
    for name, corpus in (("clean", clean), ("jittered", jittered)):
        for kind, model in (("ce", ce_model), ("ctc", ctc_model)):
            if corpus.feature_dim != model.encoder.feature_dim:
                raise DimensionMismatchError(
                    f"{name} corpus feature dim {corpus.feature_dim} does not match "
                    f"{kind} checkpoint {model.encoder.feature_dim}"
                )
            if corpus.vocab > model.head.vocab:
                raise DimensionMismatchError(
                    f"{name} corpus vocab {corpus.vocab} exceeds {kind} checkpoint "
                    f"head vocab {model.head.vocab}"
                )
    ce_report, ctc_report, verdict = compare_models(
        ce_model, ctc_model, clean.utterances, jittered.utterances
    )
    text = format_report(ce_report, ctc_report, verdict)
    (out / "report.txt").write_text(text)
    (out / "report.tsv").write_text(report_tsv(ce_report, ctc_report, verdict))
    return text


def cmd_export_blank(checkpoint_path, out_path) -> None:
    """Extract blank-related parameters from a checkpoint into a small file."""
    model = load_checkpoint(checkpoint_path)
    if not isinstance(model.head, EmbeddingHead):
        raise ConfigError("checkpoint has no embedding head to extract blank parameters from")
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
    (NonFiniteLossError, "numeric", 5),
    ((DimensionMismatchError, ShapeMismatchError, LengthMismatchError), "data", 6),
    (EmptyDatasetError, "data", 6),
    ((FileNotFoundError, IsADirectoryError, PermissionError, OSError), "io", 3),
]


def _categorize(exc: Exception) -> tuple[str, int]:
    for types, category, code in _ERROR_CATEGORIES:
        if isinstance(exc, types):
            return category, code
    return "internal", 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "export-blank":
            flags = {key: value for key, value in vars(args).items() if key in SCHEMA}
            cfg = build_config(args.config, flags)
        if args.command == "gen-data":
            cmd_gen_data(cfg, args.out)
        elif args.command == "pretrain":
            cmd_pretrain(cfg, args.corpus, args.out)
        elif args.command == "finetune":
            cmd_finetune(
                cfg,
                args.checkpoint,
                args.corpus,
                args.out,
                blank_path=args.load_blank,
                freeze_encoder=args.freeze_encoder,
            )
        elif args.command == "analyze":
            text = cmd_analyze(
                args.ce_checkpoint,
                args.ctc_checkpoint,
                args.eval_clean,
                args.eval_jittered,
                args.out,
            )
            _echo_config(cfg, Path(args.out))
            sys.stdout.write(text)
        elif args.command == "export-blank":
            cmd_export_blank(args.checkpoint, args.out)
    except Exception as exc:  # noqa: BLE001 - single reporting point for the CLI
        category, code = _categorize(exc)
        print(f"error[{category}]: {exc}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
