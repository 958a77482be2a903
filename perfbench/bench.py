"""Workload set-up, untraced measurement and result assembly for run.py.

Every workload runs on the default ExperimentConfig. A training workload's op
is one optimizer step over a batch of 8 utterances; the analyze workload's op
is one `cmd_analyze` call. Why each workload exists, and which end-to-end
metric each layer metric should move on which workload, is in README.md.
"""

from __future__ import annotations

import copy
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import segctc
import segctc.trainer
from segctc import (
    Model,
    apply_mask,
    eval_split,
    extract_blank_params,
    finetune,
    gen_corpus,
    init_finetune_head,
    init_model,
    load_checkpoint,
    load_corpus,
    log_softmax,
    model_forward,
    named_params,
    read_blank_params,
    save_checkpoint,
    save_corpus,
    sample_mask,
    train,
    write_blank_params,
)
from segctc.cli import _HEAD_INIT_STREAM, _MODEL_INIT_STREAM, ExperimentConfig, cmd_analyze, config_text

import checks
import replay
from replay import OP, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Optimizer steps per `train`/`finetune` call: the length of the default
# learning-rate warm-up, after which the final losses vary little from seed to
# seed. Every call starts from the same initial model, so each call repeats the
# same steps and the same losses, and loss_end is a function of the seed alone.
CHUNK_STEPS = 200
LOSS_TAIL = 10  # loss_end averages the combined loss over the call's last steps
SETUP_REPEATS = 3  # setup_s is the median over this many complete set-ups
REPLAY_RTOL = 1e-12  # replayed losses vs StepMetrics; same calls in the same order


@dataclass(frozen=True)
class Workload:
    kind: str  # "pretrain", "finetune" or "analyze"
    alpha: float = 0.5
    ce_warmup: int = 0


WORKLOADS = {
    "pretrain_joint": Workload("pretrain", alpha=0.5),
    "pretrain_warmup": Workload("pretrain", alpha=1.0, ce_warmup=CHUNK_STEPS // 2),
    "finetune": Workload("finetune"),
    "analyze": Workload("analyze"),
}


@dataclass
class Prepared:
    """What set-up leaves for the measured ops."""

    cfg: ExperimentConfig
    files: dict
    corpus: object = None
    model: Model | None = None


@dataclass
class Measured:
    op_seconds: list = field(default_factory=list)
    frames_per_op: int = 0
    attempted: int = 0
    failed: int = 0
    loss_end: float = math.nan
    expected: list = field(default_factory=list)  # per-step losses, or report figures
    errors: list = field(default_factory=list)
    minor_faults: int = 0  # counted around the untraced ops of a traced run


def experiment_config(wl: Workload, seed: int) -> ExperimentConfig:
    return ExperimentConfig(steps=CHUNK_STEPS, alpha=wl.alpha, ce_warmup=wl.ce_warmup, seed=seed)


def _init_model(cfg: ExperimentConfig, corpus, seed: int) -> Model:
    """A fresh model exactly as `segctc pretrain` builds it for `seed`."""
    return init_model(
        feature_dim=corpus.feature_dim,
        model_dim=cfg.d_model,
        embed_dim=cfg.d_embed,
        vocab=corpus.vocab,
        n_blocks=cfg.layers,
        rng=segctc.seeded_rng(seed, _MODEL_INIT_STREAM),
        attention=bool(cfg.attention),
        nonlin=cfg.nonlin,
        n_pos=cfg.n_pos,
        attn_window=cfg.attn_window,
    )


def set_up(wl: Workload, cfg: ExperimentConfig, work: Path, tracer: Tracer) -> Prepared:
    """Generate and write the workload's corpus and checkpoint files, then
    build what its ops start from, the way the CLI commands do."""
    files = {}
    if wl.kind == "analyze":
        clean, jittered = tracer.call(
            "synthesis.gen_corpus", eval_split, cfg.corpus_config(), cfg.eval_utterances
        )
        for key, corpus in (("clean", clean), ("jittered", jittered)):
            files[key] = work / f"eval_{key}.corpus"
            tracer.call("synthesis.save_corpus", save_corpus, corpus, files[key])
        # Two checkpoints as two pretraining runs would start them, one seed apart.
        for key, seed in (("ce", cfg.seed), ("ctc", cfg.seed + 1)):
            files[key] = work / f"{key}.ckpt"
            tracer.call(
                "model.save_checkpoint", save_checkpoint, _init_model(cfg, clean, seed), files[key]
            )
        files["out"] = work / "analysis"
        files["out"].mkdir(exist_ok=True)
        return Prepared(cfg, files)

    files["train"] = work / "train.corpus"
    corpus = tracer.call("synthesis.gen_corpus", gen_corpus, cfg.corpus_config(), 0)
    tracer.call("synthesis.save_corpus", save_corpus, corpus, files["train"])
    corpus = load_corpus(files["train"])
    model = _init_model(cfg, corpus, cfg.seed)
    files["checkpoint"] = work / "init.ckpt"
    tracer.call("model.save_checkpoint", save_checkpoint, model, files["checkpoint"])
    if wl.kind == "finetune":
        # export-blank, then finetune --load-blank: an affine head whose blank
        # row is seeded from the pretrained embedding head.
        pretrained = load_checkpoint(files["checkpoint"])
        files["blank"] = work / "blank.bin"
        write_blank_params(extract_blank_params(pretrained.head), files["blank"])
        head = init_finetune_head(
            read_blank_params(files["blank"]),
            vocab=corpus.vocab,
            model_dim=pretrained.encoder.model_dim,
            rng=segctc.seeded_rng(cfg.seed, _HEAD_INIT_STREAM),
        )
        model = Model(encoder=pretrained.encoder, head=head)
    return Prepared(cfg, files, corpus, model)


def _analyze(prep: Prepared) -> str:
    f = prep.files
    return cmd_analyze(f["ce"], f["ctc"], f["clean"], f["jittered"], f["out"])


def _train_entry(wl: Workload):
    return train if wl.kind == "pretrain" else finetune


def warm_up(wl: Workload, prep: Prepared) -> None:
    """One untimed op, so that lazy imports and first-touch costs stay out of
    the timed ops."""
    if wl.kind == "analyze":
        _analyze(prep)
    else:
        cfg = replace(prep.cfg.train_config(), steps=1)
        _train_entry(wl)(prep.corpus, cfg, copy.deepcopy(prep.model))


def set_up_and_warm(wl, cfg, work, tracer) -> Prepared:
    prep = set_up(wl, cfg, work, tracer)
    warm_up(wl, prep)
    return prep


class _TimeUp(Exception):
    """Ends a repeated call at the step where the run's time runs out."""


def measure(wl: Workload, prep: Prepared, seconds: float, m: Measured | None = None) -> Measured:
    """Untraced ops for `seconds`, added to `m` when given."""
    if wl.kind == "analyze":
        return measure_analyze(prep, seconds, m)
    return measure_training(wl, prep, seconds, m)


def measure_training(wl: Workload, prep: Prepared, seconds: float, m=None) -> Measured:
    """Repeat `train`/`finetune` calls of CHUNK_STEPS steps for `seconds`.

    The only hook is a wrapper around `segctc.trainer.adam_step`, the last call
    of every step, that appends one perf_counter stamp; a step's time is the
    distance between consecutive stamps. The first call always runs to its
    end; a later call is cut after the step that ends the time.
    """
    entry = _train_entry(wl)
    cfg = prep.cfg.train_config()
    if m is None:
        m = Measured(frames_per_op=min(cfg.batch_size, len(prep.corpus.utterances))
                     * prep.corpus.utterances[0].features.shape[0])
    stamps: list[float] = []
    deadline = time.perf_counter() + seconds
    cut_at = math.inf
    real_adam_step = segctc.trainer.adam_step

    def stamped_adam_step(*args):
        out = real_adam_step(*args)
        now = time.perf_counter()
        stamps.append(now)
        if now >= cut_at:
            raise _TimeUp
        return out

    segctc.trainer.adam_step = stamped_adam_step
    try:
        while True:
            model = copy.deepcopy(prep.model)
            stamps.clear()
            start = time.perf_counter()
            try:
                _, metrics = entry(prep.corpus, cfg, model)
            except _TimeUp:
                m.op_seconds.extend(np.diff([start, *stamps]).tolist())
                m.attempted += len(stamps)
                break
            except Exception as exc:  # a raising step is a failed op; keep measuring
                m.attempted += len(stamps) + 1
                m.failed += 1
                m.errors.append(f"{type(exc).__name__}: {exc}")
            else:
                m.op_seconds.extend(np.diff([start, *stamps]).tolist())
                _check_losses(m, [(s.ce, s.ctc, s.combined) for s in metrics])
                cut_at = deadline
            if time.perf_counter() >= deadline:
                break
    finally:
        segctc.trainer.adam_step = real_adam_step
    return m


def _check_losses(m: Measured, losses: list) -> None:
    """Every loss finite, and equal to the first complete call's."""
    if not m.expected:
        m.expected = losses
        m.loss_end = statistics.fmean(c for _, _, c in losses[-LOSS_TAIL:])
    m.attempted += len(losses)
    for step, (got, first) in enumerate(zip(losses, m.expected)):
        if not all(math.isfinite(x) for x in got):
            m.failed += 1
            m.errors.append(f"step {step}: non-finite loss {got}")
        elif got != first:
            m.failed += 1
            m.errors.append(f"step {step}: losses {got} differ from first call {first}")


def measure_analyze(prep: Prepared, seconds: float, m=None) -> Measured:
    """Repeat `cmd_analyze` for `seconds`, at least once, checking every report."""
    if m is None:
        clean = load_corpus(prep.files["clean"])
        frames = sum(u.features.shape[0] for u in clean.utterances)
        m = Measured(frames_per_op=2 * 2 * frames)  # clean + jittered, two models
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls == 0 or time.perf_counter() < deadline:
        calls += 1
        m.attempted += 1
        start = time.perf_counter()
        try:
            _analyze(prep)
        except Exception as exc:  # a raising call is a failed op; keep measuring
            m.failed += 1
            m.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        m.op_seconds.append(time.perf_counter() - start)
        values = checks.read_report_tsv(prep.files["out"] / "report.tsv")
        failures = checks.check_report(values)
        if not m.expected:
            m.expected = values
            # -ln of the mean reference probability over the four reported averages
            m.loss_end = -math.log(statistics.fmean(values[i] for i in (0, 1, 3, 4)))
        elif values != m.expected:
            failures.append(f"report {values} differs from the first call's {m.expected}")
        if failures:
            m.failed += 1
            m.errors.extend(failures)
    return m


def probe_cases(wl: Workload, prep: Prepared) -> list:
    """(lattice, frame ids) for every CTC instance of step 0's batch under the
    initial model: masked regions when pretraining, whole utterances when
    finetuning."""
    cfg = prep.cfg.train_config()
    model = prep.model
    cases = []
    for idx in replay.batch_indices(cfg, 0, len(prep.corpus.utterances)):
        utt = prep.corpus.utterances[int(idx)]
        if wl.kind == "finetune":
            log_probs = log_softmax(model_forward(model, utt.features)[0], axis=1)
            cases.append((log_probs, utt.true_ids))
            continue
        frames = utt.features.shape[0]
        spec = sample_mask(frames, cfg.mask_p, cfg.mask_l, replay.mask_rng(cfg, int(idx), 0))
        masked = apply_mask(utt.features, spec, model.encoder.mask_embedding)
        log_probs = log_softmax(model_forward(model, masked)[0], axis=1)
        for start, end in spec.intervals:
            cases.append((log_probs[start:end], utt.noisy_ids[start:end]))
    return cases


def _max_rel_diff(got, want) -> float:
    worst = 0.0
    for a, b in zip(got, want):
        for x, y in zip(np.ravel(a), np.ravel(b)):
            worst = max(worst, abs(x - y) / max(1.0, abs(y)))
    return worst


def trace_run(wl: Workload, prep: Prepared, seconds: float):
    """Alternate one untraced call (a full `train`/`finetune` call, or one
    `cmd_analyze`) with one traced replay of the same steps until `seconds`
    pass, so that both halves see the same drift of the machine's speed.

    Returns (untraced Measured, tracer, worst relative difference between the
    replayed and the untraced outputs, replay failure messages)."""
    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    m = None
    worst = 0.0
    errors = []
    while m is None or time.perf_counter() < deadline:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        m = measure(wl, prep, 0.0, m)
        m.minor_faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if wl.kind == "analyze":
            got = replay.replay_analyze(prep.files, tracer)
            got = [float(f"{g:.10g}") for g in got]  # report.tsv's precision
        else:
            # The first pass runs every step; later ones stop at the deadline.
            first = not tracer.op_seconds
            got = replay.replay_training(
                wl.kind, prep.corpus, prep.cfg.train_config(), prep.model, tracer,
                None if first else deadline,
            )
            if len(got) > len(m.expected) or (first and len(got) != len(m.expected)):
                errors.append(f"replay made {len(got)} steps, the untraced call {len(m.expected)}")
        worst = max(worst, _max_rel_diff(got, m.expected))
    if not worst <= REPLAY_RTOL:
        errors.append(f"replayed outputs differ from the untraced run by {worst:.3g}")
    return m, tracer, worst, errors


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "segctc").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(cfg: ExperimentConfig, seed: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": min(int(os.environ.get("OPENBLAS_NUM_THREADS", nproc)), nproc),
        "config_sha256": hashlib.sha256(config_text(cfg).encode()).hexdigest()[:16],
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def _per_op_us(tracer: Tracer, key: str) -> float:
    if not tracer.ops:
        return 0.0
    return 1e6 * statistics.fmean(op.get(key, 0.0) for op in tracer.ops)


def _per_op_count(tracer: Tracer, key: str) -> float:
    if not tracer.counts:
        return 0.0
    return statistics.fmean(c.get(key, 0.0) for c in tracer.counts)


def _ratio(tracer: Tracer, useful: str, computed: str) -> float:
    total = sum(c.get(computed, 0.0) for c in tracer.counts)
    return sum(c.get(useful, 0.0) for c in tracer.counts) / total if total else 0.0


# Spans timed in the ops of a traced replay; each gives "<span>.us", its mean
# self time per op (0 where a workload does not call the layer).
OP_SPANS = (
    "ctc.ctc_loss_and_grad",
    "objectives.masked_ctc_loss",
    "objectives.masked_ce_loss",
    "model.model_forward",
    "model.model_backward",
    "numerics.log_softmax",
    "masking.sample_mask",
    "masking.apply_mask",
    "targets.segment_targets",
    "targets.dedup",
    "trainer.adam_step",
    "synthesis.load_corpus",
    "model.load_checkpoint",
    "analysis.avg_posterior",
)
# Spans timed during set-up; "<span>.us" is the median per complete set-up.
SETUP_SPANS = ("synthesis.gen_corpus", "synthesis.save_corpus", "model.save_checkpoint")
# Counters computed from each op's inputs; "<name>" is the mean per op.
OP_COUNTS = (
    "ctc.calls",
    "ctc.lattice_cells",
    "masking.regions",
    "masking.masked_frames",
    "targets.tokens",
    "model.attn_score_cells",
    "synthesis.corpus_bytes",
    "model.checkpoint_bytes",
)


def layer_metrics(wl, prep, m, setup_tracer, tracer, untraced_p50_ms, replay_diff) -> dict:
    metrics = {f"{s}.us": (_per_op_us(tracer, s), "us") for s in OP_SPANS}
    metrics["process.minor_faults"] = (m.minor_faults / len(m.op_seconds), "count")
    for s in SETUP_SPANS:
        per_setup = [op.get(s, 0.0) for op in setup_tracer.ops]
        metrics[f"{s}.us"] = (1e6 * statistics.median(per_setup), "us")
    metrics["objectives.joint_loss.self_us"] = (_per_op_us(tracer, "objectives.joint_loss"), "us")
    metrics["trainer.step.other_us"] = (_per_op_us(tracer, OP), "us")
    metrics["trace.op_us"] = (1e6 * statistics.fmean(tracer.op_seconds), "us")
    for c in OP_COUNTS:
        metrics[c] = (_per_op_count(tracer, c), "bytes" if c.endswith("_bytes") else "count")
    metrics["ctc.max_frames"] = (max(c.get("ctc.max_frames", 0.0) for c in tracer.counts), "count")
    params = 0 if wl.kind == "analyze" else sum(p.size for _, p in named_params(prep.model))
    metrics["trainer.param_count"] = (params, "count")
    metrics["objectives.ctc_grad_useful_ratio"] = (
        _ratio(tracer, "objectives.ctc_grads_useful", "objectives.ctc_grads"), "ratio")
    metrics["objectives.ce_grad_useful_ratio"] = (
        _ratio(tracer, "objectives.ce_grads_useful", "objectives.ce_grads"), "ratio")
    metrics["model.attn_band_useful_ratio"] = (
        _ratio(tracer, "model.attn_band_cells", "model.attn_score_cells"), "ratio")
    traced_p50_ms = 1e3 * float(np.percentile(tracer.op_seconds, 50))
    metrics["trace.overhead_ms"] = (traced_p50_ms - untraced_p50_ms, "ms")
    metrics["trace.replay_max_rel_diff"] = (replay_diff, "ratio")
    return metrics


def end_to_end_metrics(m: Measured, failed: int, setup_tracer: Tracer) -> dict:
    op_ms = 1e3 * np.asarray(m.op_seconds)
    return {
        "op_ms_p50": (float(np.percentile(op_ms, 50)), "ms"),
        "op_ms_p90": (float(np.percentile(op_ms, 90)), "ms"),
        "frames_per_s": (m.frames_per_op * op_ms.size / (op_ms.sum() / 1e3), "1/s"),
        "setup_s": (statistics.median(setup_tracer.op_seconds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "loss_end": (m.loss_end, "nats"),
        "ok_rate": ((m.attempted - failed) / m.attempted, "ratio"),
    }


def run(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (detail report, result object with every
    metric the run computed)."""
    wl = WORKLOADS[name]
    cfg = experiment_config(wl, seed)
    work_root = BENCH_DIR / ".work"
    work = work_root / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup_tracer = Tracer()
        for _ in range(SETUP_REPEATS):
            prep = setup_tracer.op(set_up_and_warm, wl, cfg, work, setup_tracer)
        if trace:
            m, tracer, diff, replay_errors = trace_run(wl, prep, seconds)
        else:
            m = measure(wl, prep, seconds)
        errors = list(m.errors)
        failed = m.failed
        probe_checked = 0
        if wl.kind != "analyze":
            probe_checked, probe_failures = checks.check_ctc(probe_cases(wl, prep))
            if probe_failures:
                failed += 1
                errors += probe_failures
        if not m.op_seconds:
            raise RuntimeError(f"no op completed: {errors[:3]}")
        metrics = end_to_end_metrics(m, failed, setup_tracer)
        attempted = m.attempted
        account = None
        if trace:
            errors += replay_errors
            attempted += len(tracer.op_seconds)
            metrics.update(
                layer_metrics(wl, prep, m, setup_tracer, tracer, metrics["op_ms_p50"][0], diff)
            )
            # The op's layer self times, which add up to the traced op time.
            parts = [f"{s}.us" for s in OP_SPANS]
            parts += ["objectives.joint_loss.self_us", "trainer.step.other_us"]
            op_us = metrics["trace.op_us"][0]
            account = {
                "trace.op_us": op_us,
                "sum_of_self_us": sum(metrics[k][0] for k in parts),
                "op_share": {k: metrics[k][0] / op_us for k in parts if metrics[k][0]},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    detail = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(cfg, seed),
        "ops": {
            "attempted": attempted,
            "failed": failed,
            "fail_rate": f"{failed}/{attempted}",
            "timed_samples": len(m.op_seconds),
            "setup_samples": len(setup_tracer.op_seconds),
            "ctc_probe_comparisons": probe_checked,
        },
        "account": account,
        "metrics": metrics,
        "errors": errors[:20],
    }
    result = {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return detail, result
