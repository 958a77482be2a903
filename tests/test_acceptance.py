"""Acceptance suite: one test per numbered criterion.

Each test prints a `criterion N: PASS` line on success (run with -s or -v to
see them). Criteria 1-5 and 9 are fast and run on every change; criteria 6-8
train models for several minutes and carry the `nightly` marker.
"""

import dataclasses
import itertools
import time

import numpy as np
import pytest

from segctc import (
    BlankParams,
    EmbeddingHead,
    TrainingMode,
    avg_posterior,
    brute_force_ctc,
    check_gradient,
    compute_logits,
    ctc_loss,
    ctc_loss_and_grad,
    dedup,
    eval_split,
    extract_blank_params,
    finetune,
    gen_corpus,
    init_model,
    joint_loss,
    log_softmax,
    masked_ce_loss,
    masked_ctc_loss,
    merge_spans,
    named_params,
    pretrain_loss_and_grads,
    read_blank_params,
    seeded_rng,
    train,
    write_blank_params,
)
from segctc.cli import ExperimentConfig, finetuning_model, main, pretraining_model

from helpers import random_dedup_target, random_lattice

DEFAULTS = ExperimentConfig()


def random_mask_spec(rng, frames):
    n_spans = int(rng.integers(1, 4))
    starts = rng.integers(0, frames, size=n_spans)
    length = int(rng.integers(1, 4))
    return merge_spans([(int(s), int(s) + length) for s in starts], frames)


def test_criterion_1_ctc_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(200):
        frames = int(rng.integers(1, 7))
        vocab = int(rng.integers(1, 5))
        lattice = random_lattice(rng, frames, vocab)
        target = random_dedup_target(rng, vocab, int(rng.integers(0, min(frames, 4) + 1)))
        fast = ctc_loss(lattice, target)
        slow = brute_force_ctc(lattice, target)
        assert (np.isinf(fast) and np.isinf(slow)) or abs(fast - slow) <= 1e-9
        checked += 1
    # exhaustive targets of length <= 4, including adjacent repeats
    for frames, vocab in ((4, 2), (5, 3), (6, 4)):
        lattice = random_lattice(rng, frames, vocab)
        for length in range(5):
            for target in itertools.product(range(vocab), repeat=length):
                fast = ctc_loss(lattice, list(target))
                slow = brute_force_ctc(lattice, list(target))
                assert (np.isinf(fast) and np.isinf(slow)) or abs(fast - slow) <= 1e-9
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    print(
        f"\ncriterion 1: PASS ctc_loss == brute_force_ctc within 1e-9 on "
        f"{checked} instances ({elapsed:.1f}s)"
    )


def test_criterion_2_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(2002)
    worst = {"ctc": 0.0, "ce": 0.0, "masked_ctc": 0.0, "joint": 0.0, "model": 0.0}

    for _ in range(100):
        frames = int(rng.integers(2, 7))
        vocab = int(rng.integers(2, 5))
        logits = rng.normal(size=(frames, vocab + 1))
        target = random_dedup_target(rng, vocab, int(rng.integers(0, frames + 1)))

        def f_ctc(x):
            lp = log_softmax(x.reshape(frames, vocab + 1), axis=1)
            return ctc_loss_and_grad(lp, target)

        def wrap(run):
            def f(x):
                loss, grad = run(x)
                return loss, np.asarray(grad).ravel()

            return f

        worst["ctc"] = max(worst["ctc"], check_gradient(wrap(f_ctc), logits.ravel()))

    alphas = (0.0, 0.3, 0.5, 1.0)
    for i in range(100):
        frames = int(rng.integers(4, 9))
        vocab = int(rng.integers(2, 5))
        logits = rng.normal(size=(frames, vocab + 1))
        ids = rng.integers(0, vocab, size=frames)
        spec = random_mask_spec(rng, frames)

        def f_ce(x):
            lp = log_softmax(x.reshape(frames, vocab + 1), axis=1)
            return masked_ce_loss(lp, ids, spec)

        def f_mctc(x):
            lp = log_softmax(x.reshape(frames, vocab + 1), axis=1)
            return masked_ctc_loss(lp, ids, spec)

        alpha = alphas[i % len(alphas)]

        def f_joint(x):
            lp = log_softmax(x.reshape(frames, vocab + 1), axis=1)
            breakdown, grad = joint_loss(lp, ids, spec, alpha)
            return breakdown.combined, grad

        for key, f in (("ce", f_ce), ("masked_ctc", f_mctc), ("joint", f_joint)):

            def wrapped(x, f=f):
                loss, grad = f(x)
                return loss, np.asarray(grad).ravel()

            worst[key] = max(worst[key], check_gradient(wrapped, logits.ravel()))

    for key in ("ctc", "ce", "masked_ctc", "joint"):
        assert worst[key] <= 1e-4, f"{key} gradient error {worst[key]}"

    # end-to-end model gradient on 100 random toy instances
    for i in range(100):
        model = init_model(
            feature_dim=3,
            model_dim=4,
            embed_dim=3,
            vocab=3,
            n_blocks=1,
            rng=seeded_rng(3000 + i),
            attention=bool(i % 2),
            attn_window=2,
            n_pos=4,
        )
        features = rng.normal(size=(6, 3))
        ids = rng.integers(0, 3, size=6)
        spec = random_mask_spec(rng, 6)
        alpha = alphas[i % len(alphas)]
        params = named_params(model)
        x0 = np.concatenate([p.ravel() for _, p in params])

        def f_model(x):
            offset = 0
            for _, p in params:
                p[...] = x[offset : offset + p.size].reshape(p.shape)
                offset += p.size
            breakdown, grads = pretrain_loss_and_grads(model, features, ids, spec, alpha)
            flat = np.concatenate([grads[name].ravel() for name, _ in params])
            offset = 0
            for _, p in params:
                p[...] = x0[offset : offset + p.size].reshape(p.shape)
                offset += p.size
            return breakdown.combined, flat

        worst["model"] = max(worst["model"], check_gradient(f_model, x0, eps=1e-6))
    assert worst["model"] <= 1e-3, f"model gradient error {worst['model']}"

    elapsed = time.time() - start
    assert elapsed < 120.0
    print(
        "\ncriterion 2: PASS gradient checks "
        + " ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" ({elapsed:.1f}s)"
    )


def test_criterion_3_dedup_fidelity():
    np.testing.assert_array_equal(dedup([187, 187, 187, 288, 288]), [187, 288])
    np.testing.assert_array_equal(
        dedup([229, 229, 293, 293, 293, 189, 189]), [229, 293, 189]
    )
    rng = np.random.default_rng(3003)
    for _ in range(10_000):
        ids = rng.integers(0, 6, size=int(rng.integers(0, 30)))
        once = dedup(ids)
        assert not np.any(once[1:] == once[:-1])
        np.testing.assert_array_equal(dedup(once), once)
    print("\ncriterion 3: PASS dedup examples exact, properties hold on 10^4 sequences")


def test_criterion_4_joint_loss_algebra():
    rng = np.random.default_rng(4004)
    for _ in range(30):
        frames = int(rng.integers(4, 9))
        vocab = int(rng.integers(2, 5))
        log_probs = random_lattice(rng, frames, vocab)
        ids = rng.integers(0, vocab, size=frames)
        spec = random_mask_spec(rng, frames)

        ce, ce_grad = masked_ce_loss(log_probs, ids, spec)
        ctc, ctc_grad = masked_ctc_loss(log_probs, ids, spec)
        at0, grad0 = joint_loss(log_probs, ids, spec, 0.0)
        at1, grad1 = joint_loss(log_probs, ids, spec, 1.0)

        # alpha endpoints match the pure losses bit for bit
        assert at0.combined == ce and at1.combined == ctc
        np.testing.assert_array_equal(grad0, ce_grad)
        np.testing.assert_array_equal(grad1, ctc_grad)

        for alpha in (0.1, 0.25, 0.5, 0.9):
            mix, _ = joint_loss(log_probs, ids, spec, alpha)
            expected = alpha * at1.combined + (1.0 - alpha) * at0.combined
            assert abs(mix.combined - expected) <= 1e-12
    print("\ncriterion 4: PASS joint loss affine in alpha (1e-12), endpoints bitwise")


def test_criterion_5_blank_identity_and_round_trip(tmp_path):
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(100):
        d_embed = int(rng.integers(2, 8))
        d_model = int(rng.integers(2, 10))
        vocab = int(rng.integers(1, 7))
        head = EmbeddingHead(
            proj_weight=rng.normal(size=(d_embed, d_model)),
            proj_bias=rng.normal(size=d_embed),
            embeddings=rng.normal(size=(vocab + 1, d_embed)),
        )
        blank = extract_blank_params(head)
        hidden = rng.normal(size=(4, d_model))
        logits = compute_logits(hidden, head)
        direct = hidden @ blank.weight + blank.bias
        worst = max(worst, float(np.abs(logits[:, -1] - direct).max()))
    assert worst <= 1e-10

    blank = BlankParams(weight=rng.normal(size=16), bias=float(rng.normal()))
    first = tmp_path / "a.blank"
    second = tmp_path / "b.blank"
    write_blank_params(blank, first)
    loaded = read_blank_params(first)
    assert loaded.bias == blank.bias
    np.testing.assert_array_equal(loaded.weight, blank.weight)
    write_blank_params(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    print(f"\ncriterion 5: PASS blank logit identity (worst {worst:.2e}), bitwise round trip")


# --- training experiments (criteria 6-8), nightly ---------------------------

EXPERIMENT_SEEDS = (0, 1, 2, 3, 4)


def experiment_corpus_config(seed):
    return dataclasses.replace(
        DEFAULTS.corpus_config(),
        utterances=200,
        frames=100,
        vocab=20,
        feature_dim=16,
        sigma=0.5,
        jitter_q=0.5,
        jitter_k=2,
        corrupt_r=0.05,
        seed=seed,
    )


def experiment_train_config(alpha, seed, ce_warmup=0):
    base = DEFAULTS.train_config()
    return dataclasses.replace(
        base,
        steps=2000,
        mode=TrainingMode(alpha=alpha, ce_warmup_steps=ce_warmup),
        seed=seed,
    )


def experiment_model(seed, corpus):
    return pretraining_model(dataclasses.replace(DEFAULTS, seed=seed), corpus)


def smoothed(metrics, lo, hi):
    return float(np.mean([m.combined for m in metrics[lo:hi]]))


@pytest.fixture(scope="session")
def misalignment_runs():
    """CE and joint models trained on five seeds, with their degradations."""
    runs = {}
    for seed in EXPERIMENT_SEEDS:
        corpus_cfg = experiment_corpus_config(seed)
        corpus = gen_corpus(corpus_cfg, stream=0)
        clean, jittered = eval_split(corpus_cfg, DEFAULTS.eval_utterances)
        per_seed = {"corpus": corpus, "clean": clean, "jittered": jittered}
        for label, alpha in (("ce", 0.0), ("joint", 0.5)):
            model = experiment_model(seed, corpus)
            model, metrics = train(corpus, experiment_train_config(alpha, seed), model)
            clean_prob = avg_posterior(model, clean.utterances)
            degraded_prob = avg_posterior(model, jittered.utterances)
            per_seed[label] = {
                "model": model,
                "metrics": metrics,
                "clean": clean_prob,
                "degraded": degraded_prob,
                "degradation": (clean_prob - degraded_prob) / clean_prob,
            }
        runs[seed] = per_seed
    return runs


@pytest.mark.nightly
def test_criterion_6_misalignment_tolerance_direction(misalignment_runs):
    wins = 0
    for seed, run in misalignment_runs.items():
        ce_deg = run["ce"]["degradation"]
        joint_deg = run["joint"]["degradation"]
        win = joint_deg < ce_deg
        wins += win
        print(
            f"\n  seed {seed}: ce clean={run['ce']['clean']:.4f} deg={ce_deg * 100:+.2f}% | "
            f"joint clean={run['joint']['clean']:.4f} deg={joint_deg * 100:+.2f}% | "
            f"{'WIN' if win else 'LOSS'}"
        )
        # trainer sanity invariant: smoothed loss non-increasing (1.05 slack)
        for label in ("ce", "joint"):
            metrics = run[label]["metrics"]
            assert smoothed(metrics, -100, None) <= 1.05 * smoothed(metrics, 0, 100)
    assert wins >= 4, f"CTC-joint degraded less in only {wins}/5 seeds"
    print(f"criterion 6: PASS joint model degrades less in {wins}/5 seeds")


@pytest.mark.nightly
def test_criterion_7_blank_transfer_direction(misalignment_runs):
    means = {"with": [], "without": []}
    for seed, run in misalignment_runs.items():
        pretrained = run["joint"]["model"]
        blank = extract_blank_params(pretrained.head)
        corpus = run["corpus"]
        cfg = dataclasses.replace(
            experiment_train_config(1.0, seed), steps=50, lr_warmup_steps=10
        )
        losses = {}
        for label, seed_blank in (("with", blank), ("without", None)):
            model = finetuning_model(
                dataclasses.replace(DEFAULTS, seed=seed), corpus, pretrained, seed_blank
            )
            _, metrics = finetune(corpus, cfg, model)
            losses[label] = float(np.mean([m.combined for m in metrics]))
            means[label].append(losses[label])
        print(
            f"\n  seed {seed}: first-50-step mean loss with blank={losses['with']:.4f} "
            f"without={losses['without']:.4f}"
        )
    mean_with = float(np.mean(means["with"]))
    mean_without = float(np.mean(means["without"]))
    assert mean_with <= mean_without, (
        f"loading blank parameters did not help: {mean_with:.4f} > {mean_without:.4f}"
    )
    print(
        f"criterion 7: PASS mean finetune loss with blank {mean_with:.4f} <= "
        f"without {mean_without:.4f} across {len(EXPERIMENT_SEEDS)} seeds"
    )


@pytest.mark.nightly
def test_criterion_8_warmup_protocol(misalignment_runs):
    seed = 0
    corpus = misalignment_runs[seed]["corpus"]
    warm_cfg = experiment_train_config(1.0, seed, ce_warmup=200)
    _, warm_metrics = train(corpus, warm_cfg, experiment_model(seed, corpus))
    alphas = [m.alpha for m in warm_metrics]
    assert all(a == 0.0 for a in alphas[:200])
    assert all(a == 1.0 for a in alphas[200:])

    # convergence of the post-warmup (pure CTC) phase, smoothed endpoints
    post = warm_metrics[200:]
    assert smoothed(post, -100, None) <= 1.05 * smoothed(post, 0, 100)

    # cold pure-CTC run: measured and reported, not gated
    cold_cfg = experiment_train_config(1.0, seed)
    _, cold_metrics = train(corpus, cold_cfg, experiment_model(seed, corpus))
    warm_end = smoothed(warm_metrics, -100, None)
    cold_end = smoothed(cold_metrics, -100, None)
    print(
        f"\ncriterion 8: PASS effective_alpha 0 before step 200 and 1 after; "
        f"post-warmup smoothed loss {smoothed(post, 0, 100):.3f} -> {warm_end:.3f}\n"
        f"  cold alpha=1 run (reported, not gated): starts at "
        f"{smoothed(cold_metrics, 0, 100):.3f} vs the warm run's CE phase "
        f"{smoothed(warm_metrics, 0, 100):.3f}; smoothed at ~step 300 cold "
        f"{smoothed(cold_metrics, 250, 350):.3f} vs warm {smoothed(warm_metrics, 250, 350):.3f}; "
        f"final cold {cold_end:.3f} vs warm {warm_end:.3f}"
    )


def test_criterion_9_command_determinism(tmp_path):
    config = tmp_path / "tiny.cfg"
    config.write_text(
        "utterances=6\neval_utterances=3\nframes=30\nvocab=5\nfeature_dim=4\n"
        "d_model=8\nd_embed=6\nlayers=1\nn_pos=4\nsteps=4\nbatch_size=3\n"
        "lr_warmup=2\nmask_p=0.1\nmask_l=4\n"
    )
    digests = []
    for tag in ("a", "b"):
        root = tmp_path / tag
        for sub in ("data", "pre", "ft"):
            (root / sub).mkdir(parents=True)
        assert main(["gen-data", "--config", str(config), "--out", str(root / "data")]) == 0
        assert (
            main(
                [
                    "pretrain",
                    "--config",
                    str(config),
                    "--corpus",
                    str(root / "data" / "train.corpus"),
                    "--out",
                    str(root / "pre"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "export-blank",
                    "--checkpoint",
                    str(root / "pre" / "checkpoint.bin"),
                    "--out",
                    str(root / "blank.bin"),
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "finetune",
                    "--config",
                    str(config),
                    "--checkpoint",
                    str(root / "pre" / "checkpoint.bin"),
                    "--corpus",
                    str(root / "data" / "train.corpus"),
                    "--load-blank",
                    str(root / "blank.bin"),
                    "--out",
                    str(root / "ft"),
                ]
            )
            == 0
        )
        digests.append(
            [
                (root / "data" / "train.corpus").read_bytes(),
                (root / "data" / "eval_clean.corpus").read_bytes(),
                (root / "data" / "eval_jittered.corpus").read_bytes(),
                (root / "pre" / "checkpoint.bin").read_bytes(),
                (root / "pre" / "metrics.tsv").read_bytes(),
                (root / "blank.bin").read_bytes(),
                (root / "ft" / "checkpoint.bin").read_bytes(),
                (root / "ft" / "metrics.tsv").read_bytes(),
            ]
        )
    assert digests[0] == digests[1]
    print(
        "\ncriterion 9: PASS gen-data, pretrain, export-blank and finetune are "
        "bit-reproducible under a fixed seed (criteria 1-5 run per change; 6-8 nightly)"
    )
