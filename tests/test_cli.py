import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import segctc.cli
import segctc.trainer
from segctc import ConfigError, load_checkpoint, read_blank_params, save_checkpoint
from segctc.cli import SCHEMA, ExperimentConfig, build_config, main, parse_config_file

FAST = [
    "utterances=6",
    "eval_utterances=3",
    "frames=30",
    "vocab=5",
    "feature_dim=4",
    "d_model=8",
    "d_embed=6",
    "layers=1",
    "n_pos=4",
    "steps=4",
    "batch_size=3",
    "lr_warmup=2",
    "mask_p=0.1",
    "mask_l=4",
]


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text("\n".join(FAST) + "\n")
    return path


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigParsing:
    def test_defaults(self):
        cfg = build_config(None, {})
        assert cfg == ExperimentConfig()

    def test_file_values_and_comments(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# comment\nsteps=7\nalpha=0.3  # inline\n\n")
        values = parse_config_file(path)
        assert values == {"steps": 7, "alpha": 0.3}

    def test_unknown_key_rejected(self, tmp_path):
        from segctc import ConfigError

        path = tmp_path / "c.cfg"
        path.write_text("warp_speed=9\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        from segctc import ConfigError

        path = tmp_path / "c.cfg"
        path.write_text("steps=fast\n")
        with pytest.raises(ConfigError):
            parse_config_file(path)

    def test_flag_overrides_win(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("steps=7\nseed=1\n")
        cfg = build_config(path, {"steps": 9})
        assert cfg.steps == 9
        assert cfg.seed == 1

    def test_projections_carry_renamed_keys(self):
        cfg = ExperimentConfig(lr_warmup=7, beta1=0.5, beta2=0.6, alpha=0.25, ce_warmup=3, seed=4)
        train = cfg.train_config()
        assert (train.lr_warmup_steps, train.adam_beta1, train.adam_beta2) == (7, 0.5, 0.6)
        assert (train.mode.alpha, train.mode.ce_warmup_steps, train.seed) == (0.25, 3, 4)
        assert cfg.corpus_config().seed == 4


class TestConfigText:
    """Config text that is not a valid config is a ConfigError naming the line,
    never another exception."""

    def test_non_utf8_byte_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "c.cfg"
        path.write_bytes(b"steps=7\nseed=1\nnonlin=r\xe9lu\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: not UTF-8"):
            parse_config_file(path)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error[config]")
        assert list(out.iterdir()) == []

    def test_repeated_key_names_both_lines(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("vocab=5\n# vocab again\nvocab=6\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: key 'vocab' repeats line 1"):
            parse_config_file(path)

    @pytest.mark.parametrize("key", ["utterances", "frames", "feature_dim", "vocab", "eval_utterances"])
    def test_counts_fit_the_corpus_file(self, key):
        ExperimentConfig(**{key: 2**32 - 1})  # validation only; nothing is generated
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: 2**32})

    @pytest.mark.parametrize("key", ["d_model", "d_embed", "layers", "n_pos"])
    def test_model_sizes_fit_the_checkpoint_file(self, key):
        # validation only; no model is built. A (d_model, d_model) weight of
        # 2^60 elements or more is beyond numpy's largest array.
        ExperimentConfig(**{key: 2**30 - 1 if key == "d_model" else 2**32 - 2})
        message = rf"^{key} must lie in \[\d, 2\^32\), got 4294967296$"
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{key: 2**32})

    @pytest.mark.parametrize(
        "sizes",
        [
            {"d_model": 2**30},
            {"d_model": 2**29, "n_pos": 2**31},
            {"d_model": 2**29, "d_embed": 2**31},
            {"feature_dim": 2**29, "frames": 2**31},
            {"feature_dim": 2**29, "vocab": 2**31},
        ],
    )
    def test_arrays_beyond_numpy_limit_rejected(self, sizes):
        # Each value is within the file's u32 fields, but the pair sizes a
        # 2^60-element array, one numpy refuses (ValueError) without trying
        # to allocate it. The next smaller last value passes (validation only).
        with pytest.raises(ConfigError, match="beyond numpy's largest$"):
            ExperimentConfig(**sizes)
        *others, (key, value) = sizes.items()
        ExperimentConfig(**dict(others), **{key: value - (2 if key == "n_pos" else 1)})

    def test_huge_utterance_count_rejected_from_text(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("utterances=100000000000000000000000\n")
        with pytest.raises(ConfigError, match="utterances"):
            build_config(path, {})

    @pytest.mark.parametrize("key", ["lr_peak", "adam_eps", "weight_decay", "grad_clip", "sigma"])
    def test_infinite_floats_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**{key: math.inf})


U32_KEYS = (
    "utterances",
    "eval_utterances",
    "frames",
    "feature_dim",
    "vocab",
    "d_model",
    "d_embed",
    "layers",
    "n_pos",
    "attn_window",
)
FLOAT_KEYS = [f.name for f in dataclasses.fields(ExperimentConfig) if f.type == "float"]

config_values = st.one_of(
    st.integers(-3, 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "", "tanh", "relu", "0x10", "1_0"]),
    st.text(st.characters(blacklist_categories=["Cc", "Cs"]), max_size=4),
)
config_lines = st.one_of(
    st.tuples(st.sampled_from(sorted(SCHEMA)), config_values).map("=".join),
    st.text(st.characters(blacklist_categories=["Cc", "Cs"]), max_size=8),
    st.just("# comment"),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(config_lines, max_size=6),
    repeat=st.booleans(),
    bad_byte=st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0x80, 0xFF))),
)
def test_config_text_fuzz(tmp_path, capsys, lines, repeat, bad_byte):
    """Random config text builds a valid config or raises ConfigError, and the
    CLI then exits 2 before any work. Valid configs are only built, never run,
    so no case starts a large run."""
    if repeat and lines:
        lines = lines + [lines[0]]
    data = [line.encode("utf-8") for line in lines]
    if bad_byte is not None:
        at, byte = bad_byte
        data.insert(min(at, len(data)), bytes([byte]))
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(b"\n".join(data))
    try:
        cfg = build_config(path, {})
    except ConfigError:
        out = tmp_path / "fuzz_out"
        out.mkdir(exist_ok=True)
        assert main(["gen-data", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error[config]")
        assert list(out.iterdir()) == []
        return
    assert bad_byte is None
    assert all(math.isfinite(getattr(cfg, key)) for key in FLOAT_KEYS)
    assert all(getattr(cfg, key) < 2**32 for key in U32_KEYS)


INVALID_SETTINGS = [
    "nonlin=sigmoid",
    "n_pos=3",
    "mask_l=0",
    "mask_p=2",
    "d_model=0",
    "layers=-1",
    "alpha=1.5",
    "ce_warmup=-1",
    "attn_window=-1",
    "d_model=4294967296",
    "d_embed=0",
    "grad_clip=-1",
    "beta1=1.5",
    "lr_peak=inf",
    "adam_eps=inf",
    "weight_decay=inf",
    "grad_clip=inf",
    "sigma=inf",
    "sigma=1e39",  # finite, but its features overflow the corpus file's float32
    "d_model=4294967295",  # a u32, but its weights are beyond numpy's largest array
    # u32s that size no single array, but whose encoder blocks or corpora alone
    # need terabytes, more than the host's memory: refused before any allocation
    "layers=4294967295",
    "utterances=4294967295",
    "eval_utterances=4294967295",
]


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    cfg = root / "fast.cfg"
    cfg.write_text("\n".join(FAST) + "\n")
    assert main(["gen-data", "--config", str(cfg), "--out", str(root)]) == 0
    corpus = str(root / "train.corpus")
    assert main(["pretrain", "--config", str(cfg), "--corpus", corpus, "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("setting", INVALID_SETTINGS)
def test_invalid_value_is_config_error_before_any_work(tmp_path, valid_inputs, capsys, setting):
    # The setting replaces FAST's line for its key: a repeated key would be
    # refused for the repeat, whatever its value.
    key = setting.split("=")[0]
    lines = [line for line in FAST if line.split("=")[0] != key] + [setting]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    checkpoint = valid_inputs / "checkpoint.bin"
    inputs = {
        "gen-data": [],
        "pretrain": ["--corpus", valid_inputs / "train.corpus"],
        "finetune": ["--checkpoint", checkpoint, "--corpus", valid_inputs / "train.corpus"],
        "analyze": [
            "--ce-checkpoint", checkpoint,
            "--ctc-checkpoint", checkpoint,
            "--eval-clean", valid_inputs / "eval_clean.corpus",
            "--eval-jittered", valid_inputs / "eval_jittered.corpus",
        ],
    }
    for command, args in inputs.items():
        out = tmp_path / command
        out.mkdir()
        code = main([command, "--config", str(cfg), *map(str, args), "--out", str(out)])
        assert code == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error[config]") and key in err, command
        assert list(out.iterdir()) == [], command


@pytest.mark.parametrize("command", ["gen-data", "pretrain"])
def test_allocation_failure_is_config_error(
    tmp_path, fast_config, valid_inputs, capsys, monkeypatch, command
):
    # Sizes that pass validation can still ask for more memory than there
    # is; the first allocation raises MemoryError, here without allocating.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(segctc.cli, "gen_corpus", no_memory)
    monkeypatch.setattr(segctc.cli, "init_model", no_memory)
    args = ["--corpus", str(valid_inputs / "train.corpus")] if command == "pretrain" else []
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(fast_config), *args, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error[config]: Unable to allocate 298. GiB for an array\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_non_finite_loss_writes_nothing(
    tmp_path, fast_config, valid_inputs, capsys, monkeypatch, command
):
    # Every utterance's loss turns NaN: the run stops at the first step, and
    # neither the run's files nor the echoed config are written.
    batch_name = f"_{command}_batch"
    real = getattr(segctc.trainer, batch_name)

    def nan_batch(*args, **kwargs):
        breakdowns, grads = real(*args, **kwargs)
        return [dataclasses.replace(b, combined=math.nan) for b in breakdowns], grads

    monkeypatch.setattr(segctc.trainer, batch_name, nan_batch)
    args = ["--corpus", str(valid_inputs / "train.corpus")]
    if command == "finetune":
        args += ["--checkpoint", str(valid_inputs / "checkpoint.bin")]
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, "--config", str(fast_config), *args, "--out", str(out)]) == 5
    assert capsys.readouterr().err.startswith("error[numeric]: non-finite loss nan at step 0,")
    assert list(out.iterdir()) == []


class TestGenData:
    def test_writes_three_corpora_and_echoes_config(self, tmp_path, fast_config):
        out = tmp_path / "data"
        out.mkdir()
        code = main(["gen-data", "--config", str(fast_config), "--out", str(out)])
        assert code == 0
        for name in ("train.corpus", "eval_clean.corpus", "eval_jittered.corpus"):
            assert (out / name).exists()
        echoed = (out / "effective_config.txt").read_text()
        assert "steps=4" in echoed

    def test_rerun_same_seed_identical_checksums(self, tmp_path, fast_config):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            assert main(["gen-data", "--config", str(fast_config), "--out", str(out)]) == 0
            outs.append([sha(out / n) for n in sorted(p.name for p in out.iterdir())])
        assert outs[0] == outs[1]

    def test_no_noise_makes_eval_splits_identical(self, tmp_path, fast_config):
        out = tmp_path / "clean"
        out.mkdir()
        extra = fast_config.read_text() + "jitter_q=0\ncorrupt_r=0\n"
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(extra)
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 0
        assert sha(out / "eval_clean.corpus") == sha(out / "eval_jittered.corpus")

    @pytest.mark.parametrize("command", ["gen-data", "pretrain", "finetune", "analyze"])
    def test_missing_out_dir_is_io_error(self, tmp_path, fast_config, capsys, command):
        # The inputs are missing too: the output directory is checked first.
        inputs = {
            "gen-data": [],
            "pretrain": ["--corpus"],
            "finetune": ["--checkpoint", "--corpus"],
            "analyze": ["--ce-checkpoint", "--ctc-checkpoint", "--eval-clean", "--eval-jittered"],
        }[command]
        absent = [arg for flag in inputs for arg in (flag, str(tmp_path / flag[2:]))]
        missing = tmp_path / "nope"
        argv = [command, "--config", str(fast_config), *absent, "--out", str(missing)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error[io]" in err
        assert str(missing) in err

    def test_seed_flag_changes_data(self, tmp_path, fast_config):
        hashes = []
        for seed in ("0", "1"):
            out = tmp_path / f"s{seed}"
            out.mkdir()
            main(
                ["gen-data", "--config", str(fast_config), "--seed", seed, "--out", str(out)]
            )
            hashes.append(sha(out / "train.corpus"))
        assert hashes[0] != hashes[1]


@pytest.fixture
def generated(tmp_path, fast_config):
    data = tmp_path / "data"
    data.mkdir()
    assert main(["gen-data", "--config", str(fast_config), "--out", str(data)]) == 0
    return data


class TestPretrain:
    def test_writes_checkpoint_and_metrics(self, tmp_path, fast_config, generated):
        out = tmp_path / "run"
        out.mkdir()
        code = main(
            [
                "pretrain",
                "--config",
                str(fast_config),
                "--corpus",
                str(generated / "train.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        model = load_checkpoint(out / "checkpoint.bin")
        assert model.head.vocab == 5
        lines = (out / "metrics.tsv").read_text().strip().split("\n")
        assert len(lines) == 4

    def test_bit_reproducible(self, tmp_path, fast_config, generated):
        hashes = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir()
            main(
                [
                    "pretrain",
                    "--config",
                    str(fast_config),
                    "--corpus",
                    str(generated / "train.corpus"),
                    "--out",
                    str(out),
                ]
            )
            hashes.append((sha(out / "checkpoint.bin"), sha(out / "metrics.tsv")))
        assert hashes[0] == hashes[1]

    def test_warmup_flag_controls_logged_alpha(self, tmp_path, fast_config, generated):
        out = tmp_path / "warm"
        out.mkdir()
        main(
            [
                "pretrain",
                "--config",
                str(fast_config),
                "--corpus",
                str(generated / "train.corpus"),
                "--alpha",
                "1.0",
                "--ce-warmup",
                "2",
                "--out",
                str(out),
            ]
        )
        alphas = [
            float(line.split("\t")[4])
            for line in (out / "metrics.tsv").read_text().strip().split("\n")
        ]
        assert alphas == [0.0, 0.0, 1.0, 1.0]

    def test_missing_corpus_is_io_error(self, tmp_path, fast_config, capsys):
        out = tmp_path / "run"
        out.mkdir()
        code = main(
            [
                "pretrain",
                "--config",
                str(fast_config),
                "--corpus",
                str(tmp_path / "absent.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert "error[io]" in capsys.readouterr().err


@pytest.fixture
def pretrained(tmp_path, fast_config, generated):
    out = tmp_path / "pre"
    out.mkdir()
    assert (
        main(
            [
                "pretrain",
                "--config",
                str(fast_config),
                "--corpus",
                str(generated / "train.corpus"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    return out / "checkpoint.bin"


class TestExportBlank:
    def test_round_trip_and_identity(self, tmp_path, pretrained):
        blank_path = tmp_path / "blank.bin"
        assert main(["export-blank", "--checkpoint", str(pretrained), "--out", str(blank_path)]) == 0
        blank = read_blank_params(blank_path)
        model = load_checkpoint(pretrained)
        head = model.head
        np.testing.assert_array_equal(blank.weight, head.proj_weight.T @ head.embeddings[-1])
        # blank logit identity against the checkpoint on random hidden vectors
        rng = np.random.default_rng(0)
        for _ in range(10):
            h = rng.normal(size=head.proj_weight.shape[1])
            blank_logit = head.embeddings[-1] @ (head.proj_weight @ h + head.proj_bias)
            assert blank_logit == pytest.approx(float(blank.weight @ h + blank.bias), abs=1e-10)
        # re-export is bitwise identical
        second = tmp_path / "blank2.bin"
        main(["export-blank", "--checkpoint", str(pretrained), "--out", str(second)])
        assert blank_path.read_bytes() == second.read_bytes()

    def test_takes_no_config_flags(self, tmp_path, pretrained):
        for flag in (["--config", str(tmp_path / "c.cfg")], ["--seed", "1"]):
            with pytest.raises(SystemExit) as exc_info:
                main(["export-blank", "--checkpoint", str(pretrained), "--out", "b.bin", *flag])
            assert exc_info.value.code == 2

    def test_corrupt_checkpoint_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"GARBAGE" + b"\x00" * 100)
        code = main(["export-blank", "--checkpoint", str(bad), "--out", str(tmp_path / "b.bin")])
        assert code == 4
        assert "error[format]" in capsys.readouterr().err


class TestFinetune:
    def test_with_and_without_blank(self, tmp_path, fast_config, generated, pretrained):
        blank_path = tmp_path / "blank.bin"
        main(["export-blank", "--checkpoint", str(pretrained), "--out", str(blank_path)])
        outputs = {}
        for tag, extra in (("plain", []), ("blank", ["--load-blank", str(blank_path)])):
            out = tmp_path / tag
            out.mkdir()
            code = main(
                [
                    "finetune",
                    "--config",
                    str(fast_config),
                    "--checkpoint",
                    str(pretrained),
                    "--corpus",
                    str(generated / "train.corpus"),
                    "--steps",
                    "0",
                    "--out",
                    str(out),
                ]
                + extra
            )
            assert code == 0
            outputs[tag] = load_checkpoint(out / "checkpoint.bin")
        plain, loaded = outputs["plain"], outputs["blank"]
        # same seed: heads differ exactly in the blank row and bias
        np.testing.assert_array_equal(plain.head.weight[:-1], loaded.head.weight[:-1])
        assert not np.array_equal(plain.head.weight[-1], loaded.head.weight[-1])
        blank = read_blank_params(blank_path)
        np.testing.assert_array_equal(
            loaded.head.weight[-1], blank.weight.astype(np.float32)
        )

    def test_freeze_encoder_runs(self, tmp_path, fast_config, generated, pretrained):
        out = tmp_path / "frozen"
        out.mkdir()
        code = main(
            [
                "finetune",
                "--config",
                str(fast_config),
                "--checkpoint",
                str(pretrained),
                "--corpus",
                str(generated / "train.corpus"),
                "--freeze-encoder",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        finetuned = load_checkpoint(out / "checkpoint.bin")
        original = load_checkpoint(pretrained)
        np.testing.assert_array_equal(
            finetuned.encoder.input_weight, original.encoder.input_weight
        )


class TestAnalyze:
    def test_report_written_and_printed(
        self, tmp_path, fast_config, generated, pretrained, capsys
    ):
        out = tmp_path / "report"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--ce-checkpoint",
                str(pretrained),
                "--ctc-checkpoint",
                str(pretrained),
                "--eval-clean",
                str(generated / "eval_clean.corpus"),
                "--eval-jittered",
                str(generated / "eval_jittered.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "ctc_degrades_less: false" in stdout  # identical checkpoints
        assert (out / "report.txt").read_text() == stdout
        assert (out / "report.tsv").exists()

    @pytest.mark.parametrize(
        "setting, which",
        [("vocab=30", "clean"), ("vocab=30", "jittered"), ("feature_dim=5", "jittered")],
    )
    def test_corpus_beyond_checkpoint_is_data_error_before_any_forward(
        self, tmp_path, generated, pretrained, capsys, setting, which
    ):
        key = setting.split("=")[0]
        cfg = tmp_path / "wide.cfg"
        cfg.write_text("\n".join([s for s in FAST if not s.startswith(key)] + [setting]) + "\n")
        wide = tmp_path / "wide"
        wide.mkdir()
        assert main(["gen-data", "--config", str(cfg), "--out", str(wide)]) == 0
        corpora = {name: generated / f"eval_{name}.corpus" for name in ("clean", "jittered")}
        corpora[which] = wide / f"eval_{which}.corpus"
        out = tmp_path / "report"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--ce-checkpoint",
                str(pretrained),
                "--ctc-checkpoint",
                str(pretrained),
                "--eval-clean",
                str(corpora["clean"]),
                "--eval-jittered",
                str(corpora["jittered"]),
                "--out",
                str(out),
            ]
        )
        assert code == 6
        assert capsys.readouterr().err.startswith("error[data]")
        assert list(out.iterdir()) == []

    def test_model_without_mass_on_clean_frames_is_numeric_error(
        self, tmp_path, fast_config, generated, pretrained, capsys
    ):
        # A finite float32 blank bias of 1e30 leaves every other class
        # probability 0, so the relative degradation would divide by zero.
        ft = tmp_path / "ft"
        ft.mkdir()
        args = ["--config", str(fast_config), "--steps", "2", "--out", str(ft)]
        corpus = ["--corpus", str(generated / "train.corpus")]
        assert main(["finetune", "--checkpoint", str(pretrained), *corpus, *args]) == 0
        model = load_checkpoint(ft / "checkpoint.bin")
        model.head.bias[-1] = 1e30
        save_checkpoint(model, tmp_path / "blank-wins.bin")
        out = tmp_path / "report"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--ce-checkpoint",
                str(pretrained),
                "--ctc-checkpoint",
                str(tmp_path / "blank-wins.bin"),
                "--eval-clean",
                str(generated / "eval_clean.corpus"),
                "--eval-jittered",
                str(generated / "eval_jittered.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]") and "ctc model" in err
        assert list(out.iterdir()) == []

    def test_unpaired_evaluation_sets_are_data_error(
        self, tmp_path, fast_config, generated, pretrained, capsys
    ):
        # Another seed's jittered set holds as many utterances but not the
        # same ones: the paired measurement has nothing to compare.
        other = tmp_path / "other"
        other.mkdir()
        assert main(["gen-data", "--config", str(fast_config), "--seed", "1", "--out", str(other)]) == 0
        out = tmp_path / "report"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--ce-checkpoint",
                str(pretrained),
                "--ctc-checkpoint",
                str(pretrained),
                "--eval-clean",
                str(generated / "eval_clean.corpus"),
                "--eval-jittered",
                str(other / "eval_jittered.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 6
        err = capsys.readouterr().err
        assert err.startswith("error[data]: utterance 0: clean and jittered features differ")
        assert list(out.iterdir()) == []

    def _analyze_overflowing_model(self, tmp_path, generated, capsys, settings):
        # Finite float32 weights of 3e38 overflow the attention scores to inf
        # and the logits to NaN; the figure is refused, not reported as nan,
        # and numpy prints no warning ahead of the error (under this suite's
        # filterwarnings = error a warning would surface as error[internal]).
        cfg = tmp_path / "two-layers.cfg"
        cfg.write_text("\n".join([*(s for s in FAST if s != "layers=1"), "layers=2", *settings]))
        pre = tmp_path / "pre"
        pre.mkdir()
        corpus = ["--corpus", str(generated / "train.corpus")]
        assert main(["pretrain", "--config", str(cfg), "--steps", "2", *corpus, "--out", str(pre)]) == 0
        model = load_checkpoint(pre / "checkpoint.bin")
        model.encoder.input_weight[...] = 3e38
        for block in model.encoder.blocks:
            for weight in (block.weight, block.attention.wq, block.attention.wk):
                weight[...] = 3e38
        save_checkpoint(model, tmp_path / "overflow.bin")
        out = tmp_path / "report"
        out.mkdir()
        code = main(
            [
                "analyze",
                "--ce-checkpoint",
                str(pre / "checkpoint.bin"),
                "--ctc-checkpoint",
                str(tmp_path / "overflow.bin"),
                "--eval-clean",
                str(generated / "eval_clean.corpus"),
                "--eval-jittered",
                str(generated / "eval_jittered.corpus"),
                "--out",
                str(out),
            ]
        )
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("error[numeric]: the ctc model's clean probability is nan")
        assert err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_overflowing_model_is_numeric_error(self, tmp_path, generated, capsys):
        self._analyze_overflowing_model(tmp_path, generated, capsys, [])

    def test_overflowing_dense_model_is_numeric_error(self, tmp_path, generated, capsys):
        self._analyze_overflowing_model(tmp_path, generated, capsys, ["attn_window=0"])
