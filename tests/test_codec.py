"""Loader fuzzing and golden files for the corpus, checkpoint and blank formats.

Every malformed file must raise VersionMismatchError (EmptyDatasetError for a
corpus whose utterance count reads 0), never any other exception, and the CLI
must report it as a categorized error. The golden digests pin the writers'
output byte for byte.
"""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segctc import (
    CorpusConfig,
    EmptyDatasetError,
    Model,
    VersionMismatchError,
    extract_blank_params,
    gen_corpus,
    init_finetune_head,
    init_model,
    load_checkpoint,
    load_corpus,
    read_blank_params,
    save_checkpoint,
    save_corpus,
    seeded_rng,
    write_blank_params,
)
from segctc.cli import main

from helpers import ROLES, cli_argv

FEATURE_DIM, MODEL_DIM, VOCAB, FRAMES = 3, 4, 4, 7


def write_tiny_files(root):
    """A seeded tiny corpus, a checkpoint of each head kind and a blank file."""
    corpus = gen_corpus(
        CorpusConfig(utterances=3, frames=FRAMES, vocab=VOCAB, feature_dim=FEATURE_DIM, seed=5)
    )
    model = init_model(
        feature_dim=FEATURE_DIM,
        model_dim=MODEL_DIM,
        embed_dim=3,
        vocab=VOCAB,
        n_blocks=2,
        rng=seeded_rng(5, 2),
        attention=[True, False],
        nonlin="relu",
        n_pos=2,
        attn_window=2,
    )
    blank = extract_blank_params(model.head)
    head = init_finetune_head(blank, vocab=VOCAB, model_dim=MODEL_DIM, rng=seeded_rng(5, 3))
    save_corpus(corpus, root / "tiny.corpus")
    save_checkpoint(model, root / "embedding.ckpt")
    save_checkpoint(Model(encoder=model.encoder, head=head), root / "affine.ckpt")
    write_blank_params(blank, root / "tiny.blank")


LOADERS = {
    "tiny.corpus": load_corpus,
    "embedding.ckpt": load_checkpoint,
    "affine.ckpt": load_checkpoint,
    "tiny.blank": read_blank_params,
}

# sha256 of each file as written by the version 1 writers before they moved
# onto the shared codec; any change to these bytes needs a new format version.
GOLDEN = {
    "tiny.corpus": "7f445dd2e7c79299c59201dd68da0b1327a4ec86ce4b78bf67a2784f11c20c15",
    "embedding.ckpt": "b6efd9761aea28c243b114cdc5b12e504d888905255f2981aeaa8a0c43af3d29",
    "affine.ckpt": "6c39f3e9fdcc76aa734d84244c983a96a4f0d591f9154de40841c6dd993ed9d9",
    "tiny.blank": "567e4bbb2d5d9a519ae92ced4fd0256f8a8e165e8ea7dbd86759c7185759956e",
}


def u32_offsets(name, raw):
    """Byte offsets of every u32 field: the header, then each utterance's
    frame count (corpus) or each block's attention flag (checkpoint)."""
    if name == "tiny.corpus":
        offsets = [4, 8, 12, 16]
        pos = 20
        for _ in range(struct.unpack_from("<I", raw, 8)[0]):
            offsets.append(pos)
            pos += 4 + 4 * FRAMES * (FEATURE_DIM + 2)
        return offsets
    if name.endswith(".ckpt"):
        n_blocks = struct.unpack_from("<I", raw, 28)[0]
        return [4 * i for i in range(1, 11 + n_blocks)]
    return [4, 8]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    write_tiny_files(root)
    return {name: (root / name).read_bytes() for name in LOADERS}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def load_bytes(work, name, raw):
    path = work / name
    path.write_bytes(raw)
    return LOADERS[name](path)


def test_golden_digests(tmp_path):
    write_tiny_files(tmp_path)
    for name, digest in GOLDEN.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_load_then_save_reproduces_file(tmp_path, tiny, name):
    loaded = load_bytes(tmp_path, name, tiny[name])
    again = tmp_path / ("again." + name)
    if name == "tiny.corpus":
        save_corpus(loaded, again)
    elif name == "tiny.blank":
        write_blank_params(loaded, again)
    else:
        save_checkpoint(loaded, again)
    assert again.read_bytes() == tiny[name]


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_every_truncation_rejected(work, tiny, name):
    raw = tiny[name]
    for size in range(len(raw)):
        with pytest.raises(VersionMismatchError):
            load_bytes(work, name, raw[:size])


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=25, deadline=None)
@given(extra=st.binary(min_size=1, max_size=8))
def test_trailing_bytes_rejected(work, tiny, name, extra):
    with pytest.raises(VersionMismatchError, match="trailing"):
        load_bytes(work, name, tiny[name] + extra)


EDGE_VALUES = [0, 1, 2, 3, 2**31, 2**32 - 1]


def load_with_field(work, tiny, name, offset, value):
    """Load the file with the u32 at `offset` overwritten: it either loads or
    raises VersionMismatchError, or EmptyDatasetError for a zero count."""
    raw = bytearray(tiny[name])
    struct.pack_into("<I", raw, offset, value)
    empty = name == "tiny.corpus" and offset == 8 and value == 0
    try:
        load_bytes(work, name, bytes(raw))
    except VersionMismatchError:
        assert not empty
    except EmptyDatasetError:
        assert empty


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_header_fields_at_edge_values(work, tiny, name):
    for offset in u32_offsets(name, tiny[name]):
        for value in EDGE_VALUES:
            load_with_field(work, tiny, name, offset, value)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_header_fields_at_random_values(work, tiny, name, data):
    offset = data.draw(st.sampled_from(u32_offsets(name, tiny[name])))
    value = data.draw(st.integers(0, 2**32 - 1))
    load_with_field(work, tiny, name, offset, value)


@pytest.mark.parametrize(
    "name, offset, value",
    [
        ("tiny.corpus", 20, 0),  # an utterance of zero frames
        ("tiny.corpus", 12, 0),  # zero feature dimension
        ("embedding.ckpt", 12, 0),  # zero feature dimension
        ("embedding.ckpt", 32, 3),  # odd position channel count
        ("embedding.ckpt", 20, 0),  # embedding head without an embedding width
        ("affine.ckpt", 20, 3),  # affine head with an embedding width
        ("embedding.ckpt", 44, 2),  # attention flag other than 0 or 1
        ("embedding.ckpt", 28, 2**31),  # block count far beyond the file
        ("tiny.corpus", 8, 2**32 - 1),  # utterance count far beyond the file
        ("tiny.blank", 8, 0),  # zero model width
    ],
)
def test_values_no_writer_emits_rejected(tmp_path, tiny, name, offset, value):
    raw = bytearray(tiny[name])
    struct.pack_into("<I", raw, offset, value)
    with pytest.raises(VersionMismatchError):
        load_bytes(tmp_path, name, bytes(raw))


# Byte offsets in tiny.corpus of utterance 0's first feature, true id and
# noisy id: a 20-byte header, the frame count, then float32 features and
# int32 ids.
FEATURE_AT = 24
TRUE_ID_AT = FEATURE_AT + 4 * FRAMES * FEATURE_DIM
NOISY_ID_AT = TRUE_ID_AT + 4 * FRAMES


def patched_corpus(tiny, how) -> bytes:
    """tiny.corpus with one id outside [0, vocab) or one non-finite feature."""
    raw = bytearray(tiny["tiny.corpus"])
    fmt, offset, value = {
        "true_id_vocab": ("<i", TRUE_ID_AT, VOCAB),
        "noisy_id_99": ("<i", NOISY_ID_AT + 4, 99),
        "noisy_id_negative": ("<i", NOISY_ID_AT, -1),
        "nan_feature": ("<f", FEATURE_AT + 4, float("nan")),
        "inf_feature": ("<f", FEATURE_AT, float("-inf")),
    }[how]
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


CORPUS_VALUE_PATCHES = [
    "true_id_vocab", "noisy_id_99", "noisy_id_negative", "nan_feature", "inf_feature"
]


@pytest.mark.parametrize("how", CORPUS_VALUE_PATCHES)
def test_corpus_ids_and_features_checked(tmp_path, tiny, how):
    with pytest.raises(VersionMismatchError, match="id outside|non-finite"):
        load_bytes(tmp_path, "tiny.corpus", patched_corpus(tiny, how))


def patched_params(tiny, name, how) -> bytes:
    """A checkpoint or blank file with its first parameter at inf or its
    last at NaN: float32 parameters after the header and the attention
    flags, or float64 ones after the blank file's width."""
    raw = bytearray(tiny[name])
    if name == "tiny.blank":
        fmt, first = "<d", 12
    else:
        fmt, first = "<f", 4 * (11 + struct.unpack_from("<I", raw, 28)[0])
    offset, value = {
        "inf_param": (first, float("inf")),
        "nan_param": (len(raw) - struct.calcsize(fmt), float("nan")),
    }[how]
    struct.pack_into(fmt, raw, offset, value)
    return bytes(raw)


PARAM_VALUE_PATCHES = ["inf_param", "nan_param"]


@pytest.mark.parametrize("how", PARAM_VALUE_PATCHES)
@pytest.mark.parametrize("name", ["embedding.ckpt", "affine.ckpt", "tiny.blank"])
def test_non_finite_parameters_rejected(tmp_path, tiny, name, how):
    with pytest.raises(VersionMismatchError, match="non-finite"):
        load_bytes(tmp_path, name, patched_params(tiny, name, how))


def test_empty_corpus_is_empty_dataset_error(tmp_path, tiny):
    raw = bytearray(tiny["tiny.corpus"][:20])
    struct.pack_into("<I", raw, 8, 0)
    with pytest.raises(EmptyDatasetError):
        load_bytes(tmp_path, "tiny.corpus", bytes(raw))


def malformed(tiny, name, how):
    if how in CORPUS_VALUE_PATCHES:
        return patched_corpus(tiny, how)
    if how in PARAM_VALUE_PATCHES:
        return patched_params(tiny, name, how)
    raw = tiny[name]
    if how == "truncated":
        return raw[: len(raw) // 2]
    if how == "trailing":
        return raw + b"\x00"
    raw = bytearray(raw)
    struct.pack_into("<I", raw, 8, 0)  # corpus count, checkpoint head kind, blank width
    return bytes(raw[:20] if how == "empty" else raw)


# Every way each file is malformed, and the (exit code, category) the CLI
# reports for it. A corpus whose count reads 0 is an empty dataset, whatever
# follows it. `zeroed` is no fault in embedding.ckpt, whose head kind is 0.
FORMAT = (4, "format")
PARAM_FILE_FAULTS = ["truncated", "trailing", "zeroed", "empty"] + PARAM_VALUE_PATCHES
MALFORMED = {
    "tiny.corpus": dict.fromkeys(["truncated", "trailing"] + CORPUS_VALUE_PATCHES, FORMAT)
    | dict.fromkeys(["zeroed", "empty"], (6, "data")),
    "embedding.ckpt": dict.fromkeys([how for how in PARAM_FILE_FAULTS if how != "zeroed"], FORMAT),
    "affine.ckpt": dict.fromkeys(PARAM_FILE_FAULTS, FORMAT),
    "tiny.blank": dict.fromkeys(PARAM_FILE_FAULTS, FORMAT),
}

# The tiny file in each input role. export-blank may read either checkpoint.
TINY_INPUTS = {
    "checkpoint": "embedding.ckpt",
    "corpus": "tiny.corpus",
    "blank": "tiny.blank",
    "ce": "embedding.ckpt",
    "ctc": "affine.ckpt",
    "clean": "tiny.corpus",
    "jittered": "tiny.corpus",
}

# The files each command reads.
READS = {
    command: list(dict.fromkeys(TINY_INPUTS[role] for role in roles if role in TINY_INPUTS))
    for command, roles in ROLES.items()
    if command != "gen-data"
}
READS["export-blank"].append("affine.ckpt")


def run_tiny(command, files, out, checkpoint="embedding.ckpt"):
    """Run `command` on `files` for one step, writing under `out`; export-blank
    reads `checkpoint`."""
    inputs = {role: files[name] for role, name in TINY_INPUTS.items()}
    if command == "export-blank":
        inputs["checkpoint"], out = files[checkpoint], out / "blank.bin"
    steps = ["--steps", 1] if command in ("pretrain", "finetune") else []
    return main(cli_argv(command, *steps, **inputs, out=out))


def write_files(root, tiny, name=None, how=None):
    """Every tiny file under `root`, `name` malformed as `how`."""
    files = {key: root / key for key in LOADERS}
    for key, path in files.items():
        path.write_bytes(malformed(tiny, key, how) if key == name else tiny[key])
    return files


@pytest.mark.parametrize("command", sorted(READS))
def test_cli_runs_on_the_tiny_files(tmp_path, tiny, command):
    out = tmp_path / "out"
    out.mkdir()
    assert run_tiny(command, write_files(tmp_path, tiny), out) == 0


def test_export_blank_from_affine_head_is_data_error(tmp_path, tiny, capsys):
    """A well-formed checkpoint of the wrong kind: export-blank reads no
    configuration, so the file, not a setting, is at fault."""
    out = tmp_path / "out"
    out.mkdir()
    files = write_files(tmp_path, tiny)
    assert run_tiny("export-blank", files, out, checkpoint="affine.ckpt") == 6
    assert capsys.readouterr().err.startswith("error[data]")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "command, name, how, code, category",
    [
        (command, name, how, code, category)
        for command, names in READS.items()
        for name in names
        for how, (code, category) in MALFORMED[name].items()
    ],
)
def test_cli_categorizes_malformed_files(
    tmp_path, tiny, capsys, command, name, how, code, category
):
    out = tmp_path / "out"
    out.mkdir()
    files = write_files(tmp_path, tiny, name, how)
    assert run_tiny(command, files, out, checkpoint=name) == code
    assert capsys.readouterr().err.startswith(f"error[{category}]")
    assert list(out.iterdir()) == []
