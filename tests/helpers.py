"""Random draws shared by the CTC and acceptance tests, and the CLI's test
harness: the tiny config and the one builder of every command's arguments."""

from pathlib import Path

from segctc import log_softmax


def random_lattice(rng, frames, vocab):
    return log_softmax(rng.normal(size=(frames, vocab + 1)), axis=1)


def random_dedup_target(rng, vocab, length):
    target = []
    for _ in range(length):
        c = int(rng.integers(vocab))
        while target and vocab > 1 and c == target[-1]:
            c = int(rng.integers(vocab))
        target.append(c)
    return target


TINY_CFG = Path(__file__).with_name("tiny.cfg")


def tiny_config(path, *settings):
    """Write the tiny config to `path`, each `key=value` of `settings` in
    place of its key's line, or after them all if the key has none."""
    keys = {setting.split("=")[0] for setting in settings}
    lines = [line for line in TINY_CFG.read_text().splitlines() if line.split("=")[0] not in keys]
    path.write_text("\n".join([*lines, *settings]) + "\n")
    return path


# The flag that takes each input role.
FLAGS = {
    "config": "--config",
    "corpus": "--corpus",
    "checkpoint": "--checkpoint",
    "blank": "--load-blank",
    "ce": "--ce-checkpoint",
    "ctc": "--ctc-checkpoint",
    "clean": "--eval-clean",
    "jittered": "--eval-jittered",
    "out": "--out",
}

# The input roles each command takes.
ROLES = {
    "gen-data": ("config", "out"),
    "pretrain": ("config", "corpus", "out"),
    "finetune": ("config", "checkpoint", "corpus", "blank", "out"),
    "analyze": ("config", "ce", "ctc", "clean", "jittered", "out"),
    "export-blank": ("checkpoint", "out"),
}


def cli_argv(command, *extra, **inputs):
    """The arguments that run `command`: the flag and path of each input
    role in `inputs` that it takes, then the `extra` flags as they are.
    Roles it does not take are left out, so one set of inputs serves every
    command."""
    args = [arg for role in ROLES[command] if role in inputs for arg in (FLAGS[role], inputs[role])]
    return [command, *map(str, args), *map(str, extra)]


def required_inputs(command):
    """The input roles `command` cannot run without, besides `out`."""
    return [role for role in ROLES[command] if role not in ("config", "blank", "out")]


def data_inputs(data, checkpoint=None):
    """The input roles that gen-data's files in `data` fill, and those that
    `checkpoint`, if given, fills."""
    pool = {
        "corpus": data / "train.corpus",
        "clean": data / "eval_clean.corpus",
        "jittered": data / "eval_jittered.corpus",
    }
    if checkpoint is not None:
        pool |= dict.fromkeys(("checkpoint", "ce", "ctc"), checkpoint)
    return pool
