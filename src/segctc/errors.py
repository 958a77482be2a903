"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Array dimensions disagree with an operation's contract."""


class ShapeMismatchError(ValueError):
    """Parameter and gradient shapes disagree."""


class LengthMismatchError(ValueError):
    """A frame-aligned sequence does not cover the expected frame count."""


class InfeasibleTargetError(ValueError):
    """A CTC target is longer than the number of available frames."""


class EnumerationTooLargeError(ValueError):
    """Brute-force path enumeration would exceed the safety limit."""


class ConfigError(ValueError):
    """Invalid configuration value or unknown configuration key."""


class EmptyDatasetError(ValueError):
    """An evaluation dataset contains no utterances."""


class VersionMismatchError(ValueError):
    """A binary file has an unknown magic, version, or is truncated."""


class NonFiniteLossError(RuntimeError):
    """Training produced a non-finite loss value.

    Records the offending step and, when known, the corpus index of the first
    utterance whose loss is non-finite and the loss term ("ce" or "ctc")
    that made it so, so a failed run can be diagnosed from logs.
    """

    def __init__(
        self, step: int, value: float, utterance: int | None = None, term: str | None = None
    ):
        where = f"step {step}"
        if utterance is not None:
            where += f", utterance {utterance}"
        if term is not None:
            where += f", {term} term"
        super().__init__(f"non-finite loss {value!r} at {where}")
        self.step = step
        self.value = value
        self.utterance = utterance
        self.term = term
