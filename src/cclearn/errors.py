"""Exception types shared across the package."""


class DatasetFormatError(Exception):
    """Raised when a dataset file is malformed, truncated, or has an unsupported version."""


class ConfigError(ValueError):
    """Raised when a config is valid on its own but cannot train on the stream it
    is given, such as gdro on a stage whose pool holds a single class."""


class DivergenceError(RuntimeError):
    """Raised when training produces non-finite losses, gradients, or parameters.

    Carries enough context (task/epoch/step) to locate the failing update.
    """

    def __init__(self, message, task=None, epoch=None, step=None):
        super().__init__(message)
        self.task = task
        self.epoch = epoch
        self.step = step


class NonFiniteGradientError(ValueError):
    """Raised by the optimizer when asked to apply a gradient containing NaN or Inf."""
