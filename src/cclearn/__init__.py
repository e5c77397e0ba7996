"""Continual learning for small bimodal contrastive models.

The package trains an input-encoder / label-encoder pair through a sequence of
tasks, mixing each task's data with a fixed-budget, class-balanced replay
buffer.  Two training objectives are provided: a global contrastive loss whose
normalizers range over the whole pool (tracked with per-sample moving
averages), and a KL-regularized robust objective that reweights per-class
hinge losses toward the classes currently being forgotten.
"""

from .buffer import MemoryBuffer, sample_class_batch
from .data import (
    Dataset,
    Pool,
    Task,
    TaskStream,
    gen_domain_shift,
    gen_synthetic,
    load,
    save,
    split_cil,
    split_dil,
)
from .errors import ConfigError, DatasetFormatError, DivergenceError, NonFiniteGradientError
from .gcl import GclEstimatorState
from .gdro import GdroConfig, GdroEstimatorState, dro_objective, dro_weights
from .model import EncoderConfig, EncoderPair
from .optim import OptimizerState, init_optimizer, step
from .runner import AccuracyMatrix, RunConfig, RunResult, evaluate, run

__version__ = "0.1.0"

__all__ = [
    "AccuracyMatrix", "ConfigError", "Dataset", "DatasetFormatError", "DivergenceError",
    "EncoderConfig", "EncoderPair", "GclEstimatorState", "GdroConfig",
    "GdroEstimatorState", "MemoryBuffer", "NonFiniteGradientError",
    "OptimizerState", "Pool", "RunConfig", "RunResult", "Task", "TaskStream",
    "dro_objective", "dro_weights", "evaluate", "gen_domain_shift", "gen_synthetic",
    "init_optimizer", "load", "run", "sample_class_batch", "save", "split_cil",
    "split_dil", "step",
]
