"""Class- and domain-incremental training, evaluation, and baselines.

A run walks the task stream in order.  For each stage it trains on the union
of the current task's data and the replay buffer, rebalances the buffer, then
evaluates on every test set seen so far with the candidate-class set grown to
all classes trained so far (class-incremental) or the fixed label set
(domain-incremental).  Classification is always nearest-label-embedding; no
separate linear head exists anywhere.

Accuracy bookkeeping: entry (t, b) is accuracy on task b's test set after
stage t.  The per-stage aggregate A_t is accuracy over the union of test sets
0..t for class-incremental streams, and the unweighted mean of per-domain
accuracies for domain-incremental streams.

Every method trains through one step loop (``_Trainer.train_task``): draw an
epoch's batches, take the method's loss and gradient on each, check them,
step the optimizer, guard against divergence and log every ``log_every``
steps.  Methods differ only in how batches are drawn (shuffled slices of the
pool, or class picks plus per-class draws for gdro) and in the loss and
gradient of one step.

Methods:
    gcl               global contrastive loss with replay
    gdro              per-class robust reweighting with replay
    finetune-ce       softmax cross-entropy over similarities, pool classes only
    zero-shot         no training; evaluates the freshly initialized model
    joint-upper-bound one merged training phase over all tasks' data
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .buffer import MemoryBuffer, Pool, sample_class_batch
from .data import Task, TaskStream
from .errors import DivergenceError, NonFiniteGradientError
from .gcl import (
    GclEstimatorState,
    gcl_gradient_estimate,
    gcl_loss_full,
    gcl_update_estimators,
)
from .gdro import (
    GdroConfig,
    GdroEstimatorState,
    dro_objective,
    dro_weights,
    gdro_gradient_estimate,
    gdro_update_estimators,
)
from .model import EncoderConfig, EncoderPair
from .optim import init_optimizer, step as optimizer_step

METHODS = ("gcl", "gdro", "finetune-ce", "zero-shot", "joint-upper-bound")


@dataclass(frozen=True)
class RunConfig:
    method: str
    epochs_per_task: int
    memory_capacity: int
    seed: int
    embed_dim: int = 8
    hidden_dim: int = 0
    tau: float = 0.1
    batch_size: int = 32  # gcl / finetune-ce
    gcl_gamma: float = 0.9
    dro_lambda: float = 0.5
    dro_gamma: float = 0.9
    margin: float = 0.1
    batch_classes: int = 4
    batch_per_class: int = 8
    eta: float = 0.2
    beta1: float = 0.9
    optimizer: str = "momentum-sgd"
    log_every: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            kinds = {"int": int, "float": (int, float), "str": str}[f.type]
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise TypeError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not abs(value) <= sys.float_info.max:  # NaN, inf, 10**400
                raise ValueError(f"{f.name} must be a finite float, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.epochs_per_task < 1:
            raise ValueError("epochs_per_task must be >= 1")
        if self.memory_capacity < 0:
            raise ValueError("memory_capacity must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")
        # the components' constructors hold the range checks of the other fields
        self.gdro_config()
        init_optimizer(0, self.eta, self.beta1, self.optimizer)
        GclEstimatorState(gamma=self.gcl_gamma)
        self.encoder_config(input_dim=1, num_classes_max=1)

    def gdro_config(self) -> GdroConfig:
        return GdroConfig(
            lam=self.dro_lambda,
            gamma=self.dro_gamma,
            margin=self.margin,
            tau=self.tau,
            batch_classes=self.batch_classes,
            batch_per_class=self.batch_per_class,
        )

    def encoder_config(self, input_dim: int, num_classes_max: int) -> EncoderConfig:
        return EncoderConfig(
            input_dim=input_dim,
            num_classes_max=num_classes_max,
            hidden_dim=self.hidden_dim,
            embed_dim=self.embed_dim,
            seed=self.seed,
        )


@dataclass
class AccuracyMatrix:
    """Lower-triangular accuracy records plus the per-stage aggregate A_t."""

    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    aggregate: dict[int, float] = field(default_factory=dict)

    def final_aggregate(self) -> float:
        return self.aggregate[max(self.aggregate)]


@dataclass
class RunResult:
    accuracy: AccuracyMatrix
    params: np.ndarray
    log: list[dict]


def evaluate(enc: EncoderPair, params, test, candidate_classes) -> float:
    """Fraction of test samples whose nearest label embedding is the true class."""
    test = Pool.of(test)
    if not test:
        raise ValueError("test set must be non-empty")
    return float(np.mean(enc.predict_batch(params, test.X, candidate_classes) == test.y))


# ------------------------------------------------------------- cross-entropy


def _ce_logits(enc, params, batch, candidates, tau):
    """sim/tau logits over the candidates, each row's true-class column, row
    maxima, and the two towers' forward results."""
    batch = Pool.of(batch)
    f1 = enc._forward_inputs(params, batch.X)
    f2 = enc._forward_labels(params, candidates)
    Z = (f1[0] @ f2[0].T) / tau
    col = {c: j for j, c in enumerate(candidates)}
    idx = np.array([col[k] for k in batch.y.tolist()])
    return Z, idx, Z.max(axis=1), (f1, f2)


def ce_loss(enc: EncoderPair, params, batch, candidates, tau) -> float:
    """Mean softmax cross-entropy of sim/tau logits over the candidate classes."""
    Z, idx, m, _ = _ce_logits(enc, params, batch, candidates, tau)
    lse = m + np.log(np.exp(Z - m[:, None]).sum(axis=1))
    return float(np.mean(lse - Z[np.arange(len(batch)), idx]))


def ce_gradient(enc: EncoderPair, params, batch, candidates, tau) -> np.ndarray:
    """Analytic gradient of ce_loss: (softmax - onehot) / (|B| * tau) pair weights."""
    Z, idx, m, fwd = _ce_logits(enc, params, batch, candidates, tau)
    P = np.exp(Z - m[:, None])
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(len(batch)), idx] -= 1.0
    C = P / (len(batch) * tau)
    return enc.pair_grad(*fwd, C)


# ----------------------------------------------------------------- run driver


class _Trainer:
    """Owns the mutable training state for one run."""

    def __init__(self, stream: TaskStream, config: RunConfig):
        all_classes = stream.classes_up_to(stream.num_tasks - 1)
        self.enc = EncoderPair(
            config.encoder_config(
                input_dim=stream.tasks[0].train[0].x.shape[0],
                num_classes_max=max(all_classes) + 1,
            )
        )
        self.config = config
        self.params = self.enc.init_params()
        self.opt = init_optimizer(self.enc.n_params, config.eta, config.beta1, config.optimizer)
        children = np.random.SeedSequence(config.seed).spawn(3)
        self.shuffle_rng = np.random.default_rng(children[0])
        self.batch_rng = np.random.default_rng(children[1])
        self.buffer = MemoryBuffer(config.memory_capacity, int(children[2].generate_state(1)[0]))
        self.gcl_state = GclEstimatorState(gamma=config.gcl_gamma)
        self.gdro_state = GdroEstimatorState()
        self.gdro_config = config.gdro_config()
        self.log: list[dict] = []
        self.global_step = 0

    def _diverged(self, what, task, epoch):
        return DivergenceError(
            f"{what} at task {task}, epoch {epoch}, step {self.global_step}",
            task=task, epoch=epoch, step=self.global_step,
        )

    def _batches(self, pool, candidates):
        """One epoch's batches, drawn up front; each RNG has this one consumer.
        A gcl or cross-entropy batch is a ``Pool``."""
        cfg, gcfg = self.config, self.gdro_config
        if cfg.method != "gdro":
            order = self.shuffle_rng.permutation(len(pool))
            return [
                Pool(pool[i] for i in order[start : start + cfg.batch_size])
                for start in range(0, len(pool), cfg.batch_size)
            ]
        n_take = min(gcfg.batch_classes, len(candidates))
        batches = []
        for _ in range(max(1, math.ceil(len(pool) / (gcfg.batch_classes * gcfg.batch_per_class)))):
            picked = self.batch_rng.choice(len(candidates), n_take, replace=False)
            class_batch = [candidates[i] for i in picked]
            seeds = {k: int(self.batch_rng.integers(2**63)) for k in class_batch}
            batches.append((class_batch, {
                k: sample_class_batch(pool, k, gcfg.batch_per_class, seeds[k])
                for k in class_batch
            }))
        return batches

    def _step(self, batch, pool, candidates):
        """The method's loss, gradient and extra log fields on one batch.

        The gdro loss is the robust objective over the estimated u_c.
        """
        cfg, gcfg, enc, params = self.config, self.gdro_config, self.enc, self.params
        if cfg.method == "finetune-ce":
            args = (enc, params, batch, candidates, cfg.tau)
            return ce_loss(*args), ce_gradient(*args), {}
        if cfg.method == "gcl":
            args = (enc, params, batch, cfg.tau, len(pool))
            loss = gcl_loss_full(enc, params, batch, cfg.tau)
            gcl_update_estimators(self.gcl_state, *args)
            return loss, gcl_gradient_estimate(self.gcl_state, *args), {}
        args = (enc, params, *batch, pool, gcfg)
        gdro_update_estimators(self.gdro_state, *args)
        grad = gdro_gradient_estimate(self.gdro_state, *args)
        tracked = sorted(self.gdro_state.u_c)
        h = np.array([self.gdro_state.u_c[k] for k in tracked])
        extra = {
            "h": {str(k): float(v) for k, v in zip(tracked, h)},
            "dro_weights": {str(k): float(w) for k, w in zip(tracked, dro_weights(h, gcfg.lam))},
        }
        return dro_objective(h, gcfg.lam), grad, extra

    def train_task(self, task, pool: Pool):
        """Train stage ``task`` on its ``Pool`` (replay plus task data) for every epoch."""
        cfg = self.config
        if cfg.method == "zero-shot":
            return
        candidates = sorted(pool.members)
        if cfg.method == "gdro" and len(candidates) < 2:
            raise DivergenceError(
                "robust training needs at least two classes in the pool", task=task
            )
        for epoch in range(cfg.epochs_per_task):
            for batch in self._batches(pool, candidates):
                loss, grad, extra = self._step(batch, pool, candidates)
                if not math.isfinite(loss):
                    raise self._diverged("loss became non-finite", task, epoch)
                try:
                    self.opt, self.params = optimizer_step(self.opt, self.params, grad)
                except NonFiniteGradientError as err:
                    raise self._diverged("non-finite gradient", task, epoch) from err
                # 1e150 guard: beyond it the norm of a forward pass overflows float64
                if not np.all(np.isfinite(self.params)) or np.max(np.abs(self.params)) > 1e150:
                    raise self._diverged("parameters became non-finite or exploded", task, epoch)
                if self.global_step % cfg.log_every == 0:
                    self.log.append(
                        {"event": "step", "task": task, "epoch": epoch,
                         "step": self.global_step, "loss": loss, **extra}
                    )
                self.global_step += 1


def merge_tasks(stream: TaskStream) -> TaskStream:
    """Collapse a stream into one task holding all its train and test samples."""
    merged = Task(
        train=[s for t in stream.tasks for s in t.train],
        test=[s for t in stream.tasks for s in t.test],
        classes=frozenset(stream.classes_up_to(stream.num_tasks - 1)),
    )
    return TaskStream(mode="cil", tasks=[merged])


def run(stream: TaskStream, config: RunConfig, hook=None) -> RunResult:
    """Execute one continual run; deterministic per config seed.

    ``hook(event, info)``, if given, fires at task boundaries with the live
    buffer in ``info`` (instrumentation, e.g. capacity audits).
    """
    if not stream.tasks:
        raise ValueError("stream has no tasks")
    if config.method == "joint-upper-bound":
        inner = replace(
            config,
            method="gcl",
            epochs_per_task=config.epochs_per_task * stream.num_tasks,
        )
        return run(merge_tasks(stream), inner, hook=hook)

    trainer = _Trainer(stream, config)
    matrix = AccuracyMatrix()
    trainer.log.append(
        {"event": "run_start", "method": config.method, "seed": config.seed,
         "num_tasks": stream.num_tasks, "mode": stream.mode,
         "memory_capacity": config.memory_capacity}
    )
    all_classes = stream.classes_up_to(stream.num_tasks - 1)
    for t, task in enumerate(stream.tasks):
        pool = trainer.buffer.union_view(task.train)
        if hook:
            hook("task_start", {"task": t, "buffer": trainer.buffer, "pool_size": len(pool)})
        trainer.train_task(t, pool)
        trainer.buffer.rebalance_after_task(task.train)
        if hook:
            hook("rebalance", {"task": t, "buffer": trainer.buffer})

        candidates = all_classes if stream.mode == "dil" else stream.classes_up_to(t)
        for b in range(t + 1):
            acc = evaluate(trainer.enc, trainer.params, stream.tasks[b].test, candidates)
            matrix.entries[(t, b)] = acc
            trainer.log.append(
                {"event": "eval", "after_task": t, "eval_task": b, "accuracy": acc}
            )
        if stream.mode == "dil":
            a_t = float(np.mean([matrix.entries[(t, b)] for b in range(t + 1)]))
        else:
            union_test = [s for b in range(t + 1) for s in stream.tasks[b].test]
            a_t = evaluate(trainer.enc, trainer.params, union_test, candidates)
        matrix.aggregate[t] = a_t
        trainer.log.append({"event": "task_summary", "after_task": t, "A_t": a_t})
    return RunResult(accuracy=matrix, params=trainer.params, log=trainer.log)
