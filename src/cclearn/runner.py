"""Class- and domain-incremental training, evaluation, and baselines.

A run walks the task stream in order.  For each stage it trains on the union
of the current task's data and the replay buffer, rebalances the buffer, then
evaluates on every test set seen so far with the candidate-class set grown to
all classes trained so far (class-incremental) or the fixed label set
(domain-incremental).  Classification is always nearest-label-embedding; no
separate linear head exists anywhere.

Accuracy bookkeeping: entry (t, b) is accuracy on task b's test set after
stage t.  The per-stage aggregate A_t is accuracy over the union of test sets
0..t for class-incremental streams, counted from the per-task entries so each
test row is evaluated once per stage, and the unweighted mean of per-domain
accuracies for domain-incremental streams.

Every method trains through one step loop (``_Trainer.train_task``): draw an
epoch's batches, take the method's loss and gradient on each, check them,
step the optimizer, guard against divergence and log every ``log_every``
steps.  Every batch is rows of the stage pool: each step gets the pool and
its batch as integer rows of it, and no step builds a Pool of its own.
Methods differ only in how batches are drawn (slices of a shuffled order of
the pool's rows, or class picks plus per-class row draws for gdro) and in
the one fused step function that gives a batch's loss and gradient:
``gcl_step``, ``gdro_step`` or ``ce_step``.  Each encodes its rows once per
step, and what depends only on the pool (estimator columns, classes) is
looked up once per stage.

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

from .buffer import MemoryBuffer, sample_class_batch
from .data import Pool, Task, TaskStream
from .errors import ConfigError, DivergenceError, NonFiniteGradientError
from .gcl import GclEstimatorState, _check_rows, _check_tau, _first_repeat, gcl_step
from .gdro import GdroConfig, GdroEstimatorState, dro_weights, gdro_step

# perfbench/tracing.py wraps these names on this module; training calls the fused steps
from .gcl import gcl_gradient_estimate, gcl_loss_full, gcl_update_estimators  # noqa: F401
from .gdro import gdro_gradient_estimate, gdro_update_estimators  # noqa: F401
from .model import EncoderConfig, EncoderPair
from .optim import init_optimizer, step as optimizer_step

METHODS = ("gcl", "gdro", "finetune-ce", "zero-shot", "joint-upper-bound")


@dataclass(frozen=True)
class RunConfig:
    """One run's method and hyperparameters; every field is range-checked here.

    ``dro_lambda`` defaults to 0.5.  On the committed benchmark stream that
    setting puts nearly all robust weight on each stage's new classes and
    collapses in the last stage; ``cclearn.benchmark`` uses 5.0.  The default
    is kept so that existing runs reproduce.
    """

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


def evaluate(enc: EncoderPair, params, test: Pool, candidate_classes) -> float:
    """Fraction of test rows whose nearest label embedding is the true class."""
    if not test:
        raise ValueError("test set must be non-empty")
    return float(np.mean(enc.predict_batch(params, test.X, candidate_classes) == test.y))


# ------------------------------------------------------------- cross-entropy


def _ce_softmax(Z, idx):
    """Mean softmax cross-entropy of logits Z against true columns idx, and the
    row softmax P."""
    m = Z.max(axis=1)
    P = np.exp(Z - m[:, None])
    total = P.sum(axis=1, keepdims=True)
    row_loss = m + np.log(total[:, 0]) - Z[np.arange(len(Z)), idx]
    P /= total
    return float(row_loss.sum() / len(row_loss)), P


def _ce_loss_and_grad(enc, params, X, classes, idx, tau):
    """Cross-entropy of the rows X over the classes, whose true columns are idx,
    and its gradient, from one encoding; the backward reuses the similarities."""
    f1, f2, sims = enc.pair_forward(params, X, classes)
    loss, P = _ce_softmax(sims / tau, idx)
    P[np.arange(len(P)), idx] -= 1.0
    return loss, enc.pair_grad(f1, f2, P / (len(P) * tau), sims)


def ce_step(enc: EncoderPair, params, pool: Pool, rows, tau) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy of sim/tau logits of the batch ``rows`` (an
    integer array) of ``pool`` over the pool's classes, and its analytic gradient
    through (softmax - onehot) / (|B| * tau) pair weights, from one encoding of
    the rows.  The classes and each row's true column come from
    ``pool.class_index``, built once per pool.  Refuses a non-positive tau, rows
    that are not a 1-d integer array of rows of ``pool`` and an empty batch."""
    tau = _check_tau(tau)
    _check_rows(rows, pool)
    if not len(rows):
        raise ValueError("batch must be non-empty")
    classes, index = pool.class_index[:2]
    return _ce_loss_and_grad(enc, params, pool.X[rows], classes, index[rows], tau)


def _candidate_columns(batch, candidates, tau):
    """tau, and each batch row's column among the candidates.  Refuses a
    non-positive tau, an empty batch, a repeated candidate and a batch class
    that is not among the candidates."""
    tau = _check_tau(tau)
    if not batch:
        raise ValueError("batch must be non-empty")
    col = {c: j for j, c in enumerate(candidates)}
    if len(col) != len(candidates):
        raise ValueError(f"candidate class {_first_repeat(candidates)} is repeated")
    try:
        return tau, np.array([col[k] for k in batch.y.tolist()])
    except KeyError as err:
        raise ValueError(
            f"batch class {err.args[0]} is not among the candidates {list(candidates)}"
        ) from None


def ce_loss(enc: EncoderPair, params, batch: Pool, candidates, tau) -> float:
    """The loss of ``ce_step`` on the Pool ``batch`` over the distinct
    ``candidates``, without a backward pass."""
    tau, idx = _candidate_columns(batch, candidates, tau)
    return _ce_softmax(enc.similarity_matrix(params, batch.X, candidates) / tau, idx)[0]


def ce_gradient(enc: EncoderPair, params, batch: Pool, candidates, tau) -> np.ndarray:
    """The gradient of ``ce_step`` on the Pool ``batch`` over the distinct
    ``candidates``."""
    tau, idx = _candidate_columns(batch, candidates, tau)
    return _ce_loss_and_grad(enc, params, batch.X, candidates, idx, tau)[1]


# ----------------------------------------------------------------- run driver


class _Trainer:
    """Owns the mutable training state for one run."""

    def __init__(self, stream: TaskStream, config: RunConfig):
        all_classes = stream.classes_up_to(stream.num_tasks - 1)
        self.enc = EncoderPair(
            config.encoder_config(
                input_dim=stream.tasks[0].train.X.shape[1],
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
        A gcl or cross-entropy batch is an index array of rows of the stage
        pool, a gdro batch its (class, seed) picks; ``_step`` draws the
        per-class rows."""
        cfg, gcfg = self.config, self.gdro_config
        if cfg.method != "gdro":
            order = self.shuffle_rng.permutation(len(pool))
            return [order[i : i + cfg.batch_size] for i in range(0, len(pool), cfg.batch_size)]
        n_take = min(gcfg.batch_classes, len(candidates))
        batches = []
        for _ in range(max(1, math.ceil(len(pool) / (gcfg.batch_classes * gcfg.batch_per_class)))):
            picked = self.batch_rng.choice(len(candidates), n_take, replace=False)
            batches.append([(candidates[i], int(self.batch_rng.integers(2**63))) for i in picked])
        return batches

    def _step(self, batch, pool):
        """The method's loss and gradient on one batch, from one fused step call.

        The gdro loss is the robust objective over the estimated u_c.
        """
        cfg, enc, params = self.config, self.enc, self.params
        if cfg.method == "finetune-ce":
            return ce_step(enc, params, pool, batch, cfg.tau)
        if cfg.method == "gcl":
            return gcl_step(self.gcl_state, enc, params, pool, batch, cfg.tau)
        gcfg = self.gdro_config
        per_class = {k: sample_class_batch(pool, k, gcfg.batch_per_class, seed) for k, seed in batch}
        return gdro_step(self.gdro_state, enc, params, list(per_class), per_class, pool, gcfg)

    def _log_fields(self):
        """gdro's per-class loss estimates and robust weights; other methods add none."""
        if self.config.method != "gdro":
            return {}
        tracked, h = self.gdro_state.class_losses()
        weights = dro_weights(h, self.gdro_config.lam)
        return {
            "h": {str(k): float(v) for k, v in zip(tracked, h)},
            "dro_weights": {str(k): float(w) for k, w in zip(tracked, weights)},
        }

    def train_task(self, task, pool: Pool):
        """Train stage ``task`` on its ``Pool`` (replay plus task data) for every epoch."""
        cfg = self.config
        if cfg.method == "zero-shot":
            return
        candidates = sorted(pool.members)
        if cfg.method == "gdro" and len(candidates) < 2:
            raise ConfigError(
                f"gdro needs at least two classes in each stage's pool; "
                f"the pool of stage {task} holds {len(candidates)}"
            )
        for epoch in range(cfg.epochs_per_task):
            for batch in self._batches(pool, candidates):
                loss, grad = self._step(batch, pool)
                if not math.isfinite(loss):
                    raise self._diverged("loss became non-finite", task, epoch)
                try:
                    self.opt, self.params = optimizer_step(self.opt, self.params, grad)
                except NonFiniteGradientError as err:
                    raise self._diverged("non-finite gradient", task, epoch) from err
                # 1e150 guard: beyond it the norm of a forward pass overflows float64;
                # a NaN or inf parameter fails the comparison too
                if not np.abs(self.params).max() <= 1e150:
                    raise self._diverged("parameters became non-finite or exploded", task, epoch)
                if self.global_step % cfg.log_every == 0:
                    self.log.append(
                        {"event": "step", "task": task, "epoch": epoch,
                         "step": self.global_step, "loss": loss, **self._log_fields()}
                    )
                self.global_step += 1


def merge_tasks(stream: TaskStream) -> TaskStream:
    """Collapse a stream into one task holding all its train and test rows, in order."""
    merged = Task(
        train=Pool.concat([t.train for t in stream.tasks]),
        test=Pool.concat([t.test for t in stream.tasks]),
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
        accs = []
        for b in range(t + 1):
            acc = evaluate(trainer.enc, trainer.params, stream.tasks[b].test, candidates)
            matrix.entries[(t, b)] = acc
            accs.append(acc)
            trainer.log.append(
                {"event": "eval", "after_task": t, "eval_task": b, "accuracy": acc}
            )
        if stream.mode == "dil":
            a_t = float(np.mean(accs))
        else:
            # acc is the correctly rounded correct/n, so round(acc * n) is the count
            sizes = [len(stream.tasks[b].test) for b in range(t + 1)]
            a_t = sum(round(acc * n) for acc, n in zip(accs, sizes)) / sum(sizes)
        matrix.aggregate[t] = a_t
        trainer.log.append({"event": "task_summary", "after_task": t, "A_t": a_t})
    return RunResult(accuracy=matrix, params=trainer.params, log=trainer.log)
