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
steps.  A stage's loop runs with numpy's floating-point warnings off, so a
run that goes non-finite reports only its ``DivergenceError``.  gcl computes
its loss only on the steps it logs, and on any step whose logits could make
it non-finite (``_gcl_loss_and_grad``), so ``log_every`` moves no parameter
and no divergence step.  Every batch is rows of the stage pool, and no step
builds a Pool of its own.  Methods differ only in how batches are drawn
(slices of a shuffled order of the pool's rows, drawn per epoch, or for gdro
slices of the class picks' per-class row draws, all made and joined once
before the stage's first step) and in the one step function that gives a
batch's loss and gradient: ``_gcl_loss_and_grad``, ``_gdro_loss_and_grad`` or
``_ce_loss_and_grad``.  Each takes its batch prepared (checked and gathered)
and does only the work that depends on the parameters: it encodes its rows
once, through the forwards that check their input, takes the loss, updates
the estimators and forms the gradient.  ``_epochs`` prepares the batches:
the forwards' checks of the pool's inputs and classes once per stage, so that
bad input is refused before the stage's first step; for gcl and gdro, whose
estimator columns are pool rows, one ``carry`` of the estimates to the pool,
also before the first step: the buffer's ``kept`` rows of the previous stage
pool become the stored rows that open this one, so each keeps its estimate,
the task's rows start without one, and the table never outgrows the pool;
for gcl and cross-entropy one gather of inputs and one of classes or of true
columns per epoch, each batch a slice of these; for gdro every step's anchors
at once per stage (``gdro._stage_anchors``).  Training reads no sample id.
Training never calls the public ``gcl_step`` and ``gdro_step``, which prepare
one batch of rows with every per-call check and then call the same step
function.  ``ce_loss`` and ``ce_gradient`` on ``pool.take(rows)`` over the
pool's classes give cross-entropy's step's bits.

Methods:
    gcl               global contrastive loss with replay
    gdro              per-class robust reweighting with replay
    finetune-ce       softmax cross-entropy over similarities, pool classes only
    zero-shot         no training; evaluates the freshly initialized model
    joint-upper-bound one merged training phase over all tasks' data
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .buffer import MemoryBuffer, sample_class_batches
from .data import Pool, Task, TaskStream, _first_repeat
from .errors import ConfigError, DivergenceError, NonFiniteGradientError
from .gcl import GclEstimatorState, _check_tau, _gcl_loss_and_grad
from .gdro import GdroConfig, GdroEstimatorState, _gdro_loss_and_grad, _stage_anchors, dro_weights

# perfbench/tracing.py wraps these names on this module; training calls the step
# functions on prepared batches and draws a stage's gdro rows with one
# sample_class_batches call
from .buffer import sample_class_batch  # noqa: F401
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

    gcl's estimator update takes exp(sims / ``tau``) unshifted, so below about
    ``tau`` = 1/709 (1.4e-3) a gcl run can stop with a ``DivergenceError`` for
    a non-finite gradient, where gdro and finetune-ce train.
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
    """Mean softmax cross-entropy of logits Z against true columns idx, the row
    softmax P, written over Z, and the flat index of the true cells."""
    flat = np.arange(0, Z.size, Z.shape[1]) + idx
    m = np.maximum.reduce(Z, axis=1)
    true = Z.take(flat)
    P = np.exp(np.subtract(Z, m[:, None], out=Z), out=Z)
    total = np.add.reduce(P, axis=1)
    P /= total[:, None]
    return float(np.add.reduce(m + np.log(total) - true) / len(Z)), P, flat


def _ce_loss_and_grad(enc, params, X, classes, idx, tau):
    """Mean softmax cross-entropy of sim/tau logits of the rows X over the
    classes, whose true columns are idx, and its gradient through (softmax -
    onehot) / (|B| * tau) pair weights, from one encoding.  tau is a positive
    float.  The training step, on a batch prepared once per epoch."""
    f1, f2, sims = enc.pair_forward(params, X, classes)
    loss, P, flat = _ce_softmax(sims / tau, idx)
    P.ravel()[flat] -= 1.0
    return loss, enc.pair_grad(f1, f2, np.divide(P, len(P) * tau, out=P), sims)


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
    """The training step's loss on the Pool ``batch`` over the distinct
    ``candidates``, without a backward pass.  On ``pool.take(rows)`` over the
    pool's classes it is the bits training gets for those rows."""
    tau, idx = _candidate_columns(batch, candidates, tau)
    return _ce_softmax(enc.similarity_matrix(params, batch.X, candidates) / tau, idx)[0]


def ce_gradient(enc: EncoderPair, params, batch: Pool, candidates, tau) -> np.ndarray:
    """The training step's gradient on the Pool ``batch`` over the distinct
    ``candidates``, which ``ce_loss`` takes too."""
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
        # the estimator state of the method trained; cross-entropy and zero-shot keep none
        self.state = (GclEstimatorState(gamma=config.gcl_gamma) if config.method == "gcl"
                      else GdroEstimatorState() if config.method == "gdro" else None)
        self.gdro_config = config.gdro_config()
        self.tau = _check_tau(config.tau)
        self.log: list[dict] = []
        self.global_step = 0

    def _diverged(self, what, task, epoch):
        return DivergenceError(
            f"{what} at task {task}, epoch {epoch}, step {self.global_step}",
            task=task, epoch=epoch, step=self.global_step,
        )

    def _epochs(self, pool):
        """Each epoch's batches of rows of the stage pool, each RNG with this one
        consumer, prepared for the method's step.  The forwards' checks of the
        pool's inputs and classes run once per stage, before any draw.  gcl's
        and gdro's estimator columns are pool rows, so their stage then
        carries the last stage pool's estimates along the buffer's ``kept``
        rows, which open this pool (``carry``); a batch's rows are its
        estimator columns.

        A gcl or cross-entropy epoch is slices of a shuffled order of the pool's
        rows, with one gather each of its inputs and of its classes (gcl) or
        true columns (cross-entropy).  A batch is slices of these.

        A gdro batch is one run of rows per picked class: every epoch's (class,
        seed) picks are drawn before the stage's first step, one ``choice`` and
        one ``integers`` call per batch, then one ``sample_class_batches`` call
        draws every pick's rows, and ``_stage_anchors`` prepares every step's
        anchors from them at once, handed out one epoch at a time."""
        cfg, gcfg, enc = self.config, self.gdro_config, self.enc
        X = enc._check_inputs(pool.X)
        labels = enc._check_class_ids(pool.y if cfg.method == "gcl" else pool.class_index[0])
        if self.state is not None:
            self.state.samples.carry(self.buffer.kept, len(pool))
        if cfg.method != "gdro":
            N, size = len(pool), cfg.batch_size
            starts = range(0, N, size)
            for _ in range(cfg.epochs_per_task):
                order = self.shuffle_rng.permutation(N)
                Xo = X.take(order, axis=0)
                if cfg.method == "gcl":
                    yo = labels.take(order)
                    yield [(Xo[i : i + size], yo[i : i + size], order[i : i + size], N)
                           for i in starts]
                else:
                    idx = pool.class_index[1].take(order)
                    yield [(Xo[i : i + size], labels, idx[i : i + size]) for i in starts]
            return
        candidates = labels.tolist()
        n_take = min(gcfg.batch_classes, len(candidates))
        steps = max(1, math.ceil(len(pool) / (gcfg.batch_classes * gcfg.batch_per_class)))
        picks, seeds = [], []
        for _ in range(cfg.epochs_per_task * steps):
            picked = self.batch_rng.choice(len(candidates), n_take, replace=False)
            picks += [candidates[i] for i in picked]
            seeds.append(self.batch_rng.integers(2**63, size=n_take))
        draws = sample_class_batches(pool, picks, gcfg.batch_per_class, np.concatenate(seeds))
        batches = ((pool, a) for a in _stage_anchors(pool, picks, draws, n_take))
        for _ in range(cfg.epochs_per_task):
            yield list(itertools.islice(batches, steps))

    def _step(self, batch, logged):
        """The method's loss and gradient on one batch that ``_epochs`` prepared.
        The gdro loss is the robust objective over the estimated u_c.  A gcl
        step that is not ``logged`` gives None for a loss it has proved finite
        (``_gcl_loss_and_grad``)."""
        state, enc, params = self.state, self.enc, self.params
        if state is None:
            return _ce_loss_and_grad(enc, params, *batch, self.tau)
        if self.config.method == "gcl":
            return _gcl_loss_and_grad(state, enc, params, *batch, self.tau, logged)
        return _gdro_loss_and_grad(state, enc, params, *batch, self.gdro_config)

    def _log_fields(self):
        """gdro's per-class loss estimates and robust weights; other methods add none."""
        if self.config.method != "gdro":
            return {}
        tracked, h = self.state.class_losses()
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
        if cfg.method == "gdro" and len(pool.class_index[0]) < 2:
            raise ConfigError(
                f"gdro needs at least two classes in each stage's pool; "
                f"the pool of stage {task} holds {len(pool.class_index[0])}"
            )
        # a run that goes non-finite stops at the checks below with one
        # DivergenceError; numpy's overflow and NaN warnings on the way add nothing
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for epoch, batches in enumerate(self._epochs(pool)):
                for batch in batches:
                    logged = self.global_step % cfg.log_every == 0
                    loss, grad = self._step(batch, logged)
                    if loss is not None and not math.isfinite(loss):
                        raise self._diverged("loss became non-finite", task, epoch)
                    try:
                        self.opt, self.params = optimizer_step(self.opt, self.params, grad)
                    except NonFiniteGradientError as err:
                        raise self._diverged("non-finite gradient", task, epoch) from err
                    # 1e150 guard: beyond it the norm of a forward pass overflows
                    # float64; a NaN or inf parameter fails the comparison too
                    if not np.maximum.reduce(np.abs(self.params)) <= 1e150:
                        raise self._diverged(
                            "parameters became non-finite or exploded", task, epoch
                        )
                    if logged:
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
    buffer in ``info`` (instrumentation, e.g. capacity audits).  The joint upper
    bound trains gcl on ``merge_tasks(stream)`` for ``epochs_per_task * num_tasks``.
    """
    if not stream.tasks:
        raise ValueError("stream has no tasks")
    method = config.method
    if method == "joint-upper-bound":
        config = replace(config, method="gcl",
                         epochs_per_task=config.epochs_per_task * stream.num_tasks)
        stream = merge_tasks(stream)

    trainer = _Trainer(stream, config)
    matrix = AccuracyMatrix()
    trainer.log.append(
        {"event": "run_start", "method": method, "seed": config.seed,
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
