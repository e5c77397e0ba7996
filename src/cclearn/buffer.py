"""Fixed-capacity, class-balanced replay store.

The buffer keeps an (as close as possible to) equal number of randomly chosen
rows per class under a constant total budget.  When new classes arrive the
per-class quota shrinks: capacity // K per class, with the capacity % K
remainder slots going to the lowest class ids.  Stored rows are down-sampled
uniformly at random; re-selection only ever draws from what is currently
stored (streaming constraint), never from full past data.  The buffer
rebalances in place: one object and one RNG serve the whole run.

A class whose source holds fewer rows than its quota simply stores all of
them, so per-class counts are exactly min(quota, available); they differ by
at most one across classes whenever the sources cover the quotas.

The buffer takes and stores ``Pool``s: it starts from the empty Pool and
keeps copies of the rows it admits as one class-ascending Pool.  A stage
trains on the stored rows followed by the task's, joined once by
``union_view``.  Every batch is rows of that pool: a gcl or cross-entropy
batch is a slice of a shuffled order of its row indices, and a gdro
per-class batch is a draw of one class's row indices, which gdro joins into
its anchor rows and scores against the pool it has encoded.  A stage's gdro
draws are made once, before its first step, by one ``sample_class_batches``
call over every (class, seed) pick of the stage.

A draw with seed s from a class of m rows is the m-row choice
``np.random.default_rng(s).choice(m, n, replace=False)``, bit for bit.
``sample_class_batches`` computes it for every pick at once with uint32 and
uint64 array arithmetic, in numpy's own steps: SeedSequence hashes the
seed's two 32-bit words into four pool words and those into PCG64's
128-bit state and increment, held as (high, low) uint64 pairs; each 64-bit
XSL-RR output is two uint32 values, low half first; a draw in [0, j] is
Lemire's method; Floyd's selection draws each of the n picks, then a
Fisher-Yates pass shuffles them.  A pick in numpy's tail-shuffle branch
(m > 10000 and n > m // 50), or one where Lemire's method rejects a value
(each draw does so with probability below m / 2**32), is numpy's own call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .data import Pool, _is_int


@dataclass
class MemoryBuffer:
    capacity: int
    rng_seed: int

    def __post_init__(self):
        for name, value in (("capacity", self.capacity), ("rng_seed", self.rng_seed)):
            if not _is_int(value):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        self._rng = np.random.default_rng(self.rng_seed)
        self.stored = Pool.concat([])  # classes ascending, each in admission order

    def __len__(self):
        return len(self.stored)

    def class_counts(self) -> dict[int, int]:
        """Rows stored per class, for each class the buffer holds, ascending."""
        return {k: len(rows) for k, rows in self.stored.members.items()}

    def rebalance_after_task(self, finished_task_data: Pool) -> "MemoryBuffer":
        """Admit a finished task's rows; re-even the quotas.

        Updates the buffer in place and returns it; deterministic given rng_seed
        and call sequence.  Classes already stored (domain-incremental streams)
        merge their stored rows with the incoming ones before down-sampling.
        """
        rows = Pool.concat([self.stored, finished_task_data])
        if not len(rows):
            return self
        quota, remainder = divmod(self.capacity, len(rows.members))
        kept = []
        for i, members in enumerate(rows.members.values()):
            q = quota + (1 if i < remainder else 0)
            if q < len(members):
                members = members[np.sort(self._rng.choice(len(members), size=q, replace=False))]
            kept.append(members)
        self.stored = rows.take(np.concatenate(kept))
        return self

    def union_view(self, current_task_data: Pool) -> Pool:
        """The stored rows (classes ascending), then the task's rows as given."""
        return Pool.concat([self.stored, current_task_data])


def sample_class_batch(pool: Pool, class_id, batch_size, seed) -> np.ndarray:
    """Up to batch_size rows of one class of ``pool``, uniform without replacement,
    as indices into ``pool``: ``sample_class_batches`` of one (class, seed) pick."""
    return sample_class_batches(pool, [class_id], batch_size, [seed])[0]


def sample_class_batches(pool: Pool, class_ids, batch_size, seeds) -> list[np.ndarray]:
    """For each pick ``(class_ids[i], seeds[i])``, up to batch_size rows of that
    class of ``pool``, uniform without replacement, as indices into ``pool``:
    ``pool.members[k][np.random.default_rng(seed).choice(m, min(batch_size, m),
    replace=False)]`` for a class of m rows, bit for bit, drawn for all picks at
    once.  Refuses a batch_size that is not an int (a float or bool) or is below
    1, a class id that is not an int or not in the pool, and a seed that is not
    an int in [0, 2**64)."""
    if not _is_int(batch_size):
        raise ValueError(f"batch_size must be an int, got {batch_size!r}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    seeds = _seed_array(seeds)
    column, lane_class = {}, []
    for k in class_ids:
        if not _is_int(k):
            raise ValueError(f"class id must be an int, got {k!r}")
        if k not in pool.members:
            raise ValueError(f"class {k} not present in pool")
        lane_class.append(column.setdefault(k, len(column)))
    if len(lane_class) != len(seeds):
        raise ValueError(f"{len(lane_class)} class ids but {len(seeds)} seeds")
    members = [pool.members[k] for k in column]
    sizes = np.array([len(rows) for rows in members], dtype=np.int64)
    m = sizes[lane_class]
    n = np.minimum(m, batch_size)
    picks: list = [None] * len(m)
    by_numpy = (m > 10_000) & (n > m // 50)  # numpy's tail-shuffle branch of choice
    lanes = np.flatnonzero(~by_numpy)
    if len(lanes):
        rows = np.concatenate(members)
        first = (np.cumsum(sizes) - sizes)[lane_class]
        for i in range(0, len(lanes), _LANES_PER_PASS):
            part = lanes[i : i + _LANES_PER_PASS]
            positions, rejected = _choice_positions(seeds[part], m[part], n[part])
            picked = rows[positions + first[part, None]]
            for lane, row, k in zip(part.tolist(), picked, n[part].tolist()):
                picks[lane] = row[:k]
            by_numpy[part[rejected]] = True
    for lane in np.flatnonzero(by_numpy).tolist():
        rng = np.random.default_rng(int(seeds[lane]))
        picks[lane] = members[lane_class[lane]][rng.choice(int(m[lane]), int(n[lane]), False)]
    return picks


def _seed_array(seeds) -> np.ndarray:
    """The seeds as a uint64 array.  Refuses a seed that is not an int (a float
    or bool) or outside [0, 2**64)."""
    if isinstance(seeds, np.ndarray) and seeds.dtype.kind in "iu":
        if seeds.size and seeds.min() < 0:
            raise ValueError(f"seed must be an int in [0, 2**64), got {int(seeds.min())}")
        return seeds.astype(np.uint64).reshape(-1)
    seeds = list(seeds)
    for s in seeds:
        if not (_is_int(s) and 0 <= int(s) < 2**64):
            raise ValueError(f"seed must be an int in [0, 2**64), got {s!r}")
    return np.array([int(s) for s in seeds], dtype=np.uint64)


# ------------------------------------------- numpy's choice, one lane per pick
# The constants of numpy's SeedSequence (random/bit_generator.pyx) and PCG64.

_M32, _U32, _U63 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(63)
# a pass holds about 1.5 KB of arrays per lane at 8 rows per class; more lanes
# per pass raised a committed run's peak RSS by about 1 MB
_LANES_PER_PASS = 256


def _hash_constants(init, mult, calls):
    """The xor and multiplier constants of ``calls`` successive hashmix calls,
    whose hash constant starts at ``init`` and is multiplied by ``mult`` per
    call, as a (2, calls, 1) uint32 array."""
    c = [init]
    for _ in range(calls):
        c.append(c[-1] * mult & 0xFFFFFFFF)
    return np.array([c[:-1], c[1:]], np.uint32)[..., None]


def _hashmix(value, constants):
    xor, mult = constants
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


# SeedSequence.mix_entropy hashes 2 seed words and 2 zero words into its pool
# (calls 0-3), then mixes each pool word into the other three (calls 4-15);
# generate_state hashes 8 words out
_ENTROPY = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_STATE_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_ZERO_WORDS = _hashmix(np.zeros((2, 1), np.uint32), _ENTROPY[:, 2:4])
_CROSS = [
    (np.array([d for d in range(4) if d != src]), _ENTROPY[:, 4 + 3 * src : 7 + 3 * src])
    for src in range(4)
]
_STATE_WORDS = np.array([0, 1, 2, 3, 0, 1, 2, 3])
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_states(seeds):
    """``SeedSequence(seed).generate_state(4, np.uint64)`` per seed, as a (4, D)
    uint64 array: PCG64's initial state high and low words, then its sequence
    high and low words.  A seed below 2**32 hashes as the words (seed, 0)."""
    words = np.stack([seeds & _M32, seeds >> _U32]).astype(np.uint32)
    pool = np.empty((4, len(seeds)), np.uint32)
    pool[:2] = _hashmix(words, _ENTROPY[:, :2])
    pool[2:] = _ZERO_WORDS
    for src, (dst, constants) in enumerate(_CROSS):
        mixed = pool[dst] * _MIX_L
        mixed -= _hashmix(pool[src], constants) * _MIX_R
        mixed ^= mixed >> 16
        pool[dst] = mixed
    out = _hashmix(pool[_STATE_WORDS], _STATE_OUT).astype(np.uint64)
    return out[0::2] | out[1::2] << _U32


@functools.lru_cache(maxsize=64)
def _jump_constants(count):
    """PCG64 state k after seeding is a^(k+1) * (inc + initstate) + (1 + a + ...
    + a^k) * inc mod 2**128; these two multipliers for k = 1 .. count, each as
    (high, low, low's low 32 bits, low's high 32 bits) uint64 columns."""
    a, p, q, rows = _PCG_MULT, _PCG_MULT, 1, []
    for _ in range(count):
        p, q = p * a % 2**128, (q * a + 1) % 2**128
        rows.append((p, q))

    def columns(values):
        hi, lo = [v >> 64 for v in values], [v % 2**64 for v in values]
        lo0, lo1 = [v & 0xFFFFFFFF for v in lo], [v >> 32 for v in lo]
        return tuple(np.array(part, np.uint64)[:, None] for part in (hi, lo, lo0, lo1))

    return columns([p for p, _ in rows]), columns([q for _, q in rows])


def _mul128(c, x_hi, x_lo):
    """(high, low) words of the constant rows c times the lanes x, mod 2**128."""
    c_hi, c_lo, c0, c1 = c
    x0, x1 = x_lo & _M32, x_lo >> _U32
    t = c0 * x0
    t >>= _U32
    t += c1 * x0
    carry = t >> _U32
    t &= _M32
    t += c0 * x1
    t >>= _U32
    hi = c1 * x1
    hi += carry
    hi += t
    hi += c_hi * x_lo
    hi += c_lo * x_hi
    return hi, c_lo * x_lo


def _pcg_outputs(start, inc, count):
    """PCG64's first ``count`` 64-bit outputs per lane, (count, D): the XSL-RR
    output of each state, from ``start`` = inc + initstate."""
    a, b = _jump_constants(count)
    hi, lo = _mul128(a, *start)
    inc_hi, inc_lo = _mul128(b, *inc)
    lo += inc_lo
    hi += inc_hi
    hi += lo < inc_lo
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    out = x >> rot
    out |= x << ((np.uint64(64) - rot) & _U63)
    return out


def _choice_positions(seeds, m, n):
    """``np.random.default_rng(seed).choice(m, n, replace=False)`` per lane for
    m < 2**32 outside numpy's tail-shuffle branch: a (D, max n) int64 array whose
    row d starts with lane d's n[d] positions, and a (D,) mask of the lanes where
    Lemire's method rejected a value, whose positions are not numpy's."""
    D, nmax = len(seeds), int(n.max())
    state = _seed_states(seeds)
    inc = (state[2] << np.uint64(1) | state[3] >> _U63, state[3] << np.uint64(1) | np.uint64(1))
    lo = inc[1] + state[1]
    start = (inc[0] + state[0] + (lo < state[1]), lo)
    # one row per draw: Floyd's picks j = m-n .. m-1 in [0, j], then the shuffle's
    # i = n-1 .. 1 in [0, i]; a bound of 0 takes no value and draws 0
    step = np.arange(nmax)[:, None]
    swap = np.maximum(n - 1 - step[:-1], 0)
    bound = np.concatenate([np.where(step < n, m - n + step, 0), swap])
    take = bound > 0
    excl = bound.astype(np.uint64) + np.uint64(1)
    # each lane's uint32 values, low half of each output first: row 2k + h, column d
    out = _pcg_outputs(start, inc, nmax)
    values = np.empty((nmax, 2, D), np.uint64)
    values[:, 0] = out & _M32
    values[:, 1] = out >> _U32
    taken = np.cumsum(take, axis=0) - take
    lanes = np.arange(D)
    # Lemire: value * (bound + 1), rejected if its low word is below the threshold
    prod = values.reshape(-1)[taken * D + lanes] * excl
    threshold = (np.uint64(2**32) - excl) % excl
    rejected = ((prod & _M32) < threshold).any(axis=0)
    draw = (prod >> _U32).astype(np.int64)
    # Floyd: a draw already picked is replaced by its bound j
    picks = np.empty((nmax, D), np.int64)
    picks[0] = draw[0]
    for t in range(1, nmax):
        picks[t] = np.where((picks[:t] == draw[t]).any(axis=0), bound[t], draw[t])
    # Fisher-Yates: swap positions i and draw; an idle lane swaps position 0 with itself
    flat = picks.reshape(-1)
    for i, j in zip(swap * D + lanes, draw[nmax:] * D + lanes):
        flat[i], flat[j] = flat[j], flat[i]
    return picks.T, rejected

