"""Reference oracles the tests compare the package against.

Single-anchor normalizers for the global contrastive loss (``g_I``, ``g_T``),
single-anchor hinge normalizers and the exact per-class loss for the robust
objective (``hinge_g1``, ``hinge_g2``, ``class_loss_hk``), and a parser for
the accuracy CSV that ``cclearn run`` writes.  None of these is on a training
path: the estimators compute the same quantities in batch, and the tests pin
the two against each other.
"""

import numpy as np

from cclearn.gcl import _check_tau
from cclearn.gdro import GdroConfig, _hinge_stats
from cclearn.model import EncoderPair


def _stable_expsum(scores):
    """sum(exp(scores)) via max-shift, returned in linear scale."""
    m = float(np.max(scores))
    return float(np.exp(m) * np.sum(np.exp(scores - m)))


def g_I(enc: EncoderPair, params, anchor, candidates, tau) -> float:
    """Input-anchored normalizer: sum over candidate labels of exp(sim/tau)."""
    tau = _check_tau(tau)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    sims = enc.similarity_matrix(params, [anchor.x], [s.class_id for s in candidates])[0]
    return _stable_expsum(sims / tau)


def g_T(enc: EncoderPair, params, anchor, candidates, tau) -> float:
    """Label-anchored normalizer: sum over candidate inputs of exp(sim/tau)."""
    tau = _check_tau(tau)
    if not candidates:
        raise ValueError("candidate list must be non-empty")
    sims = enc.similarity_matrix(params, [s.x for s in candidates], [anchor.class_id])[:, 0]
    return _stable_expsum(sims / tau)


def hinge_g1(enc: EncoderPair, params, anchor, pool, margin, tau) -> float:
    """Input-anchored hinge normalizer, linear scale. Equals 1 iff no violations."""
    st = _hinge_stats(enc, params, [anchor], pool, margin, tau)
    return float(np.exp(st["log_g1"][0]))


def hinge_g2(enc: EncoderPair, params, anchor, pool, margin, tau) -> float:
    """Label-anchored hinge normalizer, linear scale."""
    st = _hinge_stats(enc, params, [anchor], pool, margin, tau)
    return float(np.exp(st["log_g2"][0]))


def class_loss_hk(enc: EncoderPair, params, class_id, pool, config: GdroConfig) -> float:
    """Per-class loss h_k over all pool members of the class; always >= 0."""
    members = [s for s in pool if s.class_id == class_id]
    if not members:
        raise ValueError(f"class {class_id} not present in pool")
    st = _hinge_stats(enc, params, members, pool, config.margin, config.tau)
    return float(config.tau * np.mean(st["log_g1"] + st["log_g2"]) / 2.0)


def read_accuracy_csv(path):
    """Inverse of report.accuracy_csv_text: (entries, aggregate, config_hash)."""
    entries: dict[tuple[int, int], float] = {}
    aggregate: dict[int, float] = {}
    config_hash = ""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("#"):
                if "config_sha256=" in line:
                    config_hash = line.split("config_sha256=")[1]
                continue
            if not line or line.startswith("after_task"):
                continue
            t_s, b_s, a_s = line.split(",")
            t, b = int(t_s), int(b_s)
            if b == -1:
                aggregate[t] = float(a_s)
            else:
                entries[(t, b)] = float(a_s)
    return entries, aggregate, config_hash
