"""Span-level generative label model (Snorkel-equivalent baseline).

Fills the role of the reference's ``SnorkelModel`` (labelling.py:534-590):
candidate spans are proposed by three high-recall shape sources and then
classified by a generative model over the FULL bank of labeling functions.
The snorkel library is not available here, so the label model itself is a
from-scratch Dawid-Skene-style naive-Bayes model trained with EM (Dawid &
Skene 1979 — the classic generative model of annotator confusion that
snorkel's LabelModel generalises), with abstention modelled as an explicit
outcome.

Observation encoding follows the reference's ``_get_inputs``
(labelling.py:558-572): per candidate span, each source either abstains or
votes ``1 + LABELS.index(top-confidence label)``; class 0 is
"not an entity".  Every sufficient statistic is additive per span, so the
E-step distributes as mergeable per-shard partials and the model trains in
the HMM's EM loop (``pipelines/train.py``, SURVEY.md §2.5).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..constants import LABELS
from ..sources.registry import SOURCE_NAMES

N_CLASSES = len(LABELS) + 1          # class 0 = not-an-entity
N_SOURCES = len(SOURCE_NAMES)

CANDIDATE_SOURCES = ("proper2_detector", "nnp_detector",
                     "compound_detector")   # labelling.py:540


class LabelModelParams:
    """prior (K,) and per-source outcome model conf (S, K, K):
    ``conf[s, y, o]`` = P(source s emits outcome o | true class y), where
    outcome 0 is ABSTAIN and outcome o>=1 is a vote for label o-1."""

    def __init__(self, prior: np.ndarray, conf: np.ndarray):
        self.prior = np.asarray(prior, np.float64)
        self.conf = np.asarray(conf, np.float64)
        with np.errstate(divide="ignore"):
            self.log_prior = np.log(self.prior)
            self.log_conf = np.log(np.maximum(self.conf, 1e-300))
        # sparse E-step support: baseline = all sources abstain
        self.base = self.log_prior + self.log_conf[:, :, 0].sum(axis=0)
        # corr[s*K_out + o, y] = log conf[s, y, o] - log conf[s, y, 0]
        self.corr = (self.log_conf - self.log_conf[:, :, :1]) \
            .transpose(0, 2, 1).reshape(-1, N_CLASSES)

    @classmethod
    def init(cls, accuracy: float = 0.7, fire_rate: float = 0.2
             ) -> "LabelModelParams":
        K = N_CLASSES
        prior = np.full(K, 1.0 / K)
        conf = np.empty((N_SOURCES, K, K))
        conf[:, :, 0] = 1.0 - fire_rate
        # true class 0 (not an entity): erroneous votes spread uniformly
        conf[:, 0, 1:] = fire_rate / (K - 1)
        for y in range(1, K):
            wrong = fire_rate * (1.0 - accuracy) / max(1, K - 2)
            conf[:, y, 1:] = wrong
            conf[:, y, y] = fire_rate * accuracy
        return cls(prior, conf)

    def save(self, file, **extra) -> None:
        """Write the parameters, plus any ``extra`` arrays, as one npz to
        ``file`` (a path or a binary file object)."""
        np.savez(file, prior=self.prior, conf=self.conf, **extra)

    @classmethod
    def from_npz(cls, z) -> "LabelModelParams":
        return cls(z["prior"], z["conf"])


def flat_votes(batch: pa.Table
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(span, source, vote) index triples of a ``snorkel_spans`` table's
    ``v_s``/``v_o`` list columns, one triple per non-abstaining vote."""
    v_s, v_o = (batch.column(c).combine_chunks() for c in ("v_s", "v_o"))
    lens = np.diff(v_s.offsets.to_numpy(zero_copy_only=False))
    # flatten(), not .values: a batch may be a slice of its block
    return (np.repeat(np.arange(batch.num_rows), lens),
            v_s.flatten().to_numpy(zero_copy_only=False).astype(np.int64),
            v_o.flatten().to_numpy(zero_copy_only=False).astype(np.int64))


def posteriors_flat(params: LabelModelParams, n_spans: int,
                    v_span: np.ndarray, v_s: np.ndarray, v_o: np.ndarray
                    ) -> tuple[np.ndarray, float]:
    """Posterior class distribution per span from flat (span, source, vote)
    triples (sparse: only non-abstaining sources appear).

    Returns (gamma (n_spans, K), total log-likelihood)."""
    ll = np.tile(params.base, (n_spans, 1))
    if len(v_span):
        np.add.at(ll, v_span, params.corr[v_s * N_CLASSES + v_o])
    m = ll.max(axis=1, keepdims=True)
    with np.errstate(under="ignore"):
        g = np.exp(ll - m)
    z = g.sum(axis=1, keepdims=True)
    g /= z
    loglik = float((np.log(z) + m).sum())
    return g, loglik


class LMStats:
    """Additive EM sufficient statistics (the per-shard partial)."""

    def __init__(self):
        self.prior = np.zeros(N_CLASSES)
        # votes[s, o, y] for o >= 1; abstain counts are derived:
        # abstain[s, y] = prior_total[y] - sum_o votes[s, o, y]
        self.votes = np.zeros((N_SOURCES, N_CLASSES, N_CLASSES))
        self.logprob = 0.0
        self.n_spans = 0

    def merge(self, other: "LMStats") -> "LMStats":
        self.prior += other.prior
        self.votes += other.votes
        self.logprob += other.logprob
        self.n_spans += other.n_spans
        return self


def accumulate_flat(params: LabelModelParams, n_spans: int,
                    v_span: np.ndarray, v_s: np.ndarray, v_o: np.ndarray,
                    stats: LMStats) -> None:
    if n_spans == 0:
        return
    g, loglik = posteriors_flat(params, n_spans, v_span, v_s, v_o)
    stats.prior += g.sum(axis=0)
    stats.logprob += loglik
    stats.n_spans += n_spans
    if len(v_span):
        np.add.at(stats.votes.reshape(N_SOURCES * N_CLASSES, N_CLASSES),
                  v_s * N_CLASSES + v_o, g[v_span])


def m_step(stats: LMStats, alpha: float = 0.1) -> LabelModelParams:
    prior = stats.prior + alpha
    prior /= prior.sum()
    K = N_CLASSES
    conf = np.empty((N_SOURCES, K, K))
    total_g = stats.prior                      # (K,) == sum of posteriors
    for s in range(N_SOURCES):
        votes_so = stats.votes[s].T            # (y, o)
        abstain = np.maximum(total_g - votes_so[:, 1:].sum(axis=1), 0.0)
        counts = np.concatenate([abstain[:, None], votes_so[:, 1:]], axis=1)
        counts = counts + alpha
        conf[s] = counts / counts.sum(axis=1, keepdims=True)
    return LabelModelParams(prior, conf)


def predict_flat(params: LabelModelParams, n_spans: int,
                 v_span: np.ndarray, v_s: np.ndarray, v_o: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-span (argmax class, posterior prob) — the reference's
    ``annotate`` keeps only spans with argmax > 0 (labelling.py:581-590)."""
    g, _ = posteriors_flat(params, n_spans, v_span, v_s, v_o)
    best = g.argmax(axis=1)
    return best, g[np.arange(n_spans), best]
