"""HMM aggregation model: priors, Baum-Welch EM statistics, Viterbi.

Reimplements the reference HMM annotator (labelling.py:235-468) from scratch
in pure numpy (hmmlearn/numba are not available, and the distributed E-step
needs mergeable per-block sufficient statistics anyway — SURVEY.md §2.5).

Key semantics preserved:
 * 77-state BILU space over 19 labels; per-source emission tensor
   P(obs_label | true_state) of shape (S, 77, 77) (labelling.py:10-23).
 * informative priors built from corpus counts + structural BILU priors +
   the SOURCE_PRIORS precision/recall table, strength=1000
   (labelling.py:314-424).
 * log-likelihood of a token = sum over sources of log(X·emissionᵀ), masked
   to -inf where a state is observed by no labelling function
   (labelling.py:434-448 — the zero-observation constraint is load-bearing).
 * M-step keeps structurally-zero emission entries at zero
   (labelling.py:462-468).

The per-token observation is sparse (most sources emit "O"), so the
log-likelihood is computed as a baseline Σ_s log(emission[s,:,0]) plus
corrections only for the (token, source) pairs that actually fired.

Production runs two block kernels over a chunk of turns (flat pair arrays,
as ``stages.encode.ObsRows`` holds them): :func:`accumulate_block` (E-step)
and :func:`decode_block` (Viterbi).  Each compresses runs of unfired
tokens, dictionary-encodes every fired token's observation into a
per-chunk pattern table of ``ll`` rows (transcripts repeat few patterns),
and runs its recursion over tiles of turns of equal compressed length
(:data:`TILE_TOKENS`).  The E-step folds emission statistics per pattern;
Viterbi restricts each state's max-plus to its predecessors under
``transmat``.  :func:`accumulate` and :func:`decode_turn` are the per-turn
references the oracle runs and the tests compare against.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..constants import LABEL_INDICES, POSITIONED_LABELS
from ..sources.registry import (OUT_PRECISION, OUT_RECALL, SOURCE_INDICES,
                                SOURCE_NAMES, SOURCE_PRIORS,
                                best_coverage_source)

N_STATES = len(POSITIONED_LABELS)   # 77
N_SOURCES = len(SOURCE_NAMES)

_NINF = -np.inf


class HMMParams:
    """Model parameters + priors (the broadcast object of the EM loop)."""

    def __init__(self, startprob, transmat, emission_probs,
                 startprob_prior=None, transmat_prior=None,
                 emission_priors=None, keep=None):
        self.startprob = np.asarray(startprob, np.float64)
        self.transmat = np.asarray(transmat, np.float64)
        self.emission_probs = np.asarray(emission_probs, np.float64)
        self.startprob_prior = startprob_prior
        self.transmat_prior = transmat_prior
        self.emission_priors = emission_priors
        self.keep = (np.arange(N_SOURCES) if keep is None
                     else np.asarray(sorted(keep), np.int64))
        self._refresh_logs()

    def _refresh_logs(self):
        with np.errstate(divide="ignore"):
            self.log_start = np.log(self.startprob)
            self.log_trans = np.log(self.transmat)
            # per-source log P(obs=O | state), cached for the sparse
            # log-likelihood corrections (avoids re-logging per call)
            emis0 = self.emission_probs[:, :, 0]
            self.log_emisO = np.where(emis0 > 0, np.log(
                np.where(emis0 > 0, emis0, 1.0)), _NINF)
            self.base_loglik = self.log_emisO[self.keep].sum(axis=0)  # (77,)
            # full log-emission table, laid out (S*K_obs, K_state) so a
            # fired (source, obs_state) pair is one row gather
            e = self.emission_probs
            le = np.where(e > 0, np.log(np.where(e > 0, e, 1.0)), _NINF)
            # le[s, state, obs] -> row for (s, obs) over states
            self.log_emis2d = np.ascontiguousarray(
                le.transpose(0, 2, 1)).reshape(-1, N_STATES)
            # linear-space twin of log_emis2d for multi-label mixtures
            self.emis_cols = np.ascontiguousarray(
                e.transpose(0, 2, 1)).reshape(-1, N_STATES)
        self.viterbi_groups = _predecessor_groups(self.transmat,
                                                  self.log_trans)
        self.keep_set = set(self.keep.tolist())
        self.keep_mask = np.zeros(N_SOURCES, bool)
        self.keep_mask[self.keep] = True

    def digest(self) -> str:
        """Content hash of the parameters (tags outputs decoded with
        them)."""
        h = hashlib.sha256()
        for a in (self.startprob, self.transmat, self.emission_probs,
                  self.keep):
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, startprob=self.startprob, transmat=self.transmat,
            emission_probs=self.emission_probs,
            startprob_prior=self.startprob_prior,
            transmat_prior=self.transmat_prior,
            emission_priors=self.emission_priors, keep=self.keep)

    @classmethod
    def load(cls, path: str) -> "HMMParams":
        z = np.load(path)
        return cls(z["startprob"], z["transmat"], z["emission_probs"],
                   z["startprob_prior"], z["transmat_prior"],
                   z["emission_priors"], z["keep"])


def _predecessor_groups(transmat: np.ndarray, log_trans: np.ndarray):
    """Each state's Viterbi predecessors — the rows with ``transmat > 0``,
    ascending — grouped by count: ``[(states (nJ,), arange(nJ), preds
    (nJ, P), log_trans[preds, states] (nJ, P))]``.  The BILU grammar gives two
    groups (2 predecessors for I-/L-, 39 for O/B-/U-); a dense matrix is
    one group of 77.  A state with no predecessor gets state 0 at -inf."""
    preds = [np.flatnonzero(transmat[:, j] > 0) for j in range(N_STATES)]
    preds = [p if len(p) else np.zeros(1, np.int64) for p in preds]
    sizes = np.array([len(p) for p in preds])
    groups = []
    for size in np.unique(sizes):
        states = np.flatnonzero(sizes == size)
        P = np.stack([preds[j] for j in states])
        groups.append((states, np.arange(len(states)), P,
                       log_trans[P, states[:, None]]))
    return groups


# ---------------------------------------------------------------------------
# sparse observation encoding
# ---------------------------------------------------------------------------

class TurnObs:
    """Sparse observation of one turn: for each fired (token, source) pair,
    the weighted positioned-label distribution."""

    __slots__ = ("n_tokens", "fired")

    def __init__(self, n_tokens: int):
        self.n_tokens = n_tokens
        # (t, source_idx) -> dict[state_idx, conf]
        self.fired: dict[tuple[int, int], dict[int, float]] = {}

    def add_span(self, source_idx: int, start: int, end: int, label: str,
                 conf: float) -> None:
        """Spread a span's confidence over B/I/L or U cells
        (labelling.py:164-170)."""
        if label in ("MISC", "ENT"):
            return
        if start >= self.n_tokens:
            return
        end = min(end, self.n_tokens)
        if end - start == 1:
            cells = [(start, LABEL_INDICES["U-" + label])]
        else:
            cells = ([(start, LABEL_INDICES["B-" + label])]
                     + [(t, LABEL_INDICES["I-" + label])
                        for t in range(start + 1, end - 1)]
                     + [(end - 1, LABEL_INDICES["L-" + label])])
        for t, state in cells:
            d = self.fired.setdefault((t, source_idx), {})
            d[state] = d.get(state, 0.0) + conf


def frame_log_likelihood(obs: TurnObs, params: HMMParams) -> np.ndarray:
    """(n_tokens, 77) log P(observations_t | state) — labelling.py:434-448.

    Sparse: baseline Σ_s log P(O|state) plus corrections only for fired
    (token, source) pairs."""
    T = obs.n_tokens
    ll = np.tile(params.base_loglik, (T, 1))
    keep = params.keep_set
    emis = params.emission_probs

    observed = np.zeros((T, N_STATES), bool)
    observed[:, 0] = True
    n_fired_nonO = np.zeros(T, np.int64)

    # the observed-state mask follows the reference's X.sum over ALL
    # sources (labelling.py:443-445): a state fired by any source — kept
    # or not — stays live, even though only kept sources contribute to
    # the log-likelihood corrections below
    for (t, s), dist in obs.fired.items():
        for state in dist:
            observed[t, state] = True

    # fast path: single-label observations (the vast majority) become one
    # vectorized row-gather of the precomputed log-emission table
    ts1, rows1, confs1 = [], [], []
    for (t, s), dist in obs.fired.items():
        if s not in keep:
            continue
        n_fired_nonO[t] += 1
        if len(dist) == 1:
            (state, conf), = dist.items()
            ts1.append(t)
            rows1.append(s * N_STATES + state)
            confs1.append(conf)
        else:
            states = list(dist.keys())
            confs = np.array(list(dist.values()))
            probs = emis[s][:, states] @ confs
            lp = np.full(N_STATES, _NINF)
            np.log(probs, out=lp, where=probs > 0)
            ll[t] += lp - params.log_emisO[s]
    if ts1:
        ts1 = np.array(ts1)
        rows = params.log_emis2d[np.array(rows1)]        # (n, 77)
        srcs = np.array(rows1) // N_STATES
        corr = rows + np.log(np.array(confs1))[:, None] \
            - params.log_emisO[srcs]
        np.add.at(ll, ts1, corr)

    # state O is unobserved only if ALL sources fired at t (fired sources
    # have X[t,s,0]=0 by construction, labelling.py:164; the reference sums
    # X over ALL sources, labelling.py:444-446, so with a keep subset the
    # non-kept sources always contribute X[t,s,0]=1 and O is never masked)
    if len(keep) == N_SOURCES:
        full = n_fired_nonO >= N_SOURCES
        if full.any():
            observed[full, 0] = False
    ll[~observed] = _NINF
    return ll


# ---------------------------------------------------------------------------
# log-space forward / backward / viterbi (standard Rabiner recursions)
# ---------------------------------------------------------------------------

def _logsumexp(a: np.ndarray, axis=None):
    m = np.max(a, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore", under="ignore"):
        out = np.log(np.sum(np.exp(a - m_safe), axis=axis,
                            keepdims=True)) + m_safe
    out = np.where(np.isfinite(m), out, _NINF)
    return np.squeeze(out, axis=axis) if axis is not None else float(out)


def forward(ll: np.ndarray, params: HMMParams) -> tuple[float, np.ndarray]:
    T = ll.shape[0]
    fwd = np.empty_like(ll)
    fwd[0] = params.log_start + ll[0]
    lt = params.log_trans
    for t in range(1, T):
        fwd[t] = _logsumexp(fwd[t - 1][:, None] + lt, axis=0) + ll[t]
    return _logsumexp(fwd[-1], axis=0), fwd


def backward(ll: np.ndarray, params: HMMParams) -> np.ndarray:
    T = ll.shape[0]
    bwd = np.empty_like(ll)
    bwd[-1] = 0.0
    lt = params.log_trans
    for t in range(T - 2, -1, -1):
        bwd[t] = _logsumexp(lt + (ll[t + 1] + bwd[t + 1])[None, :], axis=1)
    return bwd


def viterbi(ll: np.ndarray, params: HMMParams) -> tuple[float, np.ndarray]:
    T = ll.shape[0]
    lt = params.log_trans
    delta = params.log_start + ll[0]
    back = np.zeros((T, N_STATES), np.int32)
    for t in range(1, T):
        scores = delta[:, None] + lt
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(N_STATES)] + ll[t]
    states = np.empty(T, np.int32)
    states[-1] = int(np.argmax(delta))
    logprob = float(delta[states[-1]])
    for t in range(T - 2, -1, -1):
        states[t] = back[t + 1][states[t + 1]]
    return logprob, states


# ---------------------------------------------------------------------------
# EM sufficient statistics (mergeable per-block partials)
# ---------------------------------------------------------------------------

class SuffStats:
    """Additive sufficient statistics — the per-block partial of the
    distributed E-step (SURVEY.md §2.5: partial+final aggregation)."""

    def __init__(self):
        self.start = np.zeros(N_STATES)
        self.trans = np.zeros((N_STATES, N_STATES))
        self.obs = np.zeros((N_SOURCES, N_STATES, N_STATES))
        self.logprob = 0.0
        self.n_seqs = 0

    def merge(self, other: "SuffStats") -> "SuffStats":
        self.start += other.start
        self.trans += other.trans
        self.obs += other.obs
        self.logprob += other.logprob
        self.n_seqs += other.n_seqs
        return self

    def to_arrays(self) -> dict[str, np.ndarray]:
        return {"start": self.start, "trans": self.trans, "obs": self.obs,
                "logprob": np.array([self.logprob]),
                "n_seqs": np.array([self.n_seqs])}

    @classmethod
    def from_arrays(cls, d) -> "SuffStats":
        s = cls()
        s.start = np.asarray(d["start"], np.float64).reshape(N_STATES)
        s.trans = np.asarray(d["trans"], np.float64).reshape(N_STATES,
                                                             N_STATES)
        s.obs = np.asarray(d["obs"], np.float64).reshape(N_SOURCES, N_STATES,
                                                         N_STATES)
        s.logprob = float(np.asarray(d["logprob"]).ravel()[0])
        s.n_seqs = int(np.asarray(d["n_seqs"]).ravel()[0])
        return s


def _forward_backward_scaled(ll: np.ndarray, params: HMMParams):
    """Scaled (linear-space) forward-backward — Rabiner scaling.

    One 77×77 mat-vec per token instead of a logsumexp over a 77×77
    matrix; numerically equivalent to the log-space recursion (the scale
    factors carry the magnitude) and ~10× faster."""
    T = ll.shape[0]
    m = np.max(ll, axis=1)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(under="ignore"):
        Bs = np.exp(ll - m[:, None])        # scaled emission likelihoods
    A = params.transmat
    alpha = np.empty_like(Bs)
    c = np.empty(T)
    a = params.startprob * Bs[0]
    c[0] = a.sum()
    if c[0] <= 0:
        return -np.inf, None, None, None, None
    alpha[0] = a / c[0]
    for t in range(1, T):
        a = (alpha[t - 1] @ A) * Bs[t]
        c[t] = a.sum()
        if c[t] <= 0:
            return -np.inf, None, None, None, None
        alpha[t] = a / c[t]
    logprob = float(np.log(c).sum() + m.sum())

    beta = np.empty_like(Bs)
    beta[-1] = 1.0
    for t in range(T - 2, -1, -1):
        beta[t] = (A @ (Bs[t + 1] * beta[t + 1])) / c[t + 1]
    return logprob, alpha, beta, Bs, c


def accumulate(obs: TurnObs, params: HMMParams, stats: SuffStats,
               weight: float = 1.0) -> None:
    """Forward-backward on one turn, accumulating into ``stats`` — the
    slow reference kernel the flat production kernel is tested against.

    ``weight`` scales every contribution — used for exact turn
    deduplication: N identical turns contribute exactly N× the stats of
    one (every statistic is linear in the per-turn quantities)."""
    T = obs.n_tokens
    if T == 0:
        return
    ll = frame_log_likelihood(obs, params)
    logprob, alpha, beta, Bs, c = _forward_backward_scaled(ll, params)
    if not np.isfinite(logprob):
        return                      # degenerate turn; skip (reference prints)
    post = alpha * beta
    post /= np.maximum(post.sum(axis=1, keepdims=True), 1e-300)
    if weight != 1.0:
        post = post * weight

    stats.logprob += logprob * weight
    stats.n_seqs += int(weight) if weight == int(weight) else weight
    stats.start += post[0]
    if T > 1:
        # xi_t(i,j) = alpha_t(i) A(i,j) Bs_{t+1}(j) beta_{t+1}(j) / c_{t+1};
        # summed over t:  diag-weighted A — two matmuls, no T×77×77 temp
        w = Bs[1:] * beta[1:] / c[1:, None]          # (T-1, 77)
        stats.trans += (params.transmat * (alpha[:-1].T @ w)) * weight

    # emission stats: obs[s,:,l] += X[t,s,l] * post[t]  (labelling.py:473-480)
    total_post = post.sum(axis=0)
    keep = set(params.keep.tolist())
    fired_by_source: dict[int, list] = {}
    for (t, s), dist in obs.fired.items():
        if s in keep:
            fired_by_source.setdefault(s, []).append((t, dist))
    for s in keep:
        stats.obs[s, :, 0] += total_post
    for s, entries in fired_by_source.items():
        for t, dist in entries:
            stats.obs[s, :, 0] -= post[t]
            for state, conf in dist.items():
                stats.obs[s, :, state] += conf * post[t]


def frame_ll_flat(T: int, p_t: np.ndarray, p_s: np.ndarray,
                  p_state: np.ndarray, p_conf: np.ndarray,
                  params: HMMParams):
    """:func:`frame_log_likelihood` over one turn's FLAT pair arrays as the
    obs encoder emits them (sorted by (t, source); duplicate (t, source)
    rows = multi-label observations, adjacent by construction).  No
    TurnObs dict is built — the dict construction + iteration were ~40%
    of the per-turn decode/E-step cost.

    Returns (ll, g_t, g_s, kept) where g_* are the distinct fired
    (token, source) group representatives and ``kept`` the keep-filtered
    pair arrays (t, s, state, conf) — both reused by the caller's
    emission-statistics pass.  :func:`_pattern_table` builds its rows
    with it, one pattern per "token"."""
    ll = np.tile(params.base_loglik, (T, 1))
    observed = np.zeros((T, N_STATES), bool)
    observed[:, 0] = True
    # observed-state mask from the UNFILTERED pairs: the reference masks
    # on X.sum over ALL sources (labelling.py:443-445), so states fired
    # only by non-kept sources stay live
    if len(p_t):
        observed[p_t, p_state] = True
    km = params.keep_mask[p_s]
    if not km.all():
        p_t, p_s, p_state, p_conf = (p_t[km], p_s[km], p_state[km],
                                     p_conf[km])
    # the grouping + segment-scatter below require (t, source)-sorted
    # pairs; the obs encoder emits them sorted, so this argsort only
    # fires on hand-built inputs
    if len(p_t) > 1:
        key = p_t.astype(np.int64) * N_SOURCES + p_s
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            p_t, p_s, p_state, p_conf = (p_t[order], p_s[order],
                                         p_state[order], p_conf[order])
    n = len(p_t)
    if n == 0:
        ll[~observed] = _NINF
        e = np.empty(0, np.int64)
        return ll, e, e, (e, e, e, np.empty(0, np.float64))
    first = np.empty(n, bool)
    first[0] = True
    first[1:] = (p_t[1:] != p_t[:-1]) | (p_s[1:] != p_s[:-1])
    starts = np.flatnonzero(first)
    g_t, g_s = p_t[starts], p_s[starts]
    if len(starts) == n:            # all singleton groups: log-table path
        with np.errstate(divide="ignore"):
            corr = params.log_emis2d[p_s * N_STATES + p_state] \
                + np.log(p_conf)[:, None] - params.log_emisO[p_s]
    else:                           # multi-label mixture via segment-sum
        P = params.emis_cols[p_s * N_STATES + p_state] * p_conf[:, None]
        mix = np.add.reduceat(P, starts, axis=0)
        corr = np.full_like(mix, _NINF)
        np.log(mix, out=corr, where=mix > 0)
        corr -= params.log_emisO[g_s]
    # scatter corr rows into ll by token.  g_t is sorted, so duplicate
    # tokens (several sources firing the same token) form contiguous
    # segments — segment-sum + direct fancy add instead of np.add.at,
    # whose buffered element-at-a-time path dominated the E-step (~40%
    # of pass wall-time across the three per-turn scatters).
    ft = np.empty(len(g_t), bool)
    ft[0] = True
    ft[1:] = g_t[1:] != g_t[:-1]
    if ft.all():
        ll[g_t] += corr
    else:
        tb = np.flatnonzero(ft)
        ll[g_t[tb]] += np.add.reduceat(corr, tb, axis=0)
    # O-mask: only with the full source set (see frame_log_likelihood)
    if len(params.keep) == N_SOURCES:
        fired_counts = np.bincount(g_t, minlength=T)
        full = fired_counts >= N_SOURCES
        if full.any():
            observed[full, 0] = False
    ll[~observed] = _NINF
    return ll, g_t, g_s, (p_t, p_s, p_state, p_conf)


class EmisStatsBuffer:
    """Cross-call accumulator for the emission-statistic updates.

    The updates ``obs[s, :, 0] -= post`` and ``obs[s, :, state] +=
    conf·post`` are linear, so they can be collected across every call of
    a shard pass and applied in a handful of segment-sums instead of tiny
    ``np.ufunc.at`` scatters per call.  The block kernels add one row per
    observation pattern and (pattern, source) group, not one per fired
    (token, source) pair.

    ``acc`` is keyed ``s·K + state`` with the state-major layout
    transposed back into ``stats.obs`` once, in :meth:`apply`."""

    _FLUSH_ROWS = 65536          # ≈ 40 MB of buffered (n, 77) rows

    def __init__(self):
        self._sub_s: list[np.ndarray] = []      # (g,) source ids
        self._sub_p: list[np.ndarray] = []      # (g, K) post rows
        self._add_k: list[np.ndarray] = []      # (n,) s·K+state keys
        self._add_cp: list[np.ndarray] = []     # (n, K) conf·post rows
        self._rows = 0
        self._acc = np.zeros((N_SOURCES * N_STATES, N_STATES))
        self._acc_sub = np.zeros((N_SOURCES, N_STATES))

    def add(self, g_s, post_g, keys, cp):
        self._sub_s.append(g_s)
        self._sub_p.append(post_g)
        self._add_k.append(keys)
        self._add_cp.append(cp)
        self._rows += len(g_s) + len(keys)
        if self._rows >= self._FLUSH_ROWS:
            self._flush()

    @staticmethod
    def _segadd(dest, keys, rows):
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        fb = np.empty(len(ks), bool)
        fb[0] = True
        fb[1:] = ks[1:] != ks[:-1]
        tb = np.flatnonzero(fb)
        dest[ks[tb]] += np.add.reduceat(rows[order], tb, axis=0)

    def _flush(self):
        if not self._rows:
            return
        self._segadd(self._acc_sub, np.concatenate(self._sub_s),
                     np.concatenate(self._sub_p))
        self._segadd(self._acc, np.concatenate(self._add_k),
                     np.concatenate(self._add_cp))
        self._sub_s, self._sub_p = [], []
        self._add_k, self._add_cp = [], []
        self._rows = 0

    def apply(self, stats: SuffStats) -> None:
        """Fold the buffered contributions into ``stats.obs`` (call once,
        after the last kernel call of the pass)."""
        self._flush()
        # acc[s·K+state, j] -> obs[s, j, state]
        stats.obs += self._acc.reshape(
            N_SOURCES, N_STATES, N_STATES).transpose(0, 2, 1)
        stats.obs[:, :, 0] -= self._acc_sub
        # leave the buffer empty, so a second apply adds nothing
        self._acc.fill(0.0)
        self._acc_sub.fill(0.0)


# ---------------------------------------------------------------------------
# block kernels: observation-pattern tables and length-bucketed tiles
# ---------------------------------------------------------------------------

# A tile is B turns of one compressed length T with B·T <= TILE_TOKENS (a
# longer turn is a tile of its own).  The forward-backward of a tile holds
# five (T, B, 77) float64 arrays (log-likelihood, scaled emissions, alpha,
# beta, posterior), so its working set is at most 5·512·77·8 B ≈ 1.6 MB
# whatever the chunk size: the kernel never streams a (chunk, Tmax, 77)
# tensor through DRAM.
TILE_TOKENS = 512

# Turns shorter than this are not O-run compressed: their unfired runs are
# short (compressing every turn measured no faster on the perfbench
# corpora).  Compression shifts a turn's Viterbi scores by one constant,
# exact in real arithmetic but not in floating point, so this cut also
# keeps the decoded paths those corpora were pinned with.
_MIN_COMPRESS_T = 24


def _pattern_table(params: HMMParams, n_flat: int, pair_turn, tok, p_s,
                   p_state, p_conf):
    """Dictionary-encode the fired tokens of a chunk into observation
    patterns.  Pairs are sorted by (flat token ``tok``, source).

    The pattern of a fired token is its list of (source, state, conf)
    pairs over ALL sources (the observed-state mask counts non-kept
    sources too), keyed together with its turn's :func:`frame_ll_flat`
    path (log-table when every kept (token, source) group is a single
    label, linear mixture otherwise), so each ``ll`` row comes from
    exactly the arithmetic of that turn's :func:`frame_ll_flat`.
    Transcripts repeat few patterns: on an 800-turn entity-dense corpus,
    ~140k fired pairs formed ~440.

    Returns (``ll`` row of each of the ``n_flat`` tokens, the ``ll``
    table, ``[(first row, g_t, g_s, kept pairs)]``): row 0 is the unfired
    token, then one :func:`frame_ll_flat` block per path, each pattern
    one "token" of it, with its groups and keep-filtered pairs."""
    empty = np.full((1, N_STATES), _NINF)
    empty[0, 0] = params.base_loglik[0]
    tok_row = np.zeros(n_flat, np.int64)
    if not len(tok):
        return tok_row, empty, []
    starts = np.flatnonzero(np.r_[True, tok[1:] != tok[:-1]])
    lens = np.diff(np.r_[starts, len(tok)])
    km = params.keep_mask[p_s]
    kept_key = tok[km] * N_SOURCES + p_s[km]
    mixture = np.zeros(int(pair_turn[-1]) + 1, bool)
    mixture[pair_turn[km][1:][kept_key[1:] == kept_key[:-1]]] = True
    flag = mixture[pair_turn[starts]]
    # one bytes key per fired token: its packed (source, state, conf)
    # records, with the turn's path flag
    rec = np.empty(len(tok), [("s", "<i2"), ("state", "<i2"),
                              ("conf", "<f8")])
    rec["s"], rec["state"], rec["conf"] = p_s, p_state, p_conf
    raw, size = rec.tobytes(), rec.itemsize
    ids: dict[tuple[bool, bytes], int] = {}
    reps, tok_pat = [], []
    for i, (f, a, b) in enumerate(zip(flag.tolist(), (starts * size).tolist(),
                                      ((starts + lens) * size).tolist())):
        j = ids.setdefault((f, raw[a:b]), len(reps))
        if j == len(reps):
            reps.append(i)
        tok_pat.append(j)
    reps = np.asarray(reps)
    by_flag = np.argsort(flag[reps], kind="stable")
    row_of = np.empty(len(reps), np.int64)
    row_of[by_flag] = 1 + np.arange(len(reps))
    tok_row[tok[starts]] = row_of[np.asarray(tok_pat)]
    reps = reps[by_flag]
    blocks, groups = [empty], []
    for f in (False, True):
        sub = reps[flag[reps] == f]
        if not len(sub):
            continue
        sl = lens[sub]
        idx = np.repeat(starts[sub] - np.cumsum(sl) + sl, sl) \
            + np.arange(int(sl.sum()))
        ll, g_t, g_s, kept = frame_ll_flat(
            len(sub), np.repeat(np.arange(len(sub)), sl), p_s[idx],
            p_state[idx], p_conf[idx], params)
        groups.append((sum(map(len, blocks)), g_t, g_s, kept))
        blocks.append(ll)
    return tok_row, np.concatenate(blocks), groups


class _Chunk:
    """A chunk of turns, as flat pair arrays, after O-run compression,
    with its table of per-token observation patterns.

    A token no source fired on is forced through the O state (every other
    entry of its ll row is -inf, labelling.py:443-445), so after the head
    of a run of unfired tokens the scaled forward vector is exactly
    one-hot at O.  The k-1 interior tokens of a k-run therefore add known
    terms only: ``logprob += (k-1)(log A[0,0] + base_ll[0])``, ``xi +=
    (k-1)·δ(0,0)`` and a δ_0 posterior row each, and the dropped factor
    ``A[0,0]^{k-1}`` is common to every path.  They are dropped before the
    recursions.  Entity spans never cover an unfired token, and each non-O
    segment lies in one stretch of kept tokens, so decoded spans map back
    contiguously.

    * ``off``, ``lengths``, ``n_removed``: each turn's compressed token
      range, its compressed length and the tokens dropped from it;
    * ``kept``: each compressed token's position in its turn;
    * ``pat``: each compressed token's row of ``ll``, the pattern table
      (:func:`_pattern_table`); ``groups`` its fired pairs per block of
      rows, for the emission statistics."""

    def __init__(self, params: HMMParams, n_tokens, offsets, p_t, p_s,
                 p_state, p_conf):
        nt = np.asarray(n_tokens, np.int64)
        off = np.asarray(offsets, np.int64)
        lo, hi = int(off[0]), int(off[-1])
        p_t = np.asarray(p_t[lo:hi], np.int64)
        p_s = np.asarray(p_s[lo:hi], np.int64)
        p_state = np.asarray(p_state[lo:hi], np.int64)
        p_conf = np.ascontiguousarray(p_conf[lo:hi], np.float64)
        pair_turn = np.repeat(np.arange(len(nt)), np.diff(off))
        tok_off = np.zeros(len(nt) + 1, np.int64)
        np.cumsum(nt, out=tok_off[1:])
        tok = tok_off[pair_turn] + p_t
        # group pairs by (token, source); the obs encoder emits them so,
        # and the stable sort keeps a multi-label group's state order
        key = tok * N_SOURCES + p_s
        if len(key) > 1 and np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            pair_turn, tok, p_s, p_state, p_conf = (
                pair_turn[order], tok[order], p_s[order], p_state[order],
                p_conf[order])

        n_flat = int(tok_off[-1])
        keep = np.ones(n_flat, bool)
        compress = nt >= _MIN_COMPRESS_T
        if params.transmat[0, 0] > 0 and compress.any():
            fired = np.zeros(n_flat, bool)
            fired[tok] = True
            head = fired.copy()
            head[1:] |= fired[:-1]
            head[tok_off[:-1][nt > 0]] = True
            keep = head | ~np.repeat(compress, nt)
        ck = np.zeros(n_flat + 1, np.int64)
        np.cumsum(keep, out=ck[1:])
        self.off = ck[tok_off]
        self.lengths = np.diff(self.off)
        self.n_removed = nt - self.lengths
        self.kept = np.flatnonzero(keep) - np.repeat(tok_off[:-1],
                                                     self.lengths)
        tok_row, self.ll, self.groups = _pattern_table(
            params, n_flat, pair_turn, tok, p_s, p_state, p_conf)
        self.pat = tok_row[keep]

    def tiles(self):
        """Yield each tile's (T, B) array of ``pat`` indices (time-major)
        and its turn indices: turns of equal compressed length T > 0,
        B·T <= TILE_TOKENS."""
        order = np.argsort(self.lengths, kind="stable")
        ls = self.lengths[order]
        cuts = np.flatnonzero(np.r_[True, ls[1:] != ls[:-1], True])
        for a, b in zip(cuts[:-1], cuts[1:]):
            T = int(ls[a])
            if T == 0:
                continue
            step = max(1, TILE_TOKENS // T)
            for k in range(a, b, step):
                turns = order[k:min(k + step, b)]
                yield self.off[turns][None, :] + np.arange(T)[:, None], turns


def _forward_backward_tile(ll: np.ndarray, params: HMMParams):
    """:func:`_forward_backward_scaled` over a (T, B, 77) tile.  A turn
    whose scale factor is not positive gets a non-finite logprob (the
    caller drops it, as the per-turn recursion does)."""
    T = ll.shape[0]
    m = np.max(ll, axis=2)
    m[~np.isfinite(m)] = 0.0
    with np.errstate(under="ignore"):
        Bs = np.exp(ll - m[:, :, None])
    A = params.transmat
    alpha = np.empty_like(Bs)
    beta = np.empty_like(Bs)
    c = np.empty(Bs.shape[:2])
    with np.errstate(divide="ignore", invalid="ignore"):
        a = params.startprob * Bs[0]
        for t in range(T):
            if t:
                a = (alpha[t - 1] @ A) * Bs[t]
            c[t] = a.sum(axis=1)
            alpha[t] = a / c[t][:, None]
        logprob = np.log(c).sum(axis=0) + m.sum(axis=0)
        beta[-1] = 1.0
        for t in range(T - 2, -1, -1):
            beta[t] = ((Bs[t + 1] * beta[t + 1]) @ A.T) / c[t + 1][:, None]
    return logprob, alpha, beta, Bs, c


def _viterbi_tile(ll: np.ndarray, params: HMMParams) -> np.ndarray:
    """:func:`viterbi` paths of a (T, B, 77) tile, bit-identical to it.

    Each state's max-plus runs over its predecessors only
    (``params.viterbi_groups``): the dropped entries are -inf, so the
    maximum, and its first index among the ascending predecessors, are
    those of the dense argmax; an all -inf column backpoints to state 0,
    as ``np.argmax`` does."""
    T, B, K = ll.shape
    delta = params.log_start + ll[0]
    back = np.zeros((T, B, K), np.intp)
    best = np.empty((B, K))
    for t in range(1, T):
        for states, rows, preds, lt in params.viterbi_groups:
            scores = delta[:, preds] + lt                 # (B, nJ, P)
            best[:, states] = scores.max(axis=2)
            back[t][:, states] = preds[rows, scores.argmax(axis=2)]
        back[t][best == _NINF] = 0
        delta = best + ll[t]
    path = np.empty((T, B), np.intp)
    path[-1] = np.argmax(delta, axis=1)
    rows = np.arange(B)
    for t in range(T - 1, 0, -1):
        path[t - 1] = back[t, rows, path[t]]
    return path


def accumulate_block(params: HMMParams, n_tokens, offsets, p_t, p_s,
                     p_state, p_conf, stats: SuffStats, weights=None, *,
                     defer_o: np.ndarray,
                     emis_buf: "EmisStatsBuffer") -> None:
    """E-step over a chunk of turns (``n_tokens`` and ``offsets`` into
    the flat pair arrays, as ``ObsRows`` holds them), accumulating into
    ``stats`` the statistics :func:`accumulate` gives turn by turn (equal
    up to float summation order).  ``weights`` (one per turn, default 1)
    scale each turn's contribution, for deduplicated turns.

    Forward-backward runs over tiles of equal compressed length
    (:data:`TILE_TOKENS`), gathering ``ll`` from the chunk's pattern
    table.  The emission statistics are folded per pattern, as ``conf ·
    Σ post`` over the tokens that carry it, and deferred to the caller,
    who folds them in once per pass (every statistic is linear):

    * ``defer_o`` (77,) sums each turn's total posterior; the caller adds
      ``stats.obs[keep, :, 0] += defer_o``, instead of touching ~48
      strided rows of the 2.3 MB obs tensor per call;
    * ``emis_buf`` buffers the per-pattern updates; the caller calls its
      :meth:`EmisStatsBuffer.apply`."""
    ch = _Chunk(params, n_tokens, offsets, p_t, p_s, p_state, p_conf)
    n = len(ch.lengths)
    w_all = np.ones(n) if weights is None else np.asarray(weights,
                                                          np.float64)
    a00 = float(params.transmat[0, 0])
    # per dropped token: log A[0,0] + base_ll[0] (no token is dropped
    # unless A[0,0] > 0)
    run_ll = np.log(a00) + params.base_loglik[0] if a00 > 0 else 0.0
    post_sum = np.zeros_like(ch.ll)         # Σ weight·post per pattern
    n_seqs = []
    K = N_STATES
    for idx, turns in ch.tiles():
        pat = ch.pat[idx]
        logprob, alpha, beta, Bs, c = _forward_backward_tile(ch.ll[pat],
                                                             params)
        ok = np.isfinite(logprob)
        if not ok.all():                     # degenerate turns are skipped
            if not ok.any():
                continue
            turns, pat, logprob = turns[ok], pat[:, ok], logprob[ok]
            alpha, beta, Bs, c = alpha[:, ok], beta[:, ok], Bs[:, ok], \
                c[:, ok]
        w = w_all[turns]
        n_seqs.append(w)
        removed = w * ch.n_removed[turns]
        post = alpha * beta
        post /= np.maximum(post.sum(axis=2, keepdims=True), 1e-300)
        post *= w[:, None]
        stats.logprob += float(((logprob + ch.n_removed[turns] * run_ll)
                                * w).sum())
        stats.trans[0, 0] += removed.sum()
        stats.start += post[0].sum(axis=0)
        if len(pat) > 1:
            xw = Bs[1:] * beta[1:] / c[1:, :, None] * w[:, None]
            stats.trans += params.transmat * (
                alpha[:-1].reshape(-1, K).T @ xw.reshape(-1, K))
        defer_o += post.sum(axis=(0, 1))
        defer_o[0] += removed.sum()
        f = pat > 0
        np.add.at(post_sum, pat[f], post[f])
    if n_seqs:
        w = np.concatenate(n_seqs)
        stats.n_seqs += (int(w.sum()) if np.all(w == np.floor(w))
                         else float(w.sum()))
    for row0, g_t, g_s, (k_t, k_s, k_state, k_conf) in ch.groups:
        if len(g_t):
            ps = post_sum[row0:]
            emis_buf.add(g_s, ps[g_t], k_s * N_STATES + k_state,
                         k_conf[:, None] * ps[k_t])


def decode_block(params: HMMParams, n_tokens, offsets, p_t, p_s, p_state,
                 p_conf) -> list[list[tuple[int, int, str, float]]]:
    """Viterbi-decode a chunk of turns (flat pair arrays, as in
    :func:`accumulate_block`) into each turn's (start, end, label, conf)
    spans — the spans :func:`decode_turn` gives, bit for bit.

    Viterbi runs over tiles of equal compressed length; a token's conf is
    its pattern's softmax row at the decoded state."""
    ch = _Chunk(params, n_tokens, offsets, p_t, p_s, p_state, p_conf)
    with np.errstate(under="ignore", over="ignore"):
        proba = np.exp(ch.ll - ch.ll.max(axis=1, keepdims=True))
    proba = proba / proba.sum(axis=1, keepdims=True)
    out: list[list] = [[] for _ in range(len(ch.lengths))]
    for idx, turns in ch.tiles():
        pat = ch.pat[idx]
        path = _viterbi_tile(ch.ll[pat], params)
        conf = proba[pat, path]
        for j, b in enumerate(turns):
            spans = bilu_to_spans([POSITIONED_LABELS[s] for s in path[:, j]],
                                  conf[:, j])
            if ch.n_removed[b] and spans:
                kept = ch.kept[ch.off[b]:ch.off[b + 1]]
                spans = [(int(kept[s]), int(kept[e - 1]) + 1, lab, c)
                         for s, e, lab, c in spans]
            out[b] = spans
    return out


def accumulate_flat(params: HMMParams, T: int, p_t: np.ndarray,
                    p_s: np.ndarray, p_state: np.ndarray,
                    p_conf: np.ndarray, stats: SuffStats,
                    weight: float = 1.0, *, defer_o: np.ndarray,
                    emis_buf: "EmisStatsBuffer") -> None:
    """:func:`accumulate` over one turn's flat pair arrays (sorted by
    (t, source), as the obs encoder emits them): a one-turn call of
    :func:`accumulate_block`, with its deferred emission statistics —
    the caller adds ``stats.obs[keep, :, 0] += defer_o`` and calls
    ``emis_buf.apply(stats)`` once, after the last call of the pass."""
    accumulate_block(params, [T], [0, len(p_t)], p_t, p_s, p_state, p_conf,
                     stats, [weight], defer_o=defer_o, emis_buf=emis_buf)


def decode_turn_flat(params: HMMParams, T: int, p_t: np.ndarray,
                     p_s: np.ndarray, p_state: np.ndarray,
                     p_conf: np.ndarray
                     ) -> list[tuple[int, int, str, float]]:
    """:func:`decode_turn` over one turn's flat pair arrays (same spans):
    a one-turn call of :func:`decode_block`."""
    return decode_block(params, [T], [0, len(p_t)], p_t, p_s, p_state,
                        p_conf)[0]


# ---------------------------------------------------------------------------
# prior construction (labelling.py:314-424)
# ---------------------------------------------------------------------------

def init_params_from_counts(init_counts: np.ndarray,
                            trans_counts: np.ndarray,
                            obs_counts: np.ndarray,
                            strength: float = 1000.0,
                            seed: int = 42,
                            keep=None,
                            informative: bool = True) -> HMMParams:
    """Build initial parameters from corpus count partials.

    ``init_counts``/(77,): argmax state of the best-coverage source at
    position 0 of each turn; ``trans_counts``/(77,77): pairwise argmax
    transitions; ``obs_counts``/(S,77): summed observation mass per source.
    """
    rng = np.random.default_rng(seed)
    init_counts = init_counts.astype(np.float64).copy()
    trans_counts = trans_counts.astype(np.float64).copy()

    for i, label in enumerate(POSITIONED_LABELS):
        if i == 0 or label.startswith("B-") or label.startswith("U-"):
            init_counts[i] += 1
    startprob_prior = init_counts + 1
    startprob = rng.dirichlet(init_counts + 1e-10)

    for i, label in enumerate(POSITIONED_LABELS):
        if label.startswith("B-") or label.startswith("I-"):
            trans_counts[i, LABEL_INDICES["I-" + label[2:]]] += 1
            trans_counts[i, LABEL_INDICES["L-" + label[2:]]] += 1
        elif i == 0 or label.startswith("U-") or label.startswith("L-"):
            for j, label2 in enumerate(POSITIONED_LABELS):
                if j == 0 or label2.startswith("B-") \
                        or label2.startswith("U-"):
                    trans_counts[i, j] += 1
    transmat_prior = trans_counts + 1
    transmat = np.vstack([rng.dirichlet(row + 1e-10)
                          for row in trans_counts])

    # emission prior (labelling.py:361-423)
    oc = obs_counts.astype(np.float64).copy()
    for s_idx, source in enumerate(SOURCE_NAMES):
        oc[s_idx, 0] += 1
        priors = SOURCE_PRIORS.get(source, {})
        for pos_index, pos_label in enumerate(POSITIONED_LABELS[1:]):
            if pos_label[2:] in priors:
                oc[s_idx, pos_index] += 1   # note: reference indexes the
                # *enumerate* position over POSITIONED_LABELS[1:], i.e. the
                # count lands on index pos_index (one left of the label) —
                # reproduced faithfully (labelling.py:371-373).
    obs_probs = oc / oc.sum(axis=1)[:, None]

    # row = true state (recall on the diagonal), column = observed state
    # (error mass off it); the products and the per-row normaliser keep the
    # reference loop's operation order, so the prior is bit-identical to it
    ent = [label[2:] for label in POSITIONED_LABELS]
    both_ent = np.zeros((N_STATES, N_STATES), bool)
    both_ent[1:, 1:] = True
    same_type = both_ent & (np.array(ent)[:, None] == np.array(ent)[None, :])
    prefix = np.array([label[0] for label in POSITIONED_LABELS])
    same_prefix = both_ent & (prefix[:, None] == prefix[None, :])
    # the 76 off-diagonal columns of each row, in index order
    off_diag = np.array([[j for j in range(N_STATES) if j != i]
                         for i in range(N_STATES)])
    matrix = np.zeros((N_SOURCES, N_STATES, N_STATES))
    for s_idx, source in enumerate(SOURCE_NAMES):
        priors = SOURCE_PRIORS.get(source, {})
        if informative:
            recall = np.array([priors[e][1] if e in priors else 0.0
                               for e in ent])
            precision = np.array([priors[e][0] if e in priors else 1.0
                                  for e in ent])
            recall[0], precision[0] = OUT_RECALL, OUT_PRECISION
        else:
            recall = np.full(N_STATES, OUT_RECALL)
            precision = np.full(N_STATES, OUT_PRECISION)
        error_prob = ((1 - recall)[:, None] * (1 - precision)[None, :]
                      * (0.001 + obs_probs[s_idx])[None, :])
        if informative:
            error_prob = np.where(same_type, error_prob * 5, error_prob)
            error_prob = np.where(same_prefix, error_prob * 2, error_prob)
        err = np.take_along_axis(error_prob, off_diag, axis=1)
        esum = err.sum(axis=1)
        pos = esum > 0
        err[pos] /= (esum[pos] / (1 - recall[pos]))[:, None]
        np.put_along_axis(matrix[s_idx], off_diag, err, axis=1)
        np.fill_diagonal(matrix[s_idx], recall)

    return HMMParams(startprob, transmat, matrix,
                     startprob_prior=startprob_prior,
                     transmat_prior=transmat_prior,
                     emission_priors=matrix * strength,
                     keep=keep)


def m_step(params: HMMParams, stats: SuffStats) -> HMMParams:
    """hmmlearn-style s/t updates + the reference's emission update
    (labelling.py:462-468)."""
    sp = np.maximum(params.startprob_prior - 1.0 + stats.start, 0.0)
    startprob = np.where(params.startprob == 0.0, params.startprob, sp)
    startprob = startprob / startprob.sum()

    tm = np.maximum(params.transmat_prior - 1.0 + stats.trans, 0.0)
    transmat = np.where(params.transmat == 0.0, params.transmat, tm)
    transmat = transmat / np.maximum(transmat.sum(axis=1)[:, None], 1e-300)

    counts = params.emission_priors + stats.obs
    probs = counts / (counts + 1e-100).sum(axis=2)[:, :, None]
    emission = np.where(params.emission_probs > 0, probs, 0.0)

    return HMMParams(startprob, transmat, emission,
                     startprob_prior=params.startprob_prior,
                     transmat_prior=params.transmat_prior,
                     emission_priors=params.emission_priors,
                     keep=params.keep)


BEST_COVERAGE_INDEX = SOURCE_INDICES[best_coverage_source()]


def decode_turn(obs: TurnObs, params: HMMParams
                ) -> list[tuple[int, int, str, float]]:
    """Viterbi decode one turn into (start, end, label, conf) spans
    (labelling.py:116-141 UnifiedAnnotator.annotate)."""
    if obs.n_tokens == 0:
        return []
    ll = frame_log_likelihood(obs, params)
    _, states = viterbi(ll, params)
    with np.errstate(under="ignore", over="ignore"):
        proba = np.exp(ll - ll.max(axis=1, keepdims=True))
    proba = proba / proba.sum(axis=1, keepdims=True)
    conf = proba[np.arange(len(states)), states]

    labels = [POSITIONED_LABELS[s] for s in states]
    return bilu_to_spans(labels, conf)


def bilu_to_spans(labels: list[str], conf: np.ndarray
                  ) -> list[tuple[int, int, str, float]]:
    """BILU label sequence -> spans with confidences, reproducing
    ``UnifiedAnnotator.annotate`` (labelling.py:116-141) including its
    boundary quirks."""
    spans = []
    i, n = 0, len(labels)
    while i < n:
        lab = labels[i]
        if lab == "O":
            i += 1
            continue
        if lab[0] in "UIL":
            spans.append((i, i + 1, lab[2:], round(float(conf[i]), 3)))
            i += 1
        elif lab[0] == "B":
            start = i
            label = lab[2:]
            i += 1
            while i < n - 1 and labels[i] != "O" \
                    and labels[i].startswith("I-"):
                i += 1
            if i < n and labels[i].startswith("L-"):
                c = round(float(conf[start:i + 1].max()), 3)
                spans.append((start, i + 1, label, c))
            i += 1
    return spans


def majority_vote_turn(obs: TurnObs, params_keep: set[int] | None = None,
                       nb_sources_threshold: int = 10
                       ) -> list[tuple[int, int, str, float]]:
    """MajorityVoter baseline (labelling.py:503-531): per-token bincount of
    source argmax states; a token is an entity iff >= threshold sources
    fire; label = most common positioned state."""
    T = obs.n_tokens
    if T == 0:
        return []
    counts = np.zeros((T, N_STATES), np.int64)
    keep = params_keep if params_keep is not None else set(range(N_SOURCES))
    fired_by_t: dict[int, set] = {}
    for (t, s), dist in obs.fired.items():
        if s not in keep:
            continue
        best_state, best_conf = 0, 0.0
        for state, c in dist.items():
            if c > best_conf or (c == best_conf and state < best_state):
                best_state, best_conf = state, c
        counts[t, best_state] += 1
        fired_by_t.setdefault(t, set()).add(s)
    # non-fired sources implicitly vote O
    n_keep = len(keep)
    labels, confs = [], np.zeros(T)
    for t in range(T):
        nz = counts[t, 1:]
        fired = int(nz.sum())
        if fired >= nb_sources_threshold:
            state = int(nz.argmax()) + 1
            labels.append(POSITIONED_LABELS[state])
            confs[t] = nz.max() / fired
        else:
            labels.append("O")
            confs[t] = (n_keep - fired) / n_keep
    return bilu_to_spans(labels, confs)
