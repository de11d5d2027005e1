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
    emission-statistics pass."""
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


def _compress_o_runs(T: int, p_t: np.ndarray, a00: float):
    """Collapse each maximal run of unfired tokens to its head token.

    A token no source fired on is forced through the O state — every
    non-O entry of its ll row is masked to -inf (the reference's
    observed-state rule, labelling.py:443-445) — so after the head of a
    run the scaled forward vector is exactly one-hot at O.  The k-1
    interior tokens of a k-run therefore contribute deterministic,
    analytically known terms: ``logprob += (k-1)(log A[0,0] +
    base_ll[0])``, ``xi += (k-1)·δ(0,0)``, and a δ_0 posterior row each;
    all other posteriors/xis are unchanged because the dropped factor
    ``A[0,0]^{k-1}`` is common to every path.  Dropping them shrinks the
    O(T·77²) recursions by the unfired token share (~60% of transcript
    tokens) with bit-identical remaining rows.

    Returns ``(T', p_t', n_removed, kept_positions|None)`` where
    ``kept_positions`` maps compressed token index -> original index
    (``None`` when nothing was removed).
    """
    # short turns can't hold enough removable tokens to repay the run
    # detection itself (~0.1 ms/turn; measured net-negative below ~24)
    if T < 24 or a00 <= 0.0:
        return T, p_t, 0, None
    fired = np.zeros(T, bool)
    if len(p_t):
        fired[p_t] = True
    keep = fired.copy()
    keep[0] = True
    keep[1:] |= fired[:-1]
    n_removed = T - int(keep.sum())
    if not n_removed:
        return T, p_t, 0, None
    if len(p_t):
        p_t = (np.cumsum(keep) - 1)[p_t]
    return T - n_removed, p_t, n_removed, np.flatnonzero(keep)


class EmisStatsBuffer:
    """Cross-turn accumulator for the per-(t, source) emission updates.

    The per-turn updates ``obs[s, :, 0] -= post[t]`` and
    ``obs[s, :, state] += conf·post[t]`` are linear, so they can be
    collected across every turn of a shard pass and applied in a handful
    of segment-sums — replacing two tiny ``np.ufunc.at`` scatters PER
    TURN (whose buffered element-at-a-time path was ~40% of E-step
    wall-time) with one argsort+reduceat per ~64k buffered rows.

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
        after the last :func:`accumulate_flat` of the pass)."""
        self._flush()
        # acc[s·K+state, j] -> obs[s, j, state]
        stats.obs += self._acc.reshape(
            N_SOURCES, N_STATES, N_STATES).transpose(0, 2, 1)
        stats.obs[:, :, 0] -= self._acc_sub
        # leave the buffer empty, so a second apply adds nothing
        self._acc.fill(0.0)
        self._acc_sub.fill(0.0)


def accumulate_flat(params: HMMParams, T: int, p_t: np.ndarray,
                    p_s: np.ndarray, p_state: np.ndarray,
                    p_conf: np.ndarray, stats: SuffStats,
                    weight: float = 1.0, *, defer_o: np.ndarray,
                    emis_buf: "EmisStatsBuffer") -> None:
    """:func:`accumulate` over flat pair arrays — identical statistics,
    no per-turn dict construction, vectorised emission updates, and
    O-run compression of the forward-backward recursion.  The E-step
    kernel production runs.

    The emission statistics are deferred to the caller, who must fold
    them in once per pass (identical result; every statistic is linear):

    * ``defer_o`` (77,) sums each turn's total posterior; the caller adds
      ``stats.obs[keep, :, 0] += defer_o``.  Doing that per turn touched
      ~48 strided 616-byte rows of the 2.3 MB obs tensor PER TURN — the
      dominant DRAM traffic of a shard pass.
    * ``emis_buf`` buffers the fired-pair updates; the caller calls its
      :meth:`EmisStatsBuffer.apply`."""
    if T == 0:
        return
    a00 = float(params.transmat[0, 0])
    T, p_t, n_removed, _ = _compress_o_runs(T, p_t, a00)
    ll, g_t, g_s, (p_t, p_s, p_state, p_conf) = frame_ll_flat(
        T, p_t, p_s, p_state, p_conf, params)
    logprob, alpha, beta, Bs, c = _forward_backward_scaled(ll, params)
    if not np.isfinite(logprob):
        return
    post = alpha * beta
    post /= np.maximum(post.sum(axis=1, keepdims=True), 1e-300)
    if weight != 1.0:
        post = post * weight

    if n_removed:
        logprob += n_removed * (np.log(a00) + params.base_loglik[0])
        stats.trans[0, 0] += weight * n_removed
    stats.logprob += logprob * weight
    stats.n_seqs += int(weight) if weight == int(weight) else weight
    stats.start += post[0]
    if T > 1:
        w = Bs[1:] * beta[1:] / c[1:, None]
        stats.trans += (params.transmat * (alpha[:-1].T @ w)) * weight

    total_post = post.sum(axis=0)
    if n_removed:
        total_post[0] += weight * n_removed
    defer_o += total_post
    if len(g_t):
        # conf-weighted add per pair: obs[s, :, state] += conf * post[t],
        # minus the baseline column once per fired (t, source) group
        CP = p_conf[:, None] * post[p_t]                 # (n_pairs, 77)
        emis_buf.add(g_s, post[g_t], p_s * N_STATES + p_state, CP)


def decode_turn_flat(params: HMMParams, T: int, p_t: np.ndarray,
                     p_s: np.ndarray, p_state: np.ndarray,
                     p_conf: np.ndarray
                     ) -> list[tuple[int, int, str, float]]:
    """:func:`decode_turn` over flat pair arrays (same spans).

    Runs Viterbi on the O-run-compressed sequence: interior tokens of an
    unfired run are forced O with a path-score factor common to every
    path, so the compressed argmax path equals the original restricted to
    kept tokens; span boundaries map back via the kept-position index.
    (Entity spans can never cover an unfired token, and each maximal
    non-O label segment lies within one stretch of consecutively kept
    tokens, so compressed spans are contiguous in original space too.)"""
    if T == 0:
        return []
    T, p_t, n_removed, kept_pos = _compress_o_runs(
        T, p_t, float(params.transmat[0, 0]))
    ll, _, _, _ = frame_ll_flat(T, p_t, p_s, p_state, p_conf, params)
    _, states = viterbi(ll, params)
    with np.errstate(under="ignore", over="ignore"):
        proba = np.exp(ll - ll.max(axis=1, keepdims=True))
    proba = proba / proba.sum(axis=1, keepdims=True)
    conf = proba[np.arange(len(states)), states]
    labels = [POSITIONED_LABELS[s] for s in states]
    spans = bilu_to_spans(labels, conf)
    if n_removed and spans:
        spans = [(int(kept_pos[s]), int(kept_pos[e - 1]) + 1, lab, c)
                 for s, e, lab, c in spans]
    return spans


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
