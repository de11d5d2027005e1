"""Persistent shard actors for the EM loop.

Ray Data has no iterate-until-converged primitive (SURVEY.md §7.4): an EM
built on Datasets relaunches a full pipeline per iteration, paying
execution barriers + partial collection every pass — measured ~3 s/pass
of fixed, non-scaling overhead.  So the EM loop runs on raw Ray actors
(the one place the Dataset API genuinely can't express the semantics, per
the design brief): each :class:`EMShard` actor loads its partition of the
observation table ONCE in ``__init__`` and every EM iteration is a single
RPC per actor returning a ~2 MB sufficient-statistic partial.

On a multi-node cluster the shards map to per-node partitions of the obs
parquet directory.  The driver loop (``pipelines.train.train_hmm_sharded``)
checkpoints the parameters after every iteration, which is what resume
restarts from.
"""

from __future__ import annotations

import numpy as np
import pyarrow.parquet as pq

import ray

from ..state import hmm
from ..state.hmm import BEST_COVERAGE_INDEX, SuffStats
from .encode import ObsRows

_OBS_COLS = ["obs_fp", "n_tokens", "o_t", "o_s", "o_state", "o_conf"]


def _dedup_rows(fp: np.ndarray, rows: ObsRows):
    """Exact dedup of identical observation patterns.

    ``obs_fp`` (a 63-bit blake2b of the pattern bytes, stages/encode.py)
    is only the grouping PREFILTER: rows sharing an fp are verified
    byte-equal on the actual pattern content (token count + the flat
    (t, source, state, conf) pair arrays) before their weights merge, so
    a fingerprint collision can never merge two different turns' EM
    statistics — it merely costs the collided rows their dedup.

    Returns (representative row indices, weights), ordered by (fp, row)
    exactly like the previous unique-by-fp implementation so the E-step
    accumulation order — and therefore every float result — is unchanged
    on collision-free data.
    """
    uniq_fp, first_idx, inv, counts = np.unique(
        fp, return_index=True, return_inverse=True, return_counts=True)
    if (counts <= 1).all():
        return first_idx.astype(np.int64), counts.astype(np.int64)
    rep_idx = first_idx[counts == 1].tolist()
    rep_counts = [1] * len(rep_idx)
    off = rows.offsets
    nt = rows.n_tokens
    c = rows.cols
    seen: dict[tuple, int] = {}
    for i in np.flatnonzero(counts[inv] > 1):
        lo, hi = int(off[i]), int(off[i + 1])
        key = (int(fp[i]), int(nt[i]),
               c["o_t"][lo:hi].tobytes(), c["o_s"][lo:hi].tobytes(),
               c["o_state"][lo:hi].tobytes(), c["o_conf"][lo:hi].tobytes())
        slot = seen.get(key)
        if slot is None:
            seen[key] = len(rep_idx)
            rep_idx.append(int(i))
            rep_counts.append(1)
        else:
            rep_counts[slot] += 1
    idx = np.asarray(rep_idx, np.int64)
    cnt = np.asarray(rep_counts, np.int64)
    order = np.lexsort((idx, fp[idx]))
    return idx[order], cnt[order]


def _take_rows(rows: ObsRows, idx: np.ndarray) -> ObsRows:
    """New ObsRows view containing only the selected turns (vectorised
    gather of the flat pair arrays)."""
    lens = np.diff(rows.offsets)[idx]
    new_off = np.concatenate([[0], np.cumsum(lens)])
    total = int(new_off[-1])
    within = np.arange(total, dtype=np.int64) - np.repeat(new_off[:-1], lens)
    gather = np.repeat(rows.offsets[idx], lens) + within
    out = ObsRows.__new__(ObsRows)
    out.n_tokens = rows.n_tokens[idx]
    out.offsets = new_off
    out.cols = {name: arr[gather] for name, arr in rows.cols.items()}
    return out


@ray.remote
class EMShard:
    """Holds one shard of the observation table as flat numpy arrays.

    On load the shard deduplicates *identical observation patterns*
    (same token count, same flat (t, source, state, conf) pairs): every
    E-step statistic is linear per turn, so N identical turns contribute
    exactly N× the stats of one.  Conversational corpora repeat formulaic
    turns heavily (measured 3.8× at sf0.01), so this cuts the per-pass
    compute 2-4× with bit-identical results."""

    def __init__(self, units: list, max_bytes: int | None = None):
        """``units``: list of (file, row_group_indices | None) — None
        reads the whole file.

        ``max_bytes``: in-memory budget for the resident (deduped) shard.
        When the parquet metadata estimates the shard above budget, the
        shard runs in STREAMING mode: nothing is held resident and every
        ``estep``/``init_stats`` call re-reads + re-dedups one row group at
        a time — a per-pass IO/dedup cost traded for bounded actor memory
        (the large-scale fallback; selection is automatic and logged)."""
        self.units = units
        self.rows = None
        self.weights = None
        self.streaming = False
        self.n_raw = 0
        est = 0
        for f, rgs in units:
            md = pq.ParquetFile(f).metadata
            idx = range(md.num_row_groups) if rgs is None else rgs
            for rg in idx:
                est += md.row_group(rg).total_byte_size
                self.n_raw += md.row_group(rg).num_rows
        if max_bytes is not None and est > max_bytes:
            import logging
            logging.getLogger(__name__).warning(
                "EMShard: estimated %.0f MB exceeds budget %.0f MB -> "
                "streaming mode (per-pass re-read)",
                est / 1e6, max_bytes / 1e6)
            self.streaming = True
            return
        batch = self._read_units(units)
        if batch is None:
            return
        fp = batch.column("obs_fp").to_numpy(zero_copy_only=False)
        rows = ObsRows(batch)
        self.n_raw = len(rows)
        uniq_idx, counts = _dedup_rows(fp, rows)
        if len(uniq_idx) < len(rows):
            self.rows = _take_rows(rows, uniq_idx)
            self.weights = counts.astype(np.float64)
        else:
            self.rows = rows
            self.weights = None
        self._warm_buffers()

    def _warm_buffers(self):
        """Allocate the per-pass accumulators ONCE, touch their pages and
        exercise the E-step kernel on a tiny synthetic turn.

        First-call cost (numpy ufunc-loop setup, allocator arena growth,
        page-zeroing of the ~45 MB of accumulator/flush buffers) is paid
        here, during the I/O-bound load phase, instead of inside the first
        timed E-step pass — measured ~2× estep_1 vs estep_2 before this
        (the fault-in of 64 actors' fresh pages serialises on the memory
        bus when every actor hits it in the same pass)."""
        self._emis_buf = hmm.EmisStatsBuffer()
        self._emis_buf._acc.fill(0.0)       # fault the pages in now
        self._emis_buf._acc_sub.fill(0.0)
        # convert the flat pair arrays to kernel dtypes ONCE — estep used
        # to astype-copy every column every pass
        if self.rows is not None:
            c = self.rows.cols
            c["o_t"] = np.ascontiguousarray(c["o_t"], np.int64)
            c["o_s"] = np.ascontiguousarray(c["o_s"], np.int64)
            c["o_state"] = np.ascontiguousarray(c["o_state"], np.int64)
            c["o_conf"] = np.ascontiguousarray(c["o_conf"], np.float64)
        try:
            S, K = hmm.N_SOURCES, hmm.N_STATES
            p = hmm.init_params_from_counts(
                np.ones(K), np.ones((K, K)), np.ones((S, K)))
            st = SuffStats()
            t = np.array([0, 1], np.int64)
            s = np.array([0, BEST_COVERAGE_INDEX], np.int64)
            k = np.array([1, 2], np.int64)
            c = np.array([0.9, 0.8], np.float64)
            hmm.accumulate_flat(p, 64, t, s, k, c, st, defer_o=np.zeros(K),
                                emis_buf=self._emis_buf)
            self._emis_buf.apply(st)
        except Exception:
            pass

    @staticmethod
    def _read_units(units: list):
        import pyarrow as pa
        tables = []
        for f, rgs in units:
            pf = pq.ParquetFile(f)
            if rgs is None:
                tables.append(pf.read(columns=_OBS_COLS))
            else:
                tables.append(pf.read_row_groups(list(rgs),
                                                 columns=_OBS_COLS))
        return pa.concat_tables(tables) if tables else None

    def _iter_deduped(self):
        """Yield (rows, weights) chunks — the resident shard in one chunk,
        or per-row-group chunks in streaming mode."""
        if not self.streaming:
            if self.rows is not None:
                yield self.rows, self.weights
            return
        for f, rgs in self.units:
            pf = pq.ParquetFile(f)
            idx = range(pf.metadata.num_row_groups) if rgs is None else rgs
            for rg in idx:
                batch = pf.read_row_groups([rg], columns=_OBS_COLS)
                fp = batch.column("obs_fp").to_numpy(zero_copy_only=False)
                rows = ObsRows(batch)
                uniq_idx, counts = _dedup_rows(fp, rows)
                if len(uniq_idx) < len(rows):
                    yield _take_rows(rows, uniq_idx), \
                        counts.astype(np.float64)
                else:
                    yield rows, None

    def n_turns(self) -> int:
        return getattr(self, "n_raw", 0)

    def init_stats(self):
        """Prior-count partials (labelling.py:314-373), dedup-weighted —
        fully vectorised over the flat pair arrays (no per-turn dicts):

        * init/trans counts come from the best-coverage source's per-token
          argmax-state sequence (conf desc, state asc tiebreak, zero-conf
          entries lose to state O — ``obs_argmax_states`` semantics);
        * obs counts: every source's O column gets the token mass, each
          fired (t, source) group moves one unit of O mass to its states."""
        S, K = hmm.N_SOURCES, hmm.N_STATES
        init_counts = np.zeros(K)
        trans_counts = np.zeros((K, K))
        obs_counts = np.zeros((S, K))
        for rows, weights in self._iter_deduped():
            n = len(rows)
            if n == 0:
                continue
            w = np.ones(n) if weights is None else weights
            nt = np.asarray(rows.n_tokens, np.int64)
            counts = np.diff(rows.offsets)
            pair_turn = np.repeat(np.arange(n), counts)
            o_t = np.asarray(rows.cols["o_t"], np.int64)
            o_s = np.asarray(rows.cols["o_s"], np.int64)
            o_state = np.asarray(rows.cols["o_state"], np.int64)
            o_conf = np.asarray(rows.cols["o_conf"], np.float64)

            # normalise: sort pairs by (turn, t, source, state) and merge
            # duplicate (turn, t, source, state) confs — the encoder
            # already emits this form, but the kernel must not depend on it
            if len(o_t):
                order = np.lexsort((o_state, o_s, o_t, pair_turn))
                pair_turn, o_t, o_s, o_state, o_conf = (
                    pair_turn[order], o_t[order], o_s[order],
                    o_state[order], o_conf[order])
                dup = ((pair_turn[1:] == pair_turn[:-1])
                       & (o_t[1:] == o_t[:-1]) & (o_s[1:] == o_s[:-1])
                       & (o_state[1:] == o_state[:-1]))
                if dup.any():
                    heads = np.flatnonzero(np.r_[True, ~dup])
                    o_conf = np.add.reduceat(o_conf, heads)
                    pair_turn, o_t, o_s, o_state = (
                        pair_turn[heads], o_t[heads], o_s[heads],
                        o_state[heads])
            pw = w[pair_turn]

            # obs counts -------------------------------------------------
            obs_counts[:, 0] += float((nt * w).sum())
            if len(o_t):
                # one O-mass subtraction per distinct (turn, t, source)
                # group (duplicates adjacent after the sort above)
                first = np.empty(len(o_t), bool)
                first[0] = True
                first[1:] = ((pair_turn[1:] != pair_turn[:-1])
                             | (o_t[1:] != o_t[:-1])
                             | (o_s[1:] != o_s[:-1]))
                np.add.at(obs_counts[:, 0], o_s[first], -pw[first])
                np.add.at(obs_counts, (o_s, o_state), o_conf * pw)

            # init/trans counts from the best-coverage argmax sequence ---
            tok_off = np.concatenate([[0], np.cumsum(nt)])
            total = int(tok_off[-1])
            seq = np.zeros(total, np.int64)
            bm = (o_s == BEST_COVERAGE_INDEX) & (o_conf > 0)
            if bm.any():
                bt, bturn = o_t[bm], pair_turn[bm]
                bstate, bconf = o_state[bm], o_conf[bm]
                key = bturn * (nt.max() + 1) + bt
                order = np.lexsort((bstate, -bconf, key))
                k_srt = key[order]
                lead = np.r_[True, k_srt[1:] != k_srt[:-1]]
                pick = order[lead]
                seq[tok_off[bturn[pick]] + bt[pick]] = bstate[pick]
            valid = nt > 0
            np.add.at(init_counts, seq[tok_off[:-1][valid]], w[valid])
            if total > 1:
                pos_turn = np.repeat(np.arange(n), nt)
                same = pos_turn[1:] == pos_turn[:-1]
                np.add.at(trans_counts,
                          (seq[:-1][same], seq[1:][same]),
                          w[pos_turn[:-1][same]])
        return init_counts, trans_counts, obs_counts

    def estep(self, params) -> dict:
        """One E-step over the shard -> sufficient-statistic partial
        (dedup-weighted).

        Per-turn kernel (``hmm.accumulate_flat``) on purpose: its working
        set is one (T,77) strip that stays in L2.  A batched kernel that
        streamed (chunk, Tmax, 77) tensors through DRAM was fine on one
        core, but with 32 shard actors it saturated the memory bus and ran
        ~3× slower end-to-end (measured 37 s vs 11 s per pass at sf0.1/32
        cpus), so it was removed."""
        stats = SuffStats()
        defer_o = np.zeros(hmm.N_STATES)
        # buffer persists across passes (allocated + pre-faulted at load);
        # streaming mode has no resident state, so it builds one lazily
        emis_buf = getattr(self, "_emis_buf", None)
        if emis_buf is None:
            emis_buf = self._emis_buf = hmm.EmisStatsBuffer()
        emis_buf.reset()
        any_rows = False
        for rows, weights in self._iter_deduped():
            any_rows = True
            off = rows.offsets
            # no-op for the resident shard (converted once at load);
            # converts per chunk in streaming mode
            o_t = np.asarray(rows.cols["o_t"], np.int64)
            o_s = np.asarray(rows.cols["o_s"], np.int64)
            o_state = np.asarray(rows.cols["o_state"], np.int64)
            o_conf = np.asarray(rows.cols["o_conf"], np.float64)
            nt = rows.n_tokens
            for i in range(len(rows)):
                w = 1.0 if weights is None else weights[i]
                lo, hi = off[i], off[i + 1]
                hmm.accumulate_flat(params, int(nt[i]), o_t[lo:hi],
                                    o_s[lo:hi], o_state[lo:hi],
                                    o_conf[lo:hi], stats,
                                    weight=w, defer_o=defer_o,
                                    emis_buf=emis_buf)
        if any_rows:
            emis_buf.apply(stats)
            stats.obs[params.keep, :, 0] += defer_o[None, :]
        return stats.to_arrays()


@ray.remote
def _unit_costs(f: str):
    """Per-row-group E-step cost estimate for one obs file: the sum of
    token counts over FIRST occurrences of each observation pattern (the
    recursion is O(tokens·77²) and duplicate turns cost ~nothing after
    dedup).  Reads only the two tiny metadata columns."""
    pf = pq.ParquetFile(f)
    out = []
    for rg in range(pf.metadata.num_row_groups):
        t = pf.read_row_group(rg, columns=["n_tokens", "obs_fp"])
        nt = np.asarray(t.column("n_tokens"))
        fp = np.asarray(t.column("obs_fp"))
        _, first = np.unique(fp, return_index=True)
        out.append((rg, int(nt[first].sum()) + len(nt) // 8 + 1))
    return f, out


def make_shards(obs_files: list[str], n_shards: int):
    """Cost-balanced CONTIGUOUS row-group assignment -> actor handles.

    Each shard gets a contiguous run of the (file, row-group) order and
    dedups identical observation patterns on load; the heavy formulaic
    turns repeat often enough that per-shard dedup captures nearly all of
    the duplicate mass even without any global fingerprint clustering
    (measured: fp-sorting the obs table first changed 2-pass EM time by
    <1%).  Units are row groups, not files (output files can be uneven),
    and the packing balances estimated E-step COST — unique-pattern token
    sums from a parallel metadata pre-pass — because the wall time is the
    max shard, not the mean."""
    files = sorted(obs_files)
    if not files:
        return []
    costed = dict(ray.get([_unit_costs.remote(f) for f in files]))
    units = [(f, rg, cost) for f in files for rg, cost in costed[f]]
    n_shards = max(1, min(n_shards, len(units)))
    total = sum(c for _, _, c in units)
    groups: list[dict] = [dict() for _ in range(n_shards)]
    acc = 0
    for f, rg, cost in units:
        i = min(n_shards - 1, (acc + cost // 2) * n_shards // max(total, 1))
        groups[i].setdefault(f, []).append(rg)
        acc += cost
    # 0.5 CPU per actor: train_hmm_sharded starts one shard per core, so
    # the shards reserve half the cluster's CPUs and leave the rest
    # schedulable; a caller passing 2 shards per core fills every core
    import os
    max_bytes = int(os.environ.get("GRAFT_EM_SHARD_MAX_BYTES",
                                   str(4 * 1024 ** 3)))
    cls = EMShard.options(num_cpus=0.5)
    return [cls.remote([(f, rgs) for f, rgs in g.items()], max_bytes)
            for g in groups if g]


def shard_init_counts(shards):
    parts = ray.get([s.init_stats.remote() for s in shards])
    S, K = hmm.N_SOURCES, hmm.N_STATES
    init = np.zeros(K)
    trans = np.zeros((K, K))
    obs = np.zeros((S, K))
    for i, t, o in parts:
        init += i
        trans += t
        obs += o
    return init, trans, obs


def shard_estep(shards, params) -> SuffStats:
    params_ref = ray.put(params)
    parts = ray.get([s.estep.remote(params_ref) for s in shards])
    total = SuffStats()
    for d in parts:
        total.merge(SuffStats.from_arrays(d))
    return total
