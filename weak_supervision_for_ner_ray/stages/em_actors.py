"""The EM shards: stateless Ray tasks on the default worker pool.

Ray Data has no iterate-until-converged primitive (SURVEY.md §7.4): an EM
built on Datasets relaunches a full pipeline per iteration, paying
execution barriers + partial collection every pass — measured ~3 s/pass
of fixed, non-scaling overhead.  So the EM loop runs on raw Ray tasks:
:func:`make_shards` cuts the observation table into cost-balanced
:class:`EMShard` specs (row-group runs), and every pass
(:func:`shard_init_counts`, :func:`shard_estep`) is one task per shard
that re-reads and dedups its row groups and returns a ~2 MB
sufficient-statistic partial.  The driver merges the partials in shard
order, so the result does not depend on which worker ran which task.

A task holds no state between passes, so a build starts no actor process
and a worker lost mid-pass only costs Ray's retry of that task.  The
re-read is cheap next to the pass (measured on a 1-CPU VM on the
perfbench corpora: 11-20 ms of re-read + dedup against 0.25-0.3 s for one
block-kernel E-step pass), so no per-worker shard cache is kept.

The driver loop (``pipelines.train.train_hmm_sharded``) checkpoints the
parameters after every iteration, which is what resume restarts from.
"""

from __future__ import annotations

import functools
import logging
import os
import types
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
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


@dataclass(frozen=True)
class EMShard:
    """One shard of the observation table: a contiguous run of
    ``(file, row_group_indices)`` units, its row count and its mode.

    Every pass re-reads the units and deduplicates *identical observation
    patterns* (same token count, same flat (t, source, state, conf)
    pairs): every E-step statistic is linear per turn, so N identical
    turns contribute exactly N× the stats of one.  Conversational corpora
    repeat formulaic turns heavily (measured 3.8× at sf0.01), so this cuts
    the per-pass compute 2-4× with bit-identical results.

    ``streaming``: the parquet metadata put the shard above the memory
    budget (``GRAFT_EM_SHARD_MAX_BYTES``), so a pass reads and dedups one
    row group at a time instead of the whole shard at once."""

    units: tuple[tuple[str, tuple[int, ...]], ...]
    n_raw: int
    streaming: bool

    @property
    def n_turns(self):
        """``shard.n_turns.remote()`` -> ObjectRef of the shard's row count
        (from parquet metadata; the call shape ``perfbench/spans.py``
        uses)."""
        return types.SimpleNamespace(
            remote=functools.partial(ray.put, self.n_raw))


def _deduped(batch: pa.Table):
    """(rows, weights) of one table: weights None when nothing repeats."""
    fp = batch.column("obs_fp").to_numpy(zero_copy_only=False)
    rows = ObsRows(batch)
    uniq_idx, counts = _dedup_rows(fp, rows)
    if len(uniq_idx) < len(rows):
        return rows.take(uniq_idx), counts.astype(np.float64)
    return rows, None


def _iter_deduped(shard: EMShard):
    """Yield (rows, weights) chunks — the whole shard in one chunk, or one
    chunk per row group in streaming mode."""
    if not shard.streaming:
        yield _deduped(pa.concat_tables(
            [pq.ParquetFile(f).read_row_groups(list(rgs), columns=_OBS_COLS)
             for f, rgs in shard.units]))
        return
    for f, rgs in shard.units:
        pf = pq.ParquetFile(f)
        for rg in rgs:
            yield _deduped(pf.read_row_groups([rg], columns=_OBS_COLS))


@ray.remote
def _init_partial(shard: EMShard):
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
    for rows, weights in _iter_deduped(shard):
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


@ray.remote
def _estep_partial(shard: EMShard, params) -> dict:
    """One E-step over the shard -> sufficient-statistic partial
    (dedup-weighted): one ``hmm.accumulate_block`` call per chunk.

    The block kernel's working set is bounded by its tile, not the chunk:
    forward-backward runs over tiles of at most ``hmm.TILE_TOKENS`` tokens
    (about 1.6 MB of (T, B, 77) arrays), and the emission statistics
    collapse onto the chunk's few hundred observation patterns.  An
    earlier batched kernel that streamed whole (chunk, Tmax, 77) tensors
    through DRAM saturated the memory bus with 32 shards and ran ~3×
    slower end-to-end (37 s vs 11 s per pass at sf0.1/32 cpus)."""
    stats = SuffStats()
    defer_o = np.zeros(hmm.N_STATES)
    emis_buf = hmm.EmisStatsBuffer()
    for rows, weights in _iter_deduped(shard):
        c = rows.cols
        hmm.accumulate_block(params, rows.n_tokens, rows.offsets, c["o_t"],
                             c["o_s"], c["o_state"], c["o_conf"], stats,
                             weights, defer_o=defer_o, emis_buf=emis_buf)
    emis_buf.apply(stats)
    stats.obs[params.keep, :, 0] += defer_o[None, :]
    return stats.to_arrays()


@ray.remote
def _unit_costs(f: str):
    """Per-row-group ``(rg, cost, rows, bytes)`` of one obs file.  The
    E-step cost estimate is the sum of token counts over FIRST occurrences
    of each observation pattern (the recursion is O(tokens·77²) and
    duplicate turns cost ~nothing after dedup); it reads only the two tiny
    metadata columns.  Rows and uncompressed bytes come from the parquet
    metadata."""
    pf = pq.ParquetFile(f)
    out = []
    for rg in range(pf.metadata.num_row_groups):
        md = pf.metadata.row_group(rg)
        t = pf.read_row_group(rg, columns=["n_tokens", "obs_fp"])
        nt = np.asarray(t.column("n_tokens"))
        fp = np.asarray(t.column("obs_fp"))
        _, first = np.unique(fp, return_index=True)
        out.append((rg, int(nt[first].sum()) + len(nt) // 8 + 1,
                    md.num_rows, md.total_byte_size))
    return f, out


def make_shards(obs_files: list[str], n_shards: int) -> list[EMShard]:
    """Cost-balanced CONTIGUOUS row-group assignment -> shard specs.

    Each shard gets a contiguous run of the (file, row-group) order and
    dedups identical observation patterns per pass; the heavy formulaic
    turns repeat often enough that per-shard dedup captures nearly all of
    the duplicate mass even without any global fingerprint clustering
    (measured: fp-sorting the obs table first changed 2-pass EM time by
    <1%).  Units are row groups, not files (output files can be uneven),
    and the packing balances estimated E-step COST — unique-pattern token
    sums from a parallel metadata pre-pass — because the wall time is the
    max shard, not the mean.  A shard whose uncompressed size exceeds
    ``GRAFT_EM_SHARD_MAX_BYTES`` (4 GiB default) streams."""
    files = sorted(obs_files)
    if not files:
        return []
    costed = dict(ray.get([_unit_costs.remote(f) for f in files]))
    units = [(f, *rg) for f in files for rg in costed[f]]
    n_shards = max(1, min(n_shards, len(units)))
    total = sum(u[2] for u in units)
    groups: list[dict] = [dict() for _ in range(n_shards)]
    sizes = [[0, 0] for _ in range(n_shards)]      # rows, bytes
    acc = 0
    for f, rg, cost, n_rows, n_bytes in units:
        i = min(n_shards - 1, (acc + cost // 2) * n_shards // max(total, 1))
        groups[i].setdefault(f, []).append(rg)
        sizes[i][0] += n_rows
        sizes[i][1] += n_bytes
        acc += cost
    max_bytes = int(os.environ.get("GRAFT_EM_SHARD_MAX_BYTES",
                                   str(4 * 1024 ** 3)))
    shards = []
    for g, (n_rows, n_bytes) in zip(groups, sizes):
        if not g:
            continue
        streaming = n_bytes > max_bytes
        if streaming:
            logging.getLogger(__name__).warning(
                "EM shard: estimated %.0f MB exceeds budget %.0f MB -> "
                "streaming mode (per-row-group dedup)",
                n_bytes / 1e6, max_bytes / 1e6)
        shards.append(EMShard(tuple((f, tuple(rgs)) for f, rgs in g.items()),
                              n_rows, streaming))
    return shards


def shard_init_counts(shards: list[EMShard]):
    """Prior-count partials of every shard, summed in shard order."""
    parts = ray.get([_init_partial.remote(s) for s in shards])
    S, K = hmm.N_SOURCES, hmm.N_STATES
    init = np.zeros(K)
    trans = np.zeros((K, K))
    obs = np.zeros((S, K))
    for i, t, o in parts:
        init += i
        trans += t
        obs += o
    return init, trans, obs


def shard_estep(shards: list[EMShard], params) -> SuffStats:
    """One E-step pass: one task per shard, partials merged in shard
    order."""
    params_ref = ray.put(params)
    parts = ray.get([_estep_partial.remote(s, params_ref) for s in shards])
    total = SuffStats()
    for d in parts:
        total.merge(SuffStats.from_arrays(d))
    return total
