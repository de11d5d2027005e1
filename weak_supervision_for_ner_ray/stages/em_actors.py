"""The EM shards: stateless Ray tasks on the default worker pool.

Ray Data has no iterate-until-converged primitive (SURVEY.md §7.4): an EM
built on Datasets relaunches a full pipeline per iteration, paying
execution barriers + partial collection every pass — measured ~3 s/pass
of fixed, non-scaling overhead.  So both EM models run on raw Ray tasks:
:func:`make_shards` cuts a parquet table into :class:`EMShard` specs
(row-group runs), and every pass is one task per shard that re-reads its
row groups and returns a partial: a dedup-weighted ~2 MB one for the HMM
(:func:`shard_init_counts`, :func:`shard_estep`), a ~40 KB one for the
span label model (:func:`label_model_estep`).  The driver merges the
partials in shard order, so the result does not depend on which worker
ran which task.

A task holds no state between passes, so a build starts no actor process
and a worker lost mid-pass only costs Ray's retry of that task.  The
re-read is cheap next to the pass (measured on a 1-CPU VM on the
perfbench corpora: 11-20 ms of re-read + dedup against 0.25-0.3 s for one
block-kernel E-step pass), so no per-worker shard cache is kept.

The driver loop (``pipelines.train.run_em``) checkpoints the parameters
after every iteration, which is what resume restarts from.
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..state import hmm, labelmodel
from ..state.hmm import BEST_COVERAGE_INDEX, SuffStats
from .encode import ObsRows

_OBS_COLS = ["obs_fp", "n_tokens", "o_t", "o_s", "o_state", "o_conf"]

# footer (uncompressed) bytes one shard may hold: make_shards adds shards
# until every shard fits
SHARD_MAX_BYTES = 4 * 1024 ** 3


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
    """One shard of a table: a contiguous run of
    ``(file, row_group_indices)`` units and its row count.

    Every HMM pass re-reads the units and deduplicates *identical
    observation patterns* (same token count, same flat (t, source, state,
    conf) pairs): every E-step statistic is linear per turn, so N identical
    turns contribute exactly N× the stats of one.  Conversational corpora
    repeat formulaic turns heavily (measured 3.8× at sf0.01), so this cuts
    the per-pass compute 2-4× with bit-identical results."""

    units: tuple[tuple[str, tuple[int, ...]], ...]
    n_raw: int

    @property
    def n_turns(self):
        """``shard.n_turns.remote()`` -> ObjectRef of the shard's row count
        (from parquet metadata; the call shape ``perfbench/spans.py``
        uses)."""
        return types.SimpleNamespace(
            remote=functools.partial(ray.put, self.n_raw))


def _read(shard: EMShard, columns: list[str]) -> pa.Table:
    return pa.concat_tables(
        [pq.ParquetFile(f).read_row_groups(list(rgs), columns=columns)
         for f, rgs in shard.units])


def _deduped(shard: EMShard):
    """(rows, weights) of the shard's observations: weights None when
    nothing repeats."""
    batch = _read(shard, _OBS_COLS)
    fp = batch.column("obs_fp").to_numpy(zero_copy_only=False)
    rows = ObsRows(batch)
    uniq_idx, counts = _dedup_rows(fp, rows)
    if len(uniq_idx) < len(rows):
        return rows.take(uniq_idx), counts.astype(np.float64)
    return rows, None


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
    rows, weights = _deduped(shard)
    n = len(rows)
    if n == 0:
        return init_counts, trans_counts, obs_counts
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
def _estep_partial(shard: EMShard, params) -> SuffStats:
    """One E-step over the shard -> sufficient-statistic partial
    (dedup-weighted): one ``hmm.accumulate_block`` call.

    The block kernel's working set is bounded by its tile, not the shard:
    forward-backward runs over tiles of at most ``hmm.TILE_TOKENS`` tokens
    (about 1.6 MB of (T, B, 77) arrays), and the emission statistics
    collapse onto the shard's few hundred observation patterns.  An
    earlier batched kernel that streamed whole (shard, Tmax, 77) tensors
    through DRAM saturated the memory bus with 32 shards and ran ~3×
    slower end-to-end (37 s vs 11 s per pass at sf0.1/32 cpus)."""
    stats = SuffStats()
    defer_o = np.zeros(hmm.N_STATES)
    emis_buf = hmm.EmisStatsBuffer()
    rows, weights = _deduped(shard)
    c = rows.cols
    hmm.accumulate_block(params, rows.n_tokens, rows.offsets, c["o_t"],
                         c["o_s"], c["o_state"], c["o_conf"], stats,
                         weights, defer_o=defer_o, emis_buf=emis_buf)
    emis_buf.apply(stats)
    stats.obs[params.keep, :, 0] += defer_o[None, :]
    return stats


@ray.remote
def _lm_estep_partial(shard: EMShard, params) -> labelmodel.LMStats:
    """One label-model E-step over the shard's candidate spans."""
    batch = _read(shard, ["v_s", "v_o"])
    stats = labelmodel.LMStats()
    labelmodel.accumulate_flat(params, batch.num_rows,
                               *labelmodel.flat_votes(batch), stats)
    return stats


def pattern_cost(pf: pq.ParquetFile, rg: int) -> int:
    """E-step cost of one obs row group: the sum of token counts over
    FIRST occurrences of each observation pattern (the recursion is
    O(tokens·77²) and duplicate turns cost ~nothing after dedup).  It
    reads only the two tiny metadata columns."""
    t = pf.read_row_group(rg, columns=["n_tokens", "obs_fp"])
    nt = np.asarray(t.column("n_tokens"))
    fp = np.asarray(t.column("obs_fp"))
    _, first = np.unique(fp, return_index=True)
    return int(nt[first].sum()) + len(nt) // 8 + 1


def footer_rows(pf: pq.ParquetFile, rg: int) -> int:
    """Cost of a row group whose rows cost alike: its footer row count."""
    return pf.metadata.row_group(rg).num_rows


@ray.remote
def _unit_costs(f: str, cost):
    """Per-row-group ``(rg, cost, rows, bytes)`` of one file; rows and
    uncompressed bytes come from the parquet footer."""
    pf = pq.ParquetFile(f)
    out = []
    for rg in range(pf.metadata.num_row_groups):
        md = pf.metadata.row_group(rg)
        out.append((rg, cost(pf, rg), md.num_rows, md.total_byte_size))
    return f, out


def make_shards(obs_files: list[str], n_shards: int,
                cost=pattern_cost) -> list[EMShard]:
    """Cost-balanced CONTIGUOUS row-group assignment -> shard specs.

    Each shard gets a contiguous run of the (file, row-group) order; the
    HMM's formulaic turns repeat often enough that per-shard dedup catches
    nearly all duplicates (fp-sorting the obs table first changed 2-pass EM
    time by <1%).  The packing balances each row group's E-step
    ``cost(parquet_file, row_group)`` from a parallel pre-pass
    (:func:`pattern_cost` or :func:`footer_rows`), because the wall time is
    the max shard, not the mean.  A shard is closed early when the next
    row group would take its footer bytes over ``SHARD_MAX_BYTES``, so the
    shard count rises until every shard fits (a row group over the budget
    alone is a shard of its own)."""
    files = sorted(obs_files)
    if not files:
        return []
    costed = dict(ray.get([_unit_costs.remote(f, cost) for f in files]))
    units = [(f, *rg) for f in files for rg in costed[f]]
    n_shards = max(1, min(n_shards, len(units)))
    total = sum(u[2] for u in units)
    groups, sizes = [], []       # per shard: {file: [rg]}, [rows, bytes]
    acc, slot = 0, None
    for f, rg, unit_cost, n_rows, n_bytes in units:
        i = min(n_shards - 1,
                (acc + unit_cost // 2) * n_shards // max(total, 1))
        acc += unit_cost
        if i != slot or sizes[-1][1] + n_bytes > SHARD_MAX_BYTES:
            slot = i
            groups.append({})
            sizes.append([0, 0])
        groups[-1].setdefault(f, []).append(rg)
        sizes[-1][0] += n_rows
        sizes[-1][1] += n_bytes
    return [EMShard(tuple((f, tuple(rgs)) for f, rgs in g.items()), n_rows)
            for g, (n_rows, _) in zip(groups, sizes)]


def _per_shard(task, shards: list[EMShard], *args) -> list:
    """``task(shard, *args)`` on every shard, the arguments put in the
    object store once; the results in shard order."""
    refs = [ray.put(a) for a in args]
    return ray.get([task.remote(s, *refs) for s in shards])


def _merged(task, shards: list[EMShard], params, total):
    """One E-step pass: one ``task`` per shard, partials merged into
    ``total`` in shard order."""
    for part in _per_shard(task, shards, params):
        total.merge(part)
    return total


def shard_init_counts(shards: list[EMShard]):
    """Prior-count partials of every shard, summed in shard order."""
    S, K = hmm.N_SOURCES, hmm.N_STATES
    init = np.zeros(K)
    trans = np.zeros((K, K))
    obs = np.zeros((S, K))
    for i, t, o in _per_shard(_init_partial, shards):
        init += i
        trans += t
        obs += o
    return init, trans, obs


def shard_estep(shards: list[EMShard], params) -> SuffStats:
    """One HMM E-step pass."""
    return _merged(_estep_partial, shards, params, SuffStats())


def label_model_estep(shards: list[EMShard], params) -> labelmodel.LMStats:
    """One label-model E-step pass over ``snorkel_spans`` shards."""
    return _merged(_lm_estep_partial, shards, params, labelmodel.LMStats())
