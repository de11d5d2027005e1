"""Pinned-graph shard actors for the iterative graph ops.

``pagerank`` / ``bfs_hops`` previously re-unioned the materialised edge
table with the state rows and pushed BOTH through a coarse groupby every
iteration — O(E) exchange per iteration regardless of frontier size.
Real Pregel pins the graph: each :class:`GraphShard` actor builds the
CSR partition of edges whose src hashes to it ONCE in ``__init__`` (the
Dataset API cannot express iterate-until-converged), and
every iteration exchanges only ``(node, value)`` int64 message arrays,
routed point-to-point with per-target ``num_returns`` so a message
never transits the driver.

Partitioning assumption: an undirected edge (u, v) is stored twice —
(u→v) in shard(u) and (v→u) in shard(v) — so each shard owns the degree
and rank/distance state of exactly its src nodes and can both scatter
and gather locally.  Messages are pre-combined per target inside the
producing shard (sums for pagerank, min for BFS), so per-iteration
exchange is bounded by unique destination NODES per shard pair, never
by edges.  On a multi-node cluster the ``__init__`` load step becomes a
per-shard read of hash-partitioned edge parquet; in this single-node
build the shards filter the shared-memory object-store blocks, which is
zero-copy locally.

Determinism/parity: pagerank's int64 contribution formula is evaluated
per edge exactly as the dataset version did, and int64 addition is
associative+commutative, so results are bit-identical for ANY shard
count; BFS is synchronous rounds, so hop counts are first-arrival
identical too (the shard count is a performance knob, not a semantic
one — the same property the north rule's two-cluster-size run checks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

_SHARD_MULT = np.int64(-5840926901009431451)
_BIG = np.iinfo(np.int64).max


def shard_key(x: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard id for int64 node ids (wrapping int64
    multiply is C semantics — stable across workers and runs)."""
    with np.errstate(over="ignore"):
        h = x.astype(np.int64) * _SHARD_MULT
    return np.abs(h >> np.int64(13)) % np.int64(n_shards)


@ray.remote
class GraphShard:
    """One pinned partition of the undirected graph + the iteration
    state of its src nodes.  Edge arrays and the per-target routing
    indices are built once; per-iteration methods touch only state and
    message arrays."""

    def __init__(self, block_refs: list, shard_id: int, n_shards: int):
        self.sid = shard_id
        self.n = n_shards
        srcs, dsts = [], []
        for ref in block_refs:
            t = ray.get(ref)
            # groupby/aggregate stages can emit SCHEMA-LESS empty
            # blocks (zero rows, zero columns) — skip them
            if t.num_rows == 0 or "key" not in t.schema.names:
                continue
            src = t.column("key").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            dst = t.column("dst").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            m = shard_key(src, n_shards) == shard_id
            srcs.append(src[m])
            dsts.append(dst[m])
        src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
        dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
        order = np.argsort(src, kind="stable")
        src, self.dst = src[order], dst[order]
        self.nodes, counts = np.unique(src, return_counts=True)
        self.deg = counts.astype(np.int64)
        self.indptr = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        self.edge_seg = np.repeat(
            np.arange(len(self.nodes), dtype=np.int64), counts)
        # per-target routing, computed once: edge indices sorted by dst,
        # plus the segment starts + unique dsts for reduceat combines
        dst_shard = shard_key(self.dst, n_shards)
        self.route = []
        for t in range(n_shards):
            idx = np.flatnonzero(dst_shard == t)
            idx = idx[np.argsort(self.dst[idx], kind="stable")]
            d = self.dst[idx]
            if len(d):
                starts = np.flatnonzero(np.concatenate(
                    ([True], d[1:] != d[:-1])))
                ud = d[starts]
            else:
                starts = np.empty(0, np.int64)
                ud = np.empty(0, np.int64)
            self.route.append((idx, starts, ud))
        self.msg_rows = 0                       # exchange accounting
        self.r = None
        self.dist = None

    def ready(self) -> int:
        return len(self.nodes)

    def exchange_rows(self) -> int:
        """Total (node, value) message pairs this shard has emitted."""
        return self.msg_rows

    # -- pagerank -----------------------------------------------------

    def pr_init(self):
        self.r = np.full(len(self.nodes), 1_000_000, np.int64)
        self.msg_rows = 0

    def pr_scatter(self):
        """Per-edge integer contributions, pre-summed per destination
        node and partitioned per target shard — returns n_shards
        (dst, sum) pairs (used with ``num_returns=n_shards``)."""
        contrib = (self.r[self.edge_seg] * np.int64(850_000)) \
            // (self.deg[self.edge_seg] * np.int64(1_000_000))
        outs = []
        for idx, starts, ud in self.route:
            sums = (np.add.reduceat(contrib[idx], starts)
                    if len(idx) else np.empty(0, np.int64))
            self.msg_rows += len(ud)
            outs.append((ud, sums))
        return tuple(outs) if self.n > 1 else outs[0]

    def pr_gather(self, *msgs):
        acc = np.zeros(len(self.nodes), np.int64)
        for ud, sums in msgs:
            if len(ud):
                # destinations are unique within one message, so a
                # fancy-index add is exact (no np.add.at needed)
                acc[np.searchsorted(self.nodes, ud)] += sums
        self.r = np.int64(150_000) + acc

    def pr_collect(self) -> pa.Table:
        return pa.table({"key": pa.array(self.nodes, pa.int64()),
                         "r": pa.array(self.r, pa.int64())})

    # -- BFS ----------------------------------------------------------

    def bfs_init(self):
        self.dist = np.full(len(self.nodes), _BIG, np.int64)
        self.msg_rows = 0

    def bfs_flood(self, *msgs):
        """Apply arriving (node, d) messages; newly settled nodes flood
        d+1 along their local edges.  Returns n_shards (dst, d) message
        pairs plus a small stats array [n_new, cnt_t0, ...] so the
        driver can route only NON-EMPTY messages and test the fixpoint
        without touching payloads (used with num_returns=n_shards+1)."""
        if msgs:
            cn = np.concatenate([m[0] for m in msgs])
            cd = np.concatenate([m[1] for m in msgs])
        else:
            cn = np.empty(0, np.int64)
            cd = np.empty(0, np.int64)
        new_nodes = np.empty(0, np.int64)
        new_d = np.empty(0, np.int64)
        if len(cn):
            # min per candidate node first (messages from several
            # producers can target the same node in one round)
            order = np.lexsort((cd, cn))
            cn, cd = cn[order], cd[order]
            first = np.concatenate(([True], cn[1:] != cn[:-1]))
            cn, cd = cn[first], cd[first]
            pos = np.searchsorted(self.nodes, cn)
            better = cd < self.dist[pos]
            new_nodes, new_d, pos = cn[better], cd[better], pos[better]
            self.dist[pos] = new_d
        outs = []
        stats = np.zeros(self.n + 1, np.int64)
        stats[0] = len(new_nodes)
        if len(new_nodes):
            counts = self.deg[pos]
            starts = self.indptr[pos]
            total = int(counts.sum())
            # vectorised ragged gather of the newly-settled nodes' edges
            base = np.repeat(starts, counts)
            within = np.arange(total, dtype=np.int64) \
                - np.repeat(np.cumsum(counts) - counts, counts)
            eidx = base + within
            md = self.dst[eidx]
            mr = np.repeat(new_d + 1, counts)
            ms = shard_key(md, self.n)
            for t in range(self.n):
                m = ms == t
                d_t, r_t = md[m], mr[m]
                if len(d_t):
                    o2 = np.lexsort((r_t, d_t))
                    d_t, r_t = d_t[o2], r_t[o2]
                    keep = np.concatenate(([True], d_t[1:] != d_t[:-1]))
                    d_t, r_t = d_t[keep], r_t[keep]
                self.msg_rows += len(d_t)
                stats[1 + t] = len(d_t)
                outs.append((d_t, r_t))
        else:
            outs = [(np.empty(0, np.int64), np.empty(0, np.int64))
                    for _ in range(self.n)]
        return (*outs, stats)

    def bfs_collect(self) -> pa.Table:
        m = self.dist < _BIG
        return pa.table({"node": pa.array(self.nodes[m], pa.int64()),
                         "hops": pa.array(self.dist[m], pa.int64())})

    # -- connected components (min-label propagation) -------------------

    def _emit(self, pos: np.ndarray, lab: np.ndarray):
        """Flood ``lab[i]`` along the local edges of node position
        ``pos[i]``; messages pre-combined (min per destination) and
        partitioned per target shard.  Returns n_shards (dst, lbl)
        pairs + the stats vector [n_changed, cnt_t0, ...]."""
        stats = np.zeros(self.n + 1, np.int64)
        stats[0] = len(pos)
        if not len(pos):
            return (*[(np.empty(0, np.int64), np.empty(0, np.int64))
                      for _ in range(self.n)], stats)
        counts = self.deg[pos]
        starts = self.indptr[pos]
        total = int(counts.sum())
        base = np.repeat(starts, counts)
        within = np.arange(total, dtype=np.int64) \
            - np.repeat(np.cumsum(counts) - counts, counts)
        eidx = base + within
        md = self.dst[eidx]
        ml = np.repeat(lab, counts)
        ms = shard_key(md, self.n)
        outs = []
        for t in range(self.n):
            m = ms == t
            d_t, l_t = md[m], ml[m]
            if len(d_t):
                o2 = np.lexsort((l_t, d_t))
                d_t, l_t = d_t[o2], l_t[o2]
                keep = np.concatenate(([True], d_t[1:] != d_t[:-1]))
                d_t, l_t = d_t[keep], l_t[keep]
            self.msg_rows += len(d_t)
            stats[1 + t] = len(d_t)
            outs.append((d_t, l_t))
        return (*outs, stats)

    def cc_init(self):
        """Seed every owned node with its own id as label and flood it
        once (round 0) — used with num_returns=n_shards+1."""
        self.lbl = self.nodes.copy()
        self.msg_rows = 0
        return self._emit(
            np.arange(len(self.nodes), dtype=np.int64), self.lbl)

    def cc_flood(self, *msgs):
        """Apply arriving (node, lbl) messages; labels are monotone
        decreasing, and only nodes whose label DECREASED re-flood."""
        if msgs:
            cn = np.concatenate([m[0] for m in msgs])
            cl = np.concatenate([m[1] for m in msgs])
        else:
            cn = np.empty(0, np.int64)
            cl = np.empty(0, np.int64)
        if len(cn):
            order = np.lexsort((cl, cn))
            cn, cl = cn[order], cl[order]
            first = np.concatenate(([True], cn[1:] != cn[:-1]))
            cn, cl = cn[first], cl[first]
            pos = np.searchsorted(self.nodes, cn)
            better = cl < self.lbl[pos]
            pos, lab = pos[better], cl[better]
            self.lbl[pos] = lab
        else:
            pos = np.empty(0, np.int64)
            lab = np.empty(0, np.int64)
        return self._emit(pos, lab)

    def cc_collect(self) -> pa.Table:
        return pa.table({"doc_id": pa.array(self.nodes, pa.int64()),
                         "cluster_id": pa.array(self.lbl, pa.int64())})
