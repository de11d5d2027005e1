"""Pinned-graph Pregel for the iterative graph ops, on stateless Ray tasks.

``pagerank`` / ``bfs_hops`` / ``dedup_clusters`` iterate until done, which
the Dataset API cannot express, and a dataset-groupby formulation
re-shuffles the whole edge table every iteration.  So the graph is
partitioned ONCE: :func:`partitions` runs one task per shard that builds
the immutable CSR :class:`Partition` of the edges whose src hashes to it,
and the caller holds the partition refs.  Every iteration is then one
task per shard that takes (partition, state array, incoming messages) and
returns the new state plus one message per target shard, pre-combined per
destination node.  Messages travel between tasks as object refs, routed
point-to-point, and are never fetched; only a small stats vector (message
rows per target shard) is, so the loop can skip empty messages and test
the fixpoint.

Nothing is mutated in place and no task holds state between iterations, so
the graph ops start no actor process, and a worker lost mid-iteration only
costs Ray's retry of that task: it re-runs on the same immutable inputs.

Partitioning: an undirected edge (u, v) is stored twice, (u→v) in shard(u)
and (v→u) in shard(v), so each shard owns the degree and the state of
exactly its src nodes and can both scatter and gather locally.  Pagerank's
per-destination sums and the BFS / components per-destination mins are
order-free merges, so the outputs are bit-identical for any shard count
and any retry; per-iteration exchange is bounded by unique destination
nodes per shard pair, never by edges.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _min_by_key(k: np.ndarray, v: np.ndarray):
    """(unique keys in ascending order, min value per key)."""
    order = np.lexsort((v, k))
    k, v = k[order], v[order]
    first = np.ones(len(k), bool)
    first[1:] = k[1:] != k[:-1]
    return k[first], v[first]


@dataclass(frozen=True)
class Partition:
    """The edges of one shard as CSR over its sorted src ``nodes``, plus
    per target shard the routing for pagerank's per-destination sums:
    (edge indices sorted by dst, segment starts, unique dsts)."""

    nodes: np.ndarray
    deg: np.ndarray
    indptr: np.ndarray
    dst: np.ndarray
    edge_seg: np.ndarray
    route: tuple


@ray.remote
def _partition(shard_id: int, n_shards: int, *blocks: pa.Table) -> Partition:
    srcs, dsts = [], []
    for t in blocks:
        # groupby/aggregate stages can emit SCHEMA-LESS empty blocks
        # (zero rows, zero columns) — skip them
        if t.num_rows == 0 or "key" not in t.schema.names:
            continue
        src = t.column("key").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = t.column("dst").to_numpy(zero_copy_only=False).astype(np.int64)
        m = shard_key(src, n_shards) == shard_id
        srcs.append(src[m])
        dsts.append(dst[m])
    src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
    dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    nodes, deg = np.unique(src, return_counts=True)
    dst_shard = shard_key(dst, n_shards)
    route = []
    for t in range(n_shards):
        idx = np.flatnonzero(dst_shard == t)
        idx = idx[np.argsort(dst[idx], kind="stable")]
        d = dst[idx]
        starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1]))) \
            if len(d) else np.empty(0, np.int64)
        route.append((idx, starts, d[starts]))
    return Partition(
        nodes=nodes, deg=deg.astype(np.int64),
        indptr=np.concatenate(([0], np.cumsum(deg))).astype(np.int64),
        dst=dst, edge_seg=np.repeat(np.arange(len(nodes), dtype=np.int64),
                                    deg),
        route=tuple(route))


def partitions(edges, n_shards: int) -> list:
    """Refs of the ``n_shards`` partitions of a materialised (key, dst)
    edge dataset that holds both directions of every undirected edge."""
    blocks = edges.to_arrow_refs()
    return [_partition.remote(i, n_shards, *blocks) for i in range(n_shards)]


@ray.remote
def _table(part: Partition, state: np.ndarray, names: tuple) -> pa.Table:
    """(node, state) of the shard's nodes with a finite state."""
    keep = state < _BIG
    return pa.table({names[0]: pa.array(part.nodes[keep], pa.int64()),
                     names[1]: pa.array(state[keep], pa.int64())})


def collect(parts: list, states: list, names: tuple) -> list:
    """Arrow table refs of every shard's (node, state) rows."""
    return [_table.remote(p, s, names) for p, s in zip(parts, states)]


# -- pagerank: scatter + gather per shard per iteration -----------------

@ray.remote
def _pr_scatter(part: Partition, r):
    """Per-edge integer contributions of the ranks ``r`` (None: the
    uniform start), pre-summed per destination node and split per
    target shard: n_shards (dst, sum) messages and the stats vector."""
    if r is None:
        r = np.full(len(part.nodes), 1_000_000, np.int64)
    contrib = (r[part.edge_seg] * np.int64(850_000)) \
        // (part.deg[part.edge_seg] * np.int64(1_000_000))
    outs = [(ud, np.add.reduceat(contrib[idx], starts) if len(idx)
             else np.empty(0, np.int64))
            for idx, starts, ud in part.route]
    return (*outs, np.array([len(ud) for ud, _ in outs], np.int64))


@ray.remote
def _pr_gather(part: Partition, *msgs) -> np.ndarray:
    acc = np.zeros(len(part.nodes), np.int64)
    for ud, sums in msgs:
        # destinations are unique within one message, so a fancy-index
        # add is exact (no np.add.at needed)
        acc[np.searchsorted(part.nodes, ud)] += sums
    return np.int64(150_000) + acc


def pagerank(parts: list, iters: int):
    """(rank refs per shard, message rows exchanged) after ``iters``
    scatter/gather iterations.  The whole task graph is submitted at
    once: Ray runs each gather when its messages exist, and only the
    stats vectors are fetched, at the end."""
    n = len(parts)
    ranks, stats = [None] * n, []
    for _ in range(iters):
        outs = [_pr_scatter.options(num_returns=n + 1).remote(p, r)
                for p, r in zip(parts, ranks)]
        stats += [o[n] for o in outs]
        ranks = [_pr_gather.remote(parts[j], *(o[j] for o in outs))
                 for j in range(n)]
    return ranks, int(sum(s.sum() for s in ray.get(stats)))


# -- BFS and connected components: one min-propagation kernel -----------

@ray.remote
def _min_step(part: Partition, lbl, hop: int, own_labels: bool, *msgs):
    """One synchronous round on one shard.  Round 0 (``lbl`` None) sets
    the initial labels, each node's own id (``own_labels``, components)
    or ``_BIG`` (BFS, whose source arrives as a message), and floods
    every finite one.  Later rounds lower each messaged node's label to
    the min it received, and only nodes whose label dropped flood.  A
    flooding node sends ``label + hop`` along its local edges, min-
    combined per destination and split per target shard.  Returns the
    labels, n_shards (dst, label) messages and the stats vector."""
    if lbl is None:
        lbl = part.nodes.copy() if own_labels \
            else np.full(len(part.nodes), _BIG, np.int64)
        pos = np.flatnonzero(lbl < _BIG)
    else:
        lbl = lbl.copy()
        pos = np.empty(0, np.int64)
        if msgs:
            cn, cl = _min_by_key(np.concatenate([m[0] for m in msgs]),
                                 np.concatenate([m[1] for m in msgs]))
            p = np.searchsorted(part.nodes, cn)
            better = cl < lbl[p]
            pos = p[better]
            lbl[pos] = cl[better]
    # vectorised ragged gather of the flooding nodes' edges
    counts = part.deg[pos]
    offsets = np.cumsum(counts) - counts
    eidx = np.repeat(part.indptr[pos] - offsets, counts) \
        + np.arange(int(counts.sum()), dtype=np.int64)
    md, ml = _min_by_key(part.dst[eidx], np.repeat(lbl[pos] + hop, counts))
    n = len(part.route)                  # one route per target shard
    ms = shard_key(md, n)
    outs = [(md[ms == t], ml[ms == t]) for t in range(n)]
    return (lbl, *outs, np.array([len(d) for d, _ in outs], np.int64))


def min_propagate(parts: list, hop: int, source, max_iters: int,
                  what: str):
    """(label refs per shard, message rows exchanged) of min-label
    propagation to its fixpoint, "no message pending": hop 1 from the
    single ``source`` node gives BFS hop counts, hop 0 from every node's
    own id (``source`` None) gives connected components labelled by
    their smallest node.  Only shards with pending messages run a round,
    so compute and exchange follow the moving frontier.  Round 0 sets
    the initial labels and is not counted against ``max_iters``; the
    BFS source is delivered in round 1.  Labels still changing after
    ``max_iters`` rounds are wrong, so that raises instead."""
    n = len(parts)
    lbls = [None] * n
    todo = {j: [] for j in range(n)}
    seeds = {} if source is None else {
        int(shard_key(np.array([source]), n)[0]):
            [(np.array([source], np.int64), np.array([0], np.int64))]}
    rounds, rows = -1, 0
    while todo:
        if rounds >= max_iters:
            raise RuntimeError(
                f"{what}: labels still changing after {max_iters} "
                f"iterations; the graph has a component of diameter > "
                f"{max_iters} — rerun with a higher max_iters")
        rounds += 1
        res = {j: _min_step.options(num_returns=n + 2).remote(
                   parts[j], lbls[j], hop, source is None, *msgs)
               for j, msgs in todo.items()}
        todo = seeds if rounds == 0 else {}
        for (j, r), st in zip(res.items(),
                              ray.get([r[n + 1] for r in res.values()])):
            lbls[j] = r[0]
            rows += int(st.sum())
            for t in np.flatnonzero(st):
                todo.setdefault(int(t), []).append(r[1 + t])
    return lbls, rows
