"""The iterative graph ops on stateless tasks: outputs independent of the
shard count, the ``max_iters`` bound, no actors, and lost workers."""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray
import ray.data as rd

from weak_supervision_for_ner_ray.pipelines import ops
from weak_supervision_for_ner_ray.stages import graph


def _tables(refs, key):
    t = pa.concat_tables(ray.get(refs))
    return t.take(np.argsort(t.column(key).to_numpy()))


def _write_lineitem(d, edges):
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "l_suppkey": pa.array([e[0] for e in edges], pa.int64()),
        "l_partkey": pa.array([e[1] for e in edges], pa.int64()),
    }), os.path.join(d, "lineitem.parquet"), row_group_size=8)
    return str(d)


def _write_documents(d, texts):
    os.makedirs(d, exist_ok=True)
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    }), os.path.join(d, "documents.parquet"))
    return str(d)


def _chain_texts(n):
    """Sliding 12-word windows, 3 words apart: MinHash-LSH links each
    document to its neighbour, so the duplicate graph is a long chain."""
    words = [f"w{k}x" for k in range(3 * n + 12)]
    return [" ".join(words[3 * i:3 * i + 12]) for i in range(n)]


@pytest.fixture(scope="module")
def graph_dir(tmp_path_factory):
    """A hub part, butterflies, a chain, two isolated pairs and a third
    component, with duplicated lineitem rows."""
    edges = [(1, 100)] * 7 + [(2, 100)] * 3 + [(3, 100)]
    edges += [(1, 101), (2, 101), (1, 102), (2, 102)]
    for i in range(10):
        edges += [(10 + i, 200 + i), (11 + i, 200 + i)]
    edges += [(50, 300), (60, 400), (61, 400), (60, 401), (62, 402)]
    return _write_lineitem(tmp_path_factory.mktemp("graph"), edges)


def test_outputs_identical_across_shard_counts(ray_session, graph_dir):
    """Pagerank, BFS and components give the same tables for 2, 3 and 5
    shards: every message merge is an order-free sum or min."""
    edges = ops._bipartite_edges(graph_dir, 8)
    results = []
    for n in (2, 3, 5):
        parts = graph.partitions(edges, n)
        ranks, _ = graph.pagerank(parts, 3)
        hops, _ = graph.min_propagate(parts, 1, 1, 64, "bfs")
        comps, _ = graph.min_propagate(parts, 0, None, 64, "components")
        results.append([
            _tables(graph.collect(parts, ranks, ("key", "r")), "key"),
            _tables(graph.collect(parts, hops, ("node", "hops")), "node"),
            _tables(graph.collect(parts, comps, ("doc_id", "cluster_id")),
                    "doc_id")])
    assert results[0][0].num_rows == results[0][2].num_rows == 35
    assert set(results[0][2].column("cluster_id").to_pylist()) == \
        {1, 10, 50, 60, 62}
    for other in results[1:]:
        for want, got in zip(results[0], other):
            assert got.equals(want)


def test_max_iters_bound_on_a_chain(ray_session, tmp_path):
    """On chain fixtures, ``max_iters`` one below the smallest converging
    value raises and that value succeeds: 14 for BFS along a 13-node
    path, 22 for the components of a 24-document near-duplicate chain."""
    lineitem = _write_lineitem(
        tmp_path / "chain", [e for i in range(6)
                             for e in ((i + 1, i), (i + 2, i))])
    with pytest.raises(RuntimeError, match="max_iters"):
        ops.bfs_hops(lineitem, max_iters=13)
    hops = ops.bfs_hops(lineitem, max_iters=14).to_pandas()
    assert hops["hops"].max() == 12 and len(hops) == 13

    docs = _write_documents(tmp_path / "docs", _chain_texts(24))
    with pytest.raises(RuntimeError, match="max_iters"):
        ops.dedup_clusters(docs, max_iters=21)
    clusters = ops.dedup_clusters(docs, max_iters=22).to_pandas()
    assert clusters["doc_id"].tolist() == list(range(24))
    assert set(clusters["cluster_id"]) == {0}


def test_graph_ops_start_no_actor(ray_session, graph_dir, tmp_path):
    """pagerank, bfs_hops and dedup_clusters leave the cluster's actor
    table as they found it."""
    from ray._private import state

    docs = _write_documents(tmp_path, _chain_texts(6) * 2)
    rd.range(4).map_batches(lambda b: b).materialize()   # Ray Data's own
    before = set(state.actors())
    ops.pagerank(graph_dir).materialize()
    ops.bfs_hops(graph_dir).materialize()
    ops.dedup_clusters(docs).materialize()
    assert set(state.actors()) == before


def _session_workers():
    """{pid: title} of this Ray session's worker processes: the raylet's
    children titled ``ray::``."""
    raylet = ray._private.worker.global_worker.node \
        .all_processes["raylet"][0].process.pid
    out = {}
    for d in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{d}/status") as fd:
                ppid = next(int(line.split()[1]) for line in fd
                            if line.startswith("PPid:"))
            with open(f"/proc/{d}/cmdline", "rb") as fd:
                title = fd.read()
        except (OSError, StopIteration):
            continue
        if ppid == raylet and title.startswith(b"ray::"):
            out[int(d)] = title
    return out


def test_graph_ops_survive_losing_their_workers(ray_session, graph_dir):
    """SIGKILL every worker process that can have run the first pagerank's
    graph work (all but those hosting named actors, Ray Data's own): the
    next pagerank and bfs_hops in the session give the first results."""
    from ray._private import state

    want_pr = ops.pagerank(graph_dir).to_pandas()
    want_bfs = ops.bfs_hops(graph_dir).to_pandas()
    keep = {a["Pid"] for a in state.actors().values()
            if a["Name"] and a["State"] == "ALIVE"}
    victims = [p for p in _session_workers() if p not in keep]
    assert victims
    for pid in victims:
        os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while any(os.path.exists(f"/proc/{p}") for p in victims) \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ops.pagerank(graph_dir).to_pandas().equals(want_pr)
    assert ops.bfs_hops(graph_dir).to_pandas().equals(want_bfs)


def test_dedup_clusters_survives_worker_loss(ray_session, tmp_path):
    """SIGKILL the worker running a min-propagation step mid-
    ``dedup_clusters``: Ray retries the step on the same immutable
    inputs, and the clusters are identical to an uninterrupted run."""
    docs = _write_documents(tmp_path, _chain_texts(48))
    want = ops.dedup_clusters(docs).to_pandas()
    ops._CLUSTERS_CACHE.clear()

    title = b"ray::_min_step"       # a worker's title while it runs it
    with ThreadPoolExecutor(1) as pool:
        run = pool.submit(lambda: ops.dedup_clusters(docs).to_pandas())
        pid = None
        deadline = time.monotonic() + 120
        while pid is None and not run.done() and time.monotonic() < deadline:
            pid = next((p for p, t in _session_workers().items()
                        if t.startswith(title)), None)
        assert pid is not None, "no running graph step found to kill"
        os.kill(pid, signal.SIGKILL)
        got = run.result(timeout=300)
    assert not os.path.exists(f"/proc/{pid}")
    assert got.equals(want)
    assert set(want["cluster_id"]) == {0} and len(want) == 48
