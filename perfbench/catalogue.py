"""The driver-query catalogue block of the traced runs.

Sixteen ``__ray_entry__.queries()`` entries run once each, in a fresh Ray
session whose per-process memos are still empty, over the sf0.01 tables
copied into ``perfbench/data/sf0.01``.  Each result is checked against the
hash of its DuckDB ``oracle_sql()`` result, pinned in ``oracle_hashes.json``
because two of the oracles (``dedup_minhash``, ``dedup_clusters``) take
minutes in DuckDB.  Re-pin after a deliberate change to a query or its
oracle with::

    python3 perfbench/catalogue.py --pin
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SF_DIR = os.path.join(HERE, "data", "sf0.01")
PINNED = os.path.join(HERE, "oracle_hashes.json")
TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]
QUERIES = ["pricing_summary", "sessionize", "asof_join", "topk_by_group",
           "token_count", "exact_dedup", "anti_join", "tfidf_topk",
           "knn_bruteforce", "ann_lsh_query", "pagerank", "dedup_minhash",
           "dedup_clusters", "cooccur_pmi", "customer_ltv", "bm25_topk"]
# per-process memos of pipelines.ops that would let a query skip its work
MEMOS = ["_CLUSTERS_CACHE", "_KMEANS_CACHE", "_GRAPH_SHARDS_CACHE",
         "_LM_SCORE_CACHE"]
# a query faster than this is reported: it may be reading a memo
FAST_S = 0.1


def entry_module():
    spec = importlib.util.spec_from_file_location(
        "__ray_entry__", os.path.join(ROOT, "__ray_entry__.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def frame_hash(df) -> str:
    """Hash of a result frame as the driver compares it: columns by name,
    rows sorted, values with their dtypes."""
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    h = hashlib.sha256()
    for c in df.columns:
        h.update(f"{c}:{df[c].dtype}".encode("utf-8"))
        h.update(repr(df[c].tolist()).encode("utf-8"))
    return h.hexdigest()[:16]


def to_pandas(result):
    import pyarrow as pa
    import ray
    import ray.data
    if isinstance(result, ray.data.Dataset):
        tables = [t for t in ray.get(result.to_arrow_refs()) if t.num_rows]
        result = pa.concat_tables(tables) if tables else pa.table({})
    if isinstance(result, pa.Table):
        result = result.to_pandas()
    return result


def run_catalogue(log) -> tuple[dict[str, float], list[str]]:
    """(seconds per query, queries whose result differs from the oracle)
    for one pass with cold memos."""
    import ray.data as rd

    from weak_supervision_for_ner_ray.pipelines import ops

    warm = [m for m in MEMOS if getattr(ops, m)]
    if warm:
        raise RuntimeError(f"ops memos are not cold: {warm}")

    def load(batch):
        import weak_supervision_for_ner_ray.pipelines.ops  # noqa: F401
        return batch

    # import the 8k-line ops module in the workers before the first timing
    rd.range(4).map_batches(load).materialize()
    with open(PINNED) as fd:
        pinned = json.load(fd)
    queries = entry_module().queries()
    secs, wrong = {}, []
    for name in QUERIES:
        t0 = time.perf_counter()
        got = to_pandas(queries[name](SF_DIR))
        secs[name] = time.perf_counter() - t0
        if frame_hash(got) != pinned[name]:
            wrong.append(name)
        if secs[name] < FAST_S:
            log(f"note: {name} took {secs[name] * 1e3:.0f} ms, under "
                f"{FAST_S * 1e3:.0f} ms: check it is not a memo hit")
    return secs, wrong


def pin() -> None:
    """Recompute the pinned oracle hashes with DuckDB and check that the
    engine agrees with each."""
    import duckdb

    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    from run import start_ray

    mod = entry_module()
    # the transcript oracles are not used here; keep oracle_sql() from
    # materialising a corpus outside the checkout
    mod._corpus = lambda sf_dir: SF_DIR
    oracles = mod.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{SF_DIR}/{t}.parquet')")
    hashes = {q: frame_hash(con.execute(oracles[q]).fetchdf())
              for q in QUERIES}
    start_ray()
    queries = mod.queries()
    for q in QUERIES:
        got = frame_hash(to_pandas(queries[q](SF_DIR)))
        print(q, hashes[q], "engine agrees" if got == hashes[q]
              else f"ENGINE DIFFERS ({got})", flush=True)
    import ray
    ray.shutdown()
    with open(PINNED, "w") as fd:
        json.dump(hashes, fd, indent=2)
        fd.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        sys.exit(__doc__)
    pin()
