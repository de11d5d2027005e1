#!/usr/bin/env python
"""Benchmark harness.

Default: runs the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` and prints ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N}

``--scaling``: runs the headline KG pipeline twice in fresh processes
(num_cpus=8 then num_cpus=32) on the same input and reports throughput at
both plus scaling efficiency = (t_8 / t_32) / (32 / 8).
"""

import json
import logging
import os
import shutil
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)


def _consume(ds):
    """Fully execute a Dataset (or pass through a materialised table)."""
    import pyarrow as pa
    import ray.data
    if isinstance(ds, ray.data.Dataset):
        n = 0
        for batch in ds.iter_batches(batch_size=65536,
                                     batch_format="pyarrow"):
            n += batch.num_rows
        return n
    if isinstance(ds, pa.Table):
        return ds.num_rows
    return len(ds)


def _clear_memos():
    """Empty the per-process memos of ``pipelines.ops`` (the list the
    perfbench catalogue checks is cold), so an op timed after another that
    filled a memo, such as ``unigram_lm_score`` after ``corpus_curate``,
    still does its own work.  Cached GraphShard actors are killed, not
    left running."""
    import ray
    from perfbench.catalogue import MEMOS
    from weak_supervision_for_ner_ray.pipelines import ops
    for shards, _n in ops._GRAPH_SHARDS_CACHE.values():
        for actor in shards:
            ray.kill(actor)
    for name in MEMOS:
        getattr(ops, name).clear()


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    import ray
    # log_to_driver=False + ray.data at ERROR keep stdout/stderr to the
    # ONE JSON line the driver parses (raylet chatter and the benign
    # sort-created empty-range schema notices otherwise interleave)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    from weak_supervision_for_ner_ray.data import corpus_for_sf_dir
    from weak_supervision_for_ner_ray.pipelines import ops
    from weak_supervision_for_ner_ray.pipelines.kg import build_kg

    # corpus generation is one-time and cached; warm the page cache with an
    # untimed read so timings measure compute + shuffle, not first disk read
    corpus_dir = corpus_for_sf_dir(sf_dir)
    import ray.data as rd
    turns_path = os.path.join(corpus_dir, "turns.parquet")
    n_turns = rd.read_parquet(turns_path).count()
    for t in ("lineitem", "documents", "embeddings", "events"):
        rd.read_parquet(os.path.join(sf_dir, f"{t}.parquet")).count()
    _warm_workers(sf_dir)

    timings: dict[str, float] = {}
    counts: dict[str, int] = {}

    def timed(name, fn):
        _clear_memos()
        t0 = time.time()
        counts[name] = _consume(fn())
        timings[name] = round(time.time() - t0, 3)

    # headline: full KG construction on a fresh workdir (no cached stages)
    workdir = f"/tmp/wsner_bench_work/{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir, exist_ok=True)

    def kg():
        from weak_supervision_for_ner_ray.stages.util import target_blocks
        shutil.rmtree(workdir, ignore_errors=True)   # no cached stages
        out = build_kg(rd.read_parquet(turns_path,
                                       override_num_blocks=target_blocks()),
                       workdir, n_iter=2, write=True)
        n = out["triples"].count()
        _consume(out["nodes"])
        _consume(out["edges"])
        return range(n)   # len() -> triple count

    # min of 3 cold runs: this host shows 2x run-to-run windows (noisy
    # neighbours); a single shot can misreport the engine by 2x.  All raw
    # values are published as kg_runs.
    kg_runs = []
    for _ in range(3):
        timed("kg_pipeline", kg)
        kg_runs.append(timings["kg_pipeline"])
    timings["kg_pipeline"] = min(kg_runs)

    # data ops over the provided tables
    timed("pricing_summary", lambda: ops.pricing_summary_exact(sf_dir))
    timed("revenue_by_segment", lambda: ops.revenue_by_segment_exact(sf_dir))
    timed("events_hourly", lambda: ops.events_hourly_exact(sf_dir))
    timed("token_count", lambda: ops.token_count(sf_dir))
    timed("token_count_bpe", lambda: ops.token_count_bpe(sf_dir))
    timed("distinct_token_kmv", lambda: ops.distinct_token_kmv(sf_dir))
    timed("doc_fingerprint_rolling",
          lambda: ops.doc_fingerprint_rolling(sf_dir))
    timed("quality_score", lambda: ops.quality_score_exact(sf_dir))
    timed("lang_id", lambda: ops.lang_id(sf_dir))
    timed("sessionize", lambda: ops.sessionize(sf_dir))
    timed("asof_join", lambda: ops.asof_join(sf_dir))
    timed("range_join", lambda: ops.range_join(sf_dir))
    timed("exact_dedup", lambda: ops.exact_dedup(sf_dir))
    timed("dedup_minhash", lambda: ops.minhash_candidates(sf_dir))
    timed("dedup_ngram_jaccard", lambda: ops.ngram_jaccard_verify(sf_dir))
    timed("dedup_clusters", lambda: ops.dedup_clusters(sf_dir))
    timed("dedup_simhash", lambda: ops.simhash_table(sf_dir))
    timed("dedup_embedding", lambda: ops.dedup_embedding_cosine(sf_dir))
    timed("dedup_embedding_lsh", lambda: ops.dedup_embedding_lsh(sf_dir))
    timed("semantic_dedup", lambda: ops.semantic_dedup(sf_dir))
    timed("dedup_apply", lambda: ops.dedup_apply(sf_dir))
    timed("knn_graph", lambda: ops.knn_graph(sf_dir))
    timed("knn_bruteforce", lambda: ops.knn_bruteforce(sf_dir))
    timed("ann_lsh_query", lambda: ops.ann_lsh_query(sf_dir))
    timed("kmeans_ivf_assign", lambda: ops.kmeans_ivf_assign(sf_dir))
    timed("ivf_query", lambda: ops.ivf_query(sf_dir))
    timed("pq_codes", lambda: ops.pq_codes(sf_dir))
    timed("pq_query", lambda: ops.pq_query(sf_dir))
    timed("ivfpq_query", lambda: ops.ivfpq_query(sf_dir))
    timed("dedup_cdc_chunks", lambda: ops.dedup_cdc_chunks(sf_dir))
    timed("ngram_topk", lambda: ops.ngram_topk(sf_dir))
    timed("tfidf_topk", lambda: ops.tfidf_topk(sf_dir))
    timed("stratified_sample", lambda: ops.stratified_sample(sf_dir))
    timed("anti_join", lambda: ops.anti_join(sf_dir))
    timed("topk_by_group", lambda: ops.topk_by_group(sf_dir))
    timed("percentile_by_group", lambda: ops.percentile_by_group(sf_dir))
    timed("rollup_lang_source", lambda: ops.rollup_lang_source(sf_dir))
    timed("pack_sequences", lambda: ops.pack_sequences(sf_dir))
    timed("train_shards", lambda: ops.train_shards(sf_dir))
    timed("decontaminate", lambda: ops.decontaminate(sf_dir))
    timed("gopher_quality", lambda: ops.gopher_quality(sf_dir))
    timed("repetition_ngrams", lambda: ops.repetition_ngrams(sf_dir))
    timed("corpus_curate", lambda: ops.corpus_curate(sf_dir))
    timed("unigram_lm_score", lambda: ops.unigram_lm_score(sf_dir))
    timed("bm25_topk", lambda: ops.bm25_topk(sf_dir))
    timed("pagerank", lambda: ops.pagerank(sf_dir))
    timed("butterfly_count", lambda: ops.butterfly_count(sf_dir))
    timed("running_total", lambda: ops.running_total(sf_dir))
    timed("dedup_keep_best", lambda: ops.dedup_keep_best(sf_dir))
    timed("chunk_text", lambda: ops.chunk_text(sf_dir))
    timed("bigram_lift", lambda: ops.bigram_lift(sf_dir))
    timed("cooccur_pmi", lambda: ops.cooccur_pmi(sf_dir))
    timed("bpe_pair_counts", lambda: ops.bpe_pair_counts(sf_dir))
    timed("bpe_train", lambda: ops.bpe_train(sf_dir))
    timed("bpe_token_count", lambda: ops.bpe_token_count(sf_dir))
    timed("interarrival_stats", lambda: ops.interarrival_stats(sf_dir))
    timed("histogram_numeric", lambda: ops.histogram_numeric(sf_dir))
    timed("skyline", lambda: ops.skyline(sf_dir))
    timed("snapshot_diff", lambda: ops.snapshot_diff(sf_dir))
    timed("customer_ltv", lambda: ops.customer_ltv(sf_dir))
    timed("funnel_stages", lambda: ops.funnel_stages(sf_dir))
    timed("json_props_extract", lambda: ops.json_props_extract(sf_dir))
    timed("supplier_similarity", lambda: ops.supplier_similarity(sf_dir))
    timed("bfs_hops", lambda: ops.bfs_hops(sf_dir))
    timed("part_fuzzy_match", lambda: ops.part_fuzzy_match(sf_dir))
    timed("hll_distinct", lambda: ops.hll_distinct(sf_dir))
    timed("countmin_sketch", lambda: ops.countmin_sketch(sf_dir))
    timed("containment_pairs", lambda: ops.containment_pairs(sf_dir))
    timed("quantile_global", lambda: ops.quantile_global(sf_dir))
    timed("ccnet_buckets", lambda: ops.ccnet_buckets(sf_dir))
    timed("corpus_stats", lambda: ops.corpus_stats(sf_dir))
    timed("pii_redact",
          lambda: ops.pii_redact(rd.read_parquet(turns_path)))
    timed("conv_flatten",
          lambda: ops.conv_flatten(rd.read_parquet(turns_path)))
    timed("inverted_index", lambda: ops.inverted_index(sf_dir))

    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "metric": "kg_pipeline_sec",
        "value": timings["kg_pipeline"],
        "unit": "sec",
        "queries": timings,
        "kg_runs": kg_runs,
        # Pregel exchange accounting: total (node, value) int64 message
        # pairs the pinned-graph iterations moved (edges load once and
        # never re-shuffle — see stages/graph_actors.py)
        "graph_exchange_rows": dict(ops._LAST_GRAPH_EXCHANGE),
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        "num_cpus": num_cpus,
        "turns": n_turns,
        "turns_per_sec": round(n_turns / timings["kg_pipeline"], 1),
    }
    ray.shutdown()
    return result


def run_scaling(sf_dir: str, repeats: int = 2) -> dict:
    """Same job at two parallelism levels in fresh processes (north rule
    evidence protocol).  Each level runs ``repeats`` times and reports the
    MIN (single-box run-to-run noise is ±30%; min isolates the achievable
    time — the standard practice for noisy benchmarking hosts).

    The CPU pair defaults to (8, 32); override with GRAFT_SCALE_CPUS="2,8"
    for a low-contention control (the 8->32 pair saturates the single
    socket's memory bus)."""
    lo, hi = (int(x) for x in os.environ.get("GRAFT_SCALE_CPUS",
                                             "8,32").split(","))
    out = {}
    runs = {lo: [], hi: []}
    for rep in range(repeats):
        for ncpu in (lo, hi):
            env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                       GRAFT_SF_DIR=sf_dir, GRAFT_BENCH_KG_ONLY="1")
            proc = subprocess.run(
                [sys.executable, os.path.join(REPO, "bench.py")],
                env=env, capture_output=True, text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[ncpu].append(res["value"])
            if (ncpu not in out) or res["value"] < out[ncpu]["value"]:
                out[ncpu] = res
    t_lo = out[lo]["value"]
    t_hi = out[hi]["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": f"scaling_efficiency_{lo}_to_{hi}",
        f"sec_{lo}": t_lo, f"sec_{hi}": t_hi,
        f"runs_{lo}": runs[lo], f"runs_{hi}": runs[hi],
        f"turns_per_sec_{lo}": out[lo]["turns_per_sec"],
        f"turns_per_sec_{hi}": out[hi]["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "sf": out[hi]["sf"],
    }


def _warm_workers(sf_dir: str):
    """Untimed warmup: run the full pipeline on a small corpus so Ray
    worker processes import the package and JIT caches fill — otherwise
    worker cold-start dominates the first timed stages and adds tens of
    seconds of run-to-run variance."""
    import ray.data as rd
    from weak_supervision_for_ner_ray.data import corpus_for_sf_dir
    from weak_supervision_for_ner_ray.pipelines.kg import build_kg
    warm_corpus = corpus_for_sf_dir("/root/testdata/sf0.001")
    wd = f"/tmp/wsner_bench_warm/{os.getpid()}"
    shutil.rmtree(wd, ignore_errors=True)
    turns = rd.read_parquet(os.path.join(warm_corpus, "turns.parquet"))
    out = build_kg(turns, wd, n_iter=1, write=False, lineage=False)
    out["triples"].count()
    shutil.rmtree(wd, ignore_errors=True)
    # warm the page cache for the real input
    rd.read_parquet(os.path.join(corpus_for_sf_dir(sf_dir),
                                 "turns.parquet")).count()


def run_kg_only(sf_dir: str, num_cpus: int) -> dict:
    """KG pipeline only (used by --scaling children)."""
    import ray
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ray.data.DataContext.get_current().enable_progress_bars = False
    import ray.data as rd
    from weak_supervision_for_ner_ray.data import corpus_for_sf_dir
    from weak_supervision_for_ner_ray.pipelines.kg import build_kg
    corpus_dir = corpus_for_sf_dir(sf_dir)
    turns_path = os.path.join(corpus_dir, "turns.parquet")
    n_turns = rd.read_parquet(turns_path).count()   # warm cache
    _warm_workers(sf_dir)
    workdir = f"/tmp/wsner_bench_work/{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    from weak_supervision_for_ner_ray.stages.util import target_blocks
    # scaling job uses the reference's EM depth (n_iter=10, labelling.py:238)
    n_iter = int(os.environ.get("GRAFT_BENCH_EM_ITERS", "10"))
    t0 = time.time()
    out = build_kg(rd.read_parquet(turns_path,
                                   override_num_blocks=target_blocks()),
                   workdir, n_iter=n_iter, write=True)
    n_triples = out["triples"].count()
    _consume(out["nodes"])
    _consume(out["edges"])
    dt = round(time.time() - t0, 3)
    shutil.rmtree(workdir, ignore_errors=True)
    result = {"metric": "kg_pipeline_sec", "value": dt, "unit": "sec",
              "queries": {"kg_pipeline": dt},
              "sf": os.path.basename(os.path.normpath(sf_dir)),
              "num_cpus": num_cpus, "turns": n_turns,
              "n_triples": n_triples,
              "turns_per_sec": round(n_turns / dt, 1)}
    ray.shutdown()
    return result


if __name__ == "__main__":
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
    elif os.environ.get("GRAFT_BENCH_KG_ONLY"):
        print(json.dumps(run_kg_only(sf_dir, num_cpus)))
    else:
        print(json.dumps(run_bench(sf_dir, num_cpus)))
