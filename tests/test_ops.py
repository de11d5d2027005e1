"""Data-ops tests: dedup family, similarity search, text analysis — on
constructed inputs with known answers."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray
import ray.data as rd

from weak_supervision_for_ner_ray.pipelines import ops


def to_arrow(ds):
    if isinstance(ds, pa.Table):
        return ds
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [pa.Table.from_pandas(t, preserve_index=False)
              if isinstance(t, pd.DataFrame) else t for t in tables]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables, promote_options="default") \
        if tables else pa.table({})


@pytest.fixture(scope="module")
def docs_dir(tmp_path_factory):
    """documents.parquet with known duplicates and near-duplicates."""
    d = tmp_path_factory.mktemp("docs")
    base = ("the quick brown fox jumps over the lazy dog while the rain "
            "falls on the quiet town and nobody watches the river flow")
    near = base.replace("nobody watches", "somebody watches")
    texts = [base, base, near,
             "completely different content about databases and queries",
             "another unrelated document talking about music and art",
             "UPPER Case Text With Some Words"]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    })
    import pyarrow.parquet as pq
    pq.write_table(t, str(d / "documents.parquet"))
    # embeddings: 20 vecs in 8-dim, constructed clusters
    rng = np.random.default_rng(5)
    X = rng.standard_normal((20, 8)).astype(np.float32)
    X[1] = X[0] * 2.0           # same direction as 0 -> cosine 1
    emb = pa.table({
        "vec_id": pa.array(range(20), pa.int64()),
        "embedding": pa.array([list(map(float, row)) for row in X],
                              pa.list_(pa.float32())),
        "label": pa.array([0] * 20, pa.int32()),
    })
    pq.write_table(emb, str(d / "embeddings.parquet"))
    return str(d)


def test_exact_dedup(ray_session, docs_dir):
    out = to_arrow(ops.exact_dedup(docs_dir)).to_pydict()
    by_doc = dict(zip(out["doc_id"], out["n_dups"]))
    assert by_doc[0] == 2          # doc 0 and 1 identical, keep min id
    assert 1 not in by_doc
    assert by_doc[2] == 1


def test_minhash_finds_near_duplicates(ray_session, docs_dir):
    out = to_arrow(ops.minhash_candidates(docs_dir)).to_pydict()
    pairs = set(zip(out["a"], out["b"]))
    assert (0, 1) in pairs          # exact dup always a candidate
    assert (0, 2) in pairs or (1, 2) in pairs   # near-dup found
    assert all(a < 4 and b < 4 for a, b in pairs), pairs


def test_dedup_clusters_transitive(ray_session, docs_dir):
    out = to_arrow(ops.dedup_clusters(docs_dir)).to_pydict()
    by_doc = dict(zip(out["doc_id"], out["cluster_id"]))
    # docs 0,1 are exact dups and 2 is a near-dup of them: one component
    # labelled by its smallest member — the transitive closure pairs
    # alone don't give
    assert by_doc[0] == by_doc[1] == 0
    if 2 in by_doc:
        assert by_doc[2] == 0
    # labels are component minima: every cluster id is a member doc id
    assert set(out["cluster_id"]) <= set(out["doc_id"])


def test_ngram_jaccard_verification(ray_session, docs_dir):
    out = ops.ngram_jaccard_verify(docs_dir, threshold=0.5)
    d = to_arrow(out).to_pydict()
    pairs = {(a, b): j
             for a, b, j in zip(d["a"], d["b"], d["jaccard_micro"])}
    assert pairs[(0, 1)] == 1_000_000
    near = pairs.get((0, 2)) or pairs.get((1, 2))
    assert near is not None and 500_000 <= near < 1_000_000


def test_simhash_near_dup_distance(ray_session, docs_dir):
    out = to_arrow(ops.simhash_table(docs_dir)).to_pydict()
    h = dict(zip(out["doc_id"], out["simhash"]))
    assert h[0] == h[1]
    def hamming(a, b):
        return bin((a ^ b) & ((1 << 64) - 1)).count("1")
    assert hamming(h[0], h[2]) <= 12          # near-dup: close hashes
    assert hamming(h[0], h[3]) > hamming(h[0], h[2])


def test_knn_bruteforce(ray_session, docs_dir):
    out = ops.knn_bruteforce(docs_dir, n_queries=2, k=3).to_pydict()
    rows = list(zip(out["query_id"], out["rank"], out["vec_id"]))
    # rank 1 for query 0 is itself (cosine 1.0); vec 1 is collinear -> rank 2
    assert (0, 1, 0) in rows
    assert (0, 2, 1) in rows


def test_ann_lsh_buckets_partition(ray_session, docs_dir):
    out = to_arrow(ops.ann_lsh_buckets(docs_dir, n_planes=4)).to_pydict()
    assert sum(out["n"]) == 20
    assert all(n > 0 for n in out["n"])


def test_lang_id_and_token_count(ray_session, docs_dir):
    tc = to_arrow(ops.token_count(docs_dir)).to_pydict()
    counts = dict(zip(tc["doc_id"], tc["n_tokens"]))
    assert counts[5] == 6
    li = to_arrow(ops.lang_id(docs_dir)).to_pydict()
    langs = dict(zip(li["doc_id"], li["lang_pred"]))
    assert langs[0] == "en"


def test_lang_id_null_text(ray_session, tmp_path):
    """A null text row must classify as 'und', not crash the flattener."""
    import pyarrow.parquet as pq

    t = pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "text": pa.array(["the quick fox and the dog", None], pa.string()),
        "lang": pa.array(["en", "en"], pa.string()),
    })
    d = str(tmp_path / "nulldocs")
    import os
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "documents.parquet"))
    out = to_arrow(ops.lang_id(d)).to_pydict()
    langs = dict(zip(out["doc_id"], out["lang_pred"]))
    assert langs[0] == "en" and langs[1] == "und"


def test_token_count_bpe(ray_session, docs_dir):
    import re
    out = to_arrow(ops.token_count_bpe(docs_dir)).to_pydict()
    counts = dict(zip(out["doc_id"], out["n_bpe_tokens"]))
    # pattern-identical sequential oracle
    pat = re.compile(ops._BPE_PATTERN)
    assert counts[5] == len(pat.findall("UPPER Case Text With Some Words"))
    assert counts[0] == counts[1]              # identical docs
    # BPE-ish count >= whitespace count (contractions/punct split further)
    ws = to_arrow(ops.token_count(docs_dir)).to_pydict()
    ws_counts = dict(zip(ws["doc_id"], ws["n_tokens"]))
    assert all(counts[d] >= ws_counts[d] for d in ws_counts)


def test_distinct_token_kmv(ray_session, docs_dir):
    out = to_arrow(ops.distinct_token_kmv(docs_dir)).to_pydict()
    assert out["k"] == [256]
    # the fixture has fewer than k distinct tokens -> sketch is EXACT
    texts = to_arrow(rd.read_parquet(docs_dir + "/documents.parquet"))
    true_distinct = len({w for t in texts["text"].to_pylist()
                         for w in t.split()})
    assert out["m"] == [true_distinct]
    assert out["est_distinct"] == [true_distinct]
    # estimator sanity on a wide synthetic corpus (> k distinct tokens)
    h = ops._stable_token_hashes([f"tok{i}" for i in range(5000)])
    hv = np.unique(h >> np.uint64(1))[:256]
    est = int(np.floor(255 * 9223372036854775808.0 / int(hv.max())))
    assert 3500 <= est <= 7000                 # ~N within KMV error bounds


def test_doc_fingerprint_rolling(ray_session, docs_dir):
    out = to_arrow(ops.doc_fingerprint_rolling(docs_dir)).to_pydict()
    by_doc = {}
    for d, fp in zip(out["doc_id"], out["fp"]):
        by_doc.setdefault(d, set()).add(fp)
    # identical docs -> identical fingerprint sets
    assert by_doc.get(0) == by_doc.get(1)
    # a one-word edit preserves most fingerprints (locality — the property
    # whole-document md5 lacks)
    if 0 in by_doc and 2 in by_doc:
        inter = len(by_doc[0] & by_doc[2])
        assert inter >= len(by_doc[0]) * 0.5
    # sequential oracle on one doc: brute-force polynomial at each position
    text = "UPPER Case Text With Some Words"
    pw = ops._roll_powers()
    M, k = (1 << 31) - 1, 8
    want = sorted({h for i in range(len(text) - k + 1)
                   if (h := sum(ord(text[i + j]) * pw[j]
                                for j in range(k)) % M) % 64 == 0})
    assert sorted(by_doc.get(5, set())) == want


def test_kmeans_ivf_assign(ray_session, docs_dir):
    out = to_arrow(ops.kmeans_ivf_assign(docs_dir, k=4)).to_pydict()
    assert sorted(out["vec_id"]) == list(range(20))      # every vector
    assert all(0 <= c < 4 for c in out["cluster_id"])
    assert all(d >= 0 for d in out["d2"])
    again = to_arrow(ops.kmeans_ivf_assign(docs_dir, k=4)).to_pydict()
    assert out == again                                  # deterministic
    # Lloyd iterations can only shrink total within-cluster distance
    one = to_arrow(ops.kmeans_ivf_assign(docs_dir, k=4, iters=1))
    assert sum(out["d2"]) <= sum(one.column("d2").to_pylist())


def test_ivf_query(ray_session, docs_dir):
    out = ops.ivf_query(docs_dir, k=4, n_queries=3, nprobe=2, topk=5) \
        .to_pydict()
    assert set(out["query_id"]) == {0, 1, 2}
    for q in (0, 1, 2):
        ranks = [r for qq, r in zip(out["query_id"], out["rank"])
                 if qq == q]
        assert ranks == list(range(1, len(ranks) + 1))
        ds = [d for qq, d in zip(out["query_id"], out["d2"]) if qq == q]
        assert ds == sorted(ds)
    # a query always probes its own cell, so it finds itself at d2 = 0
    self_hits = {(q, v) for q, v, d in zip(out["query_id"],
                                           out["vec_id"], out["d2"])
                 if d == 0 and q == v}
    assert {(0, 0), (1, 1), (2, 2)} <= self_hits
    # probing ALL cells == exact integer-grid knn; nprobe=2 is a subset
    full = ops.ivf_query(docs_dir, k=4, n_queries=3, nprobe=4, topk=5) \
        .to_pydict()
    pairs = set(zip(out["query_id"], out["vec_id"]))
    assert len(pairs) <= len(set(zip(full["query_id"], full["vec_id"])))


def test_pq_codes_and_query(ray_session, docs_dir):
    """The distributed PQ encode equals a single-process numpy recompute
    (train + assign over the whole table), and the ADC query distances
    equal brute-force table-lookup sums — distribution changes nothing."""
    import pyarrow.parquet as pq_
    m, k, iters = 2, 3, 2
    got = to_arrow(ops.pq_codes(docs_dir, m=m, k=k, iters=iters)) \
        .to_pandas()
    emb = pq_.read_table(str(docs_dir) + "/embeddings.parquet") \
        .sort_by("vec_id")
    X = ops._emb_micros(emb["embedding"])
    sub = X.shape[1] // m
    books = np.stack([X[:k, j * sub:(j + 1) * sub] for j in range(m)])
    for _ in range(iters):
        new = books.copy()
        for j in range(m):
            Xj = X[:, j * sub:(j + 1) * sub]
            a, _ = ops._kmeans_assign(Xj, books[j])
            for c in range(k):
                sel = Xj[a == c]
                if len(sel):
                    r = sel.sum(0) / len(sel)
                    new[j, c] = np.copysign(np.floor(np.abs(r) + 0.5),
                                            r).astype(np.int64)
        books = new
    want = {"vec_id": emb["vec_id"].to_pylist()}
    for j in range(m):
        a, _ = ops._kmeans_assign(X[:, j * sub:(j + 1) * sub], books[j])
        want[f"code_{j}"] = a.tolist()
    for col in want:
        assert got[col].tolist() == want[col], col
    # ADC query: distances are sums of per-subspace code-table lookups
    out = ops.pq_query(docs_dir, m=m, k=k, iters=iters,
                       n_queries=2, topk=4).to_pydict()
    Q = X[:2]
    codes = np.stack([want[f"code_{j}"] for j in range(m)], axis=1)
    for qid, vid, d in zip(out["query_id"], out["vec_id"],
                           out["adc_d2"]):
        expect = sum(int(((Q[qid][j * sub:(j + 1) * sub]
                           - books[j][codes[vid, j]]) ** 2).sum())
                     for j in range(m))
        assert d == expect
    for q in (0, 1):
        ranks = [r for qq, r in zip(out["query_id"], out["rank"])
                 if qq == q]
        assert ranks == list(range(1, len(ranks) + 1))


def test_distinct_token_kmv_by_lang(ray_session, docs_dir):
    """With fewer than k distinct tokens per lang the per-group sketch
    is EXACT (m == est == true distinct)."""
    out = to_arrow(ops.distinct_token_kmv_by_lang(docs_dir, k=64)) \
        .to_pydict()
    import pyarrow.parquet as pq_
    docs = pq_.read_table(str(docs_dir) + "/documents.parquet") \
        .to_pydict()
    true = len({w for t in docs["text"] for w in t.split()})
    assert out["lang"] == ["en"]
    assert out["m"] == [true]
    assert out["est_distinct"] == [true]


def test_ivfpq_query(ray_session, docs_dir):
    """Probing ALL coarse cells makes IVF-PQ equal to the full PQ-ADC
    scan; fewer probes return a candidate subset with consistent
    ranks."""
    kw = dict(m=2, k=3, iters=2, n_queries=3, topk=5)
    full = ops.ivfpq_query(docs_dir, k_coarse=4, coarse_iters=2,
                           nprobe=4, **kw).to_pydict()
    flat = ops.pq_query(docs_dir, **kw).to_pydict()
    assert full == flat
    part = ops.ivfpq_query(docs_dir, k_coarse=4, coarse_iters=2,
                           nprobe=1, **kw).to_pydict()
    pairs = set(zip(part["query_id"], part["vec_id"]))
    adc = dict(zip(zip(flat["query_id"], flat["vec_id"]),
                   flat["adc_d2"]))
    # any shared (q, v) pair carries the identical ADC distance
    for qv, d in zip(zip(part["query_id"], part["vec_id"]),
                     part["adc_d2"]):
        if qv in adc:
            assert adc[qv] == d
    for q in set(part["query_id"]):
        ranks = [r for qq, r in zip(part["query_id"], part["rank"])
                 if qq == q]
        assert ranks == list(range(1, len(ranks) + 1))
    assert pairs  # nprobe=1 still returns candidates


def test_sample_hash_deterministic(ray_session, docs_dir):
    a = to_arrow(ops.sample_hash(docs_dir, rate_ppm=500_000)).to_pydict()
    b = to_arrow(ops.sample_hash(docs_dir, rate_ppm=500_000)).to_pydict()
    assert a == b                              # rerun-stable
    assert all(p < 500_000 for p in a["bucket_ppm"])
    # rate monotonicity: a larger rate keeps a superset
    big = to_arrow(ops.sample_hash(docs_dir, rate_ppm=1_000_000))
    assert set(a["doc_id"]) <= set(big["doc_id"].to_pylist())
    assert big.num_rows == 6                   # ppm=1e6 keeps everything


def test_text_ops_edge_docs(ray_session, tmp_path):
    """Empty, whitespace-only and shorter-than-window docs must not crash
    the text ops (and must emit nothing where nothing is defined)."""
    import pyarrow.parquet as pq
    d = tmp_path / "edge"
    d.mkdir()
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
        "text": pa.array(["", "   ", "hi", "long enough document here"],
                         pa.string()),
        "lang": pa.array(["en"] * 4, pa.string()),
    })
    pq.write_table(t, str(d / "documents.parquet"))
    sf = str(d)
    bpe = to_arrow(ops.token_count_bpe(sf)).to_pydict()
    assert dict(zip(bpe["doc_id"], bpe["n_bpe_tokens"]))[0] == 0
    kmv = to_arrow(ops.distinct_token_kmv(sf)).to_pydict()
    assert kmv["m"][0] == 5                     # hi long enough document here
    assert kmv["est_distinct"][0] == 5          # < k -> exact
    roll = to_arrow(ops.doc_fingerprint_rolling(sf)).to_pydict()
    # only the ≥8-char doc can emit (and with 19 positions × 1/64
    # sampling it usually emits nothing)
    assert set(roll.get("doc_id", [])) <= {3}
    mh = to_arrow(ops.minhash_candidates(sf)).to_pydict()
    # the two token-empty docs share the all-sentinel signature, so they
    # are (trivially) candidates — same semantics as the SQL oracle's
    # COALESCE(min(NULL), maxint); nothing else pairs
    assert set(zip(mh["a"], mh["b"])) == {(0, 1)}


def test_minhash_signature_properties():
    mh = ops.MinHasher(num_perm=64, shingle=2)
    a = "alpha beta gamma delta epsilon zeta"
    b = "alpha beta gamma delta epsilon eta"
    sig_a1 = mh.signature(a)
    sig_a2 = mh.signature(a)
    assert np.array_equal(sig_a1, sig_a2)      # deterministic
    est = (mh.signature(a) == mh.signature(b)).mean()
    sa, sb = set(mh.shingles(a).tolist()), set(mh.shingles(b).tolist())
    true_j = len(sa & sb) / len(sa | sb)
    assert abs(est - true_j) < 0.25            # unbiased estimate
    # bands must split the signature evenly, also under ``python -O``
    with pytest.raises(ValueError, match="multiple of bands"):
        ops.MinHashStage(num_perm=100, bands=32)


def test_minhash_dropped_buckets_not_silent(ray_session, docs_dir, caplog):
    import logging

    with caplog.at_level(logging.WARNING,
                         logger="weak_supervision_for_ner_ray.pipelines.ops"):
        out = to_arrow(ops.minhash_candidates(docs_dir, max_bucket=1))
    # every >=2-doc bucket dropped -> no pairs, no sentinel rows leak out
    assert out.num_rows == 0 or all(a >= 0
                                    for a in out.column("a").to_pylist())


def test_dedup_embedding_cosine(ray_session, docs_dir):
    out = to_arrow(ops.dedup_embedding_cosine(docs_dir,
                                              threshold_micro=990_000))
    d = out.to_pydict()
    pairs = set(zip(d["a"], d["b"]))
    assert (0, 1) in pairs                 # collinear vectors: cosine 1.0
    sims = dict(zip(zip(d["a"], d["b"]), d["sim_micro"]))
    assert sims[(0, 1)] == 1_000_000


def test_dedup_embedding_lsh_matches_allpairs(ray_session, docs_dir):
    """The bucketed scale path emits the IDENTICAL pair set + sims as the
    all-pairs baseline on the test corpus (recall 1.0 at the default
    parameters; false bucket collisions are exact-verified away)."""
    base = to_arrow(ops.dedup_embedding_cosine(
        docs_dir, threshold_micro=400_000)).to_pydict()
    lsh = to_arrow(ops.dedup_embedding_lsh(
        docs_dir, threshold_micro=400_000)).to_pydict()
    base_pairs = dict(zip(zip(base["a"], base["b"]), base["sim_micro"]))
    lsh_pairs = dict(zip(zip(lsh["a"], lsh["b"]), lsh["sim_micro"]))
    assert base_pairs == lsh_pairs
    assert (0, 1) in lsh_pairs and lsh_pairs[(0, 1)] == 1_000_000


def _cogroup_sides(left, right, n_groups):
    """One row per co-group: the keys and column types each side of the
    group reached the kernel with."""
    def report(lt, rt):
        return pa.table({
            "lk": [lt.column("k").to_pylist()],
            "rk": [rt.column("k").to_pylist()],
            "lv": [lt.column("v").to_pylist()],
            "ltypes": [[str(t) for t in lt.schema.types]],
            "rtypes": [[str(t) for t in rt.schema.types]]})
    return to_arrow(ops._cogroup(left, right, "k", n_groups, report)) \
        .to_pylist()


_LEFT = pa.table({"k": pa.array([1, 2, 3], pa.int64()),
                  "v": pa.array([2 ** 62 + 1, -5, 7], pa.int64())})
_RIGHT = pa.table({"k": pa.array([2, 4], pa.int64()),
                   "w": pa.array(["x", None], pa.string())})


def test_cogroup_colocates_keys_and_keeps_side_types(ray_session):
    """More groups than keys, a key on both sides and keys on one side
    only: every key's rows of both sides meet in one group, and each
    side reaches the kernel in its own schema — the left int64 column
    keeps a value float64 cannot hold, despite the right rows' nulls."""
    groups = _cogroup_sides((rd.from_arrow(_LEFT), _LEFT.schema),
                            (rd.from_arrow(_RIGHT), _RIGHT.schema),
                            n_groups=64)
    assert sorted(k for g in groups for k in g["lk"]) == [1, 2, 3]
    assert sorted(k for g in groups for k in g["rk"]) == [2, 4]
    assert len(groups) == 4                    # one group per key here
    (both,) = [g for g in groups if 2 in g["lk"]]
    assert both["rk"] == [2]
    assert sorted(v for g in groups for v in g["lv"]) == \
        [-5, 7, 2 ** 62 + 1]
    for g in groups:
        assert g["ltypes"] == ["int64", "int64"]
        assert g["rtypes"] == ["int64", "string"]


def test_cogroup_one_side_empty(ray_session):
    """An empty side: the anti-join keeps every left row, the semi-join
    none, and a right side with no rows at all still runs."""
    empty = rd.from_arrow(_RIGHT.slice(0, 0))
    for anti, want in ((True, [1, 2, 3]), (False, [])):
        out = to_arrow(ops._cogroup(
            (rd.from_arrow(_LEFT), _LEFT.schema), (empty, _RIGHT.schema),
            "k", 4, ops._match_filter("k", anti=anti)))
        got = sorted(out.column("k").to_pylist()) if out.num_rows else []
        assert got == want
        if out.num_rows:
            assert out.schema.field("v").type == pa.int64()
    out = to_arrow(ops._cogroup(
        (rd.from_arrow(_LEFT.slice(0, 0)), _LEFT.schema),
        (rd.from_arrow(_RIGHT), _RIGHT.schema),
        "k", 4, ops._match_filter("k", anti=True)))
    assert out.num_rows == 0


def test_cogroup_schema_less_empty_block(ray_session):
    """A side carrying a schema-less empty block (what a grouped upstream
    can emit), guarded with _coalesce_schema_less as the ops do: the
    anti-join result is exact."""
    left = rd.from_arrow([pa.table({}), _LEFT])
    out = to_arrow(ops._cogroup(
        (ops._coalesce_schema_less(left, n_parts=3), _LEFT.schema),
        (rd.from_arrow(_RIGHT), _RIGHT.schema),
        "k", 4, ops._match_filter("k", anti=True)))
    assert sorted(zip(out.column("k").to_pylist(),
                      out.column("v").to_pylist())) == \
        [(1, 2 ** 62 + 1), (3, 7)]


@pytest.fixture(scope="module")
def neardup_dir(tmp_path_factory):
    """Embeddings with PLANTED near-duplicate pairs at sim >= 0.85:
    40 well-separated base vectors in 32-dim, each with one small-angle
    perturbation — the production near-dup regime."""
    import pyarrow.parquet as pq
    d = tmp_path_factory.mktemp("neardup")
    rng = np.random.default_rng(11)
    base = rng.standard_normal((40, 32)).astype(np.float64)
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # perturb by a small random direction: for unit x and noise scale e,
    # cos(x, x+e·n) ~ 1/sqrt(1+32e^2) -> e in [0.02, 0.06] gives ~0.94-0.99
    pert = base + rng.uniform(0.02, 0.06, (40, 1)) \
        * rng.standard_normal((40, 32))
    X = np.concatenate([base, pert]).astype(np.float32)
    emb = pa.table({
        "vec_id": pa.array(range(len(X)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in X],
                              pa.list_(pa.float32())),
    })
    pq.write_table(emb, str(d / "embeddings.parquet"))
    return str(d)


def test_dedup_embedding_lsh_production_threshold(ray_session, neardup_dir):
    """The production configuration (sim >= 0.85, deep codes b=12, L=8 —
    buckets shrink to ~N/4096 so the candidate volume stays O(N·L)) finds
    >= 0.95 of the exact near-dup pairs, every reported sim bit-identical
    to the all-pairs kernel, zero false positives."""
    exact = to_arrow(ops.dedup_embedding_cosine(
        neardup_dir, threshold_micro=850_000)).to_pydict()
    lsh = to_arrow(ops.dedup_embedding_lsh(
        neardup_dir, threshold_micro=850_000, n_planes=12,
        n_tables=8)).to_pydict()
    exact_pairs = dict(zip(zip(exact["a"], exact["b"]),
                           exact["sim_micro"]))
    lsh_pairs = dict(zip(zip(lsh["a"], lsh["b"]), lsh["sim_micro"]))
    assert len(exact_pairs) >= 30          # the planted pairs are present
    # exact verification: no false positives, sims bit-identical
    assert all(exact_pairs.get(k) == v for k, v in lsh_pairs.items())
    recall = len(lsh_pairs) / len(exact_pairs)
    assert recall >= 0.95, (recall, len(exact_pairs), len(lsh_pairs))


def test_knn_graph(ray_session, docs_dir):
    """Every vector's top-k neighbours equal a brute-force numpy replay
    with the (sim_micro DESC, id ASC) rank order — including exact
    duplicate vectors, whose micro ties the composite key must cut by
    neighbour id."""
    import pyarrow.parquet as pq_
    k = 5
    got = to_arrow(ops.knn_graph(docs_dir, k=k)).to_pydict()
    emb = pq_.read_table(str(docs_dir) + "/embeddings.parquet")
    ids = np.asarray(emb["vec_id"].to_pylist(), np.int64)
    X = np.asarray(emb["embedding"].to_pylist(), np.float64)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    sims = Xn @ Xn.T
    micros = np.copysign(np.floor(np.abs(sims) * 1e6 + 0.5),
                         sims).astype(np.int64)
    want = []
    for i, a in enumerate(ids):
        cand = sorted(((int(-micros[i, j]), int(b))
                       for j, b in enumerate(ids) if b != a))[:k]
        want += [(int(a), r + 1, b, -m)
                 for r, (m, b) in enumerate(cand)]
    assert list(zip(got["a"], got["rank"], got["b"],
                    got["sim_micro"])) == want
    assert len(got["a"]) == len(ids) * k


def test_knn_graph_guard(ray_session, docs_dir):
    with pytest.raises(ValueError, match="dedup_embedding_lsh"):
        ops.knn_graph(docs_dir, max_rows=5)


def test_knn_graph_rejects_ids_past_composite_key(ray_session, tmp_path):
    """knn_graph ranks on the packed key micros·2³² + (2³²−1−id); a
    vec_id of 2³² would alias the next micro, so it must raise a
    ValueError (a bare assert vanishes under ``python -O``)."""
    import pyarrow.parquet as pq_
    d = tmp_path / "bigid"
    d.mkdir()
    pq_.write_table(pa.table({
        "vec_id": pa.array([0, 1, 2 ** 32], pa.int64()),
        "embedding": pa.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                              pa.list_(pa.float32())),
    }), str(d / "embeddings.parquet"))
    with pytest.raises(ValueError, match="vec_id < 2"):
        to_arrow(ops.knn_graph(str(d), k=1))


def test_semantic_dedup(ray_session, neardup_dir):
    """SemDeDup keep flags equal a brute-force replay of the rule —
    the (separately oracle-tested) kmeans assignment + all-pairs float64
    cosine, drop b iff a lower-id cell-mate is >= threshold.  n_coarse=2
    packs several cells per coarse group, exercising the in-group
    segment loop."""
    import pyarrow.parquet as pq_
    thr = 850_000
    got = to_arrow(ops.semantic_dedup(
        neardup_dir, k=4, iters=2, threshold_micro=thr,
        n_coarse=2)).to_pydict()
    assign = to_arrow(ops.kmeans_ivf_assign(
        neardup_dir, k=4, iters=2)).to_pydict()
    cell = dict(zip(assign["vec_id"], assign["cluster_id"]))
    emb = pq_.read_table(neardup_dir + "/embeddings.parquet")
    ids = emb["vec_id"].to_pylist()
    X = np.asarray(emb["embedding"].to_pylist(), np.float64)
    Xn = X / np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-12)
    sims = Xn @ Xn.T
    micros = np.copysign(np.floor(np.abs(sims) * 1e6 + 0.5),
                         sims).astype(np.int64)
    want = {b: int(not any(micros[i, j] >= thr and cell[a] == cell[b]
                           and a < b
                           for i, a in enumerate(ids)))
            for j, b in enumerate(ids)}
    assert got["vec_id"] == sorted(ids)
    assert dict(zip(got["vec_id"], got["keep"])) == want
    assert dict(zip(got["vec_id"], got["cluster_id"])) == cell
    # the planted near-dups actually fire the rule on this fixture
    assert 0 in got["keep"] and 1 in got["keep"]


def test_dedup_embedding_allpairs_guard(ray_session, docs_dir):
    """The all-pairs baseline refuses datasets above its size cap instead
    of broadcasting an unbounded matrix."""
    with pytest.raises(ValueError, match="dedup_embedding_lsh"):
        ops.dedup_embedding_cosine(docs_dir, max_rows=5)


def test_ann_lsh_query_recall(ray_session, docs_dir):
    """Bucket-probe ANN finds most of the brute-force top-k (and always
    the exact-duplicate neighbour, which shares every hyperplane sign)."""
    exact = ops.knn_bruteforce(docs_dir, n_queries=4, k=3).to_pydict()
    approx = ops.ann_lsh_query(docs_dir, n_queries=4, k=3, n_planes=4,
                               multiprobe=1).to_pydict()
    exact_set = set(zip(exact["query_id"], exact["vec_id"]))
    approx_set = set(zip(approx["query_id"], approx["vec_id"]))
    # collinear pair (0, 1): identical buckets, must be found
    assert (0, 1) in approx_set
    recall = len(exact_set & approx_set) / len(exact_set)
    assert recall >= 0.5, (recall, exact_set, approx_set)
    # sims for shared pairs are identical to brute force
    ex = dict(zip(zip(exact["query_id"], exact["vec_id"]),
                  exact["sim_micro"]))
    ap = dict(zip(zip(approx["query_id"], approx["vec_id"]),
                  approx["sim_micro"]))
    for key in exact_set & approx_set:
        assert ex[key] == ap[key]


def _brute_cdc_pairs(texts, k=8, sample_mod=64, min_shared=2,
                     max_bucket=200):
    """Independent pure-Python reimplementation of the CDC pair
    definition (polynomial hash per position, 1/sample_mod sampling,
    boilerplate drop, >= min_shared shared fingerprints)."""
    B, M = int(ops._ROLL_BASE), (1 << 31) - 1
    doc_fps = {}
    for doc_id, text in enumerate(texts):
        if len(text) < k:
            continue
        cp = [ord(c) for c in text]
        fps = set()
        for i in range(len(cp) - k + 1):
            h = 0
            for j in range(k):
                h = (h + cp[i + j] * pow(B, k - 1 - j, M)) % M
            if h % sample_mod == 0:
                fps.add(h)
        if fps:
            doc_fps[doc_id] = fps
    from collections import Counter
    freq = Counter(fp for fps in doc_fps.values() for fp in fps)
    keep = {fp for fp, c in freq.items() if 2 <= c <= max_bucket}
    pairs = {}
    ids = sorted(doc_fps)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            n = len(doc_fps[a] & doc_fps[b] & keep)
            if n >= min_shared:
                pairs[(a, b)] = n
    return pairs


def test_dedup_cdc_chunks(ray_session, tmp_path):
    """Engine pairs == brute-force pairs on a corpus constructed so the
    truth is non-empty: long exact dup, long partial overlap, unrelated."""
    import pyarrow.parquet as pq
    base = ("the quick brown fox jumps over the lazy dog while rain "
            "falls on the quiet town and nobody watches the river ") * 8
    partial = base[: len(base) // 2] + (
        "entirely new second half talking about compilers, parsers "
        "and the careful art of incremental computation in engines ") * 4
    other = ("databases store rows in pages and pages live in files "
             "while caches keep the hot set resident in memory near ") * 8
    texts = [base, base, partial, other, "tiny"]
    d = tmp_path / "cdc"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    want = _brute_cdc_pairs(texts)
    assert (0, 1) in want and (0, 2) in want       # fixture is non-trivial
    got = to_arrow(ops.dedup_cdc_chunks(str(d))).to_pydict()
    got_pairs = dict(zip(zip(got["a"], got["b"]), got["n_shared"]))
    assert got_pairs == want


def test_ngram_topk(ray_session, docs_dir):
    """Distributed heavy hitters == Counter brute force, including the
    (count desc, ngram asc) tie order and the rank column."""
    from collections import Counter
    texts = to_arrow(ops.read_table(docs_dir, "documents",
                                    columns=["text"])).to_pydict()["text"]
    cnt = Counter()
    for t in texts:
        toks = ops._ws_tokens(t)
        cnt.update(" ".join(toks[i:i + 2]) for i in range(len(toks) - 1))
    want = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))[:50]
    got = to_arrow(ops.ngram_topk(docs_dir)).to_pydict()
    assert list(zip(got["ngram"], got["cnt"])) == want
    assert got["rnk"] == list(range(1, len(want) + 1))


def test_rollup_lang_source(ray_session, tmp_path):
    """All three grouping-set levels present and numerically exact."""
    import pyarrow.parquet as pq
    d = tmp_path / "roll"
    d.mkdir()
    langs = ["en", "en", "de", "de", "de", "fr"]
    srcs = ["web", "book", "web", "web", "book", "web"]
    chars = [10, 20, 5, 7, 11, 3]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(6), pa.int64()),
        "text": pa.array(["x"] * 6, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(srcs, pa.string()),
        "n_chars": pa.array(chars, pa.int64()),
    }), str(d / "documents.parquet"))
    got = to_arrow(ops.rollup_lang_source(str(d))).to_pydict()
    rows = dict(zip(zip(got["lang"], got["source"]),
                    zip(got["n_docs"], got["sum_chars"])))
    assert rows[("en", "web")] == (1, 10)
    assert rows[("de", "web")] == (2, 12)
    assert rows[("de", "ALL")] == (3, 23)
    assert rows[("en", "ALL")] == (2, 30)
    assert rows[("fr", "ALL")] == (1, 3)
    assert rows[("ALL", "ALL")] == (6, 56)
    assert rows[("en", "book")] == (1, 20)
    assert len(rows) == 5 + 3 + 1    # 5 (lang,source) + 3 langs + total


def _md5_ppm(seed, doc_id):
    import hashlib
    h = int.from_bytes(
        hashlib.md5(f"{seed}:{doc_id}".encode()).digest()[8:], "little")
    return h % 1_000_000


def test_stratified_sample(ray_session, tmp_path):
    """Per-lang sample == the n lowest (hash, doc_id) per lang, computed
    independently with hashlib."""
    import pyarrow.parquet as pq
    d = tmp_path / "strat"
    d.mkdir()
    langs = ["en"] * 30 + ["de"] * 10 + ["fr"] * 2
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(langs)), pa.int64()),
        "text": pa.array(["x"] * len(langs), pa.string()),
        "lang": pa.array(langs, pa.string()),
    }), str(d / "documents.parquet"))
    n = 5
    got = to_arrow(ops.stratified_sample(str(d), n_per_lang=n)).to_pydict()
    by_lang = {}
    for doc_id, lg in enumerate(langs):
        by_lang.setdefault(lg, []).append((_md5_ppm("s17", doc_id), doc_id))
    want = []
    for lg in sorted(by_lang):
        for rnk, (ppm, doc_id) in enumerate(sorted(by_lang[lg])[:n], 1):
            want.append((lg, rnk, doc_id, ppm))
    assert list(zip(got["lang"], got["rnk"], got["doc_id"],
                    got["bucket_ppm"])) == want
    assert [r for r in want if r[0] == "fr"][-1][1] == 2  # capped at avail


def test_dataset_mix(ray_session, tmp_path):
    """Quotas follow floor(ratio x budget), capped at availability, and
    each source's draw is its lowest-hash docs."""
    import pyarrow.parquet as pq
    d = tmp_path / "mix"
    d.mkdir()
    srcs = ["a"] * 20 + ["b"] * 3 + ["c"] * 10
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(srcs)), pa.int64()),
        "text": pa.array(["x"] * len(srcs), pa.string()),
        "lang": pa.array(["en"] * len(srcs), pa.string()),
        "source": pa.array(srcs, pa.string()),
    }), str(d / "documents.parquet"))
    ratios = {"a": 500_000, "b": 400_000, "c": 0}
    got = to_arrow(ops.dataset_mix(str(d), budget=10,
                                   ratios_ppm=ratios)).to_pydict()
    # quotas: a -> 5, b -> 4 but only 3 available, c -> 0 (filtered)
    from collections import Counter
    assert Counter(got["source"]) == {"a": 5, "b": 3}
    by_src = {}
    for doc_id, s in enumerate(srcs):
        by_src.setdefault(s, []).append((_md5_ppm("s19", doc_id), doc_id))
    want_a = [doc_id for _, doc_id in sorted(by_src["a"])[:5]]
    got_a = [i for i, s in zip(got["doc_id"], got["source"]) if s == "a"]
    assert got_a == want_a


def test_tfidf_topk(ray_session, docs_dir):
    """Distributed score == brute-force tf*1e6//df with the documented
    tie order."""
    from collections import Counter
    texts = to_arrow(ops.read_table(docs_dir, "documents",
                                    columns=["doc_id", "text"])) \
        .to_pydict()
    tf = {d: Counter(ops._ws_tokens(t))
          for d, t in zip(texts["doc_id"], texts["text"])}
    df = Counter(tok for c in tf.values() for tok in c)
    want = []
    for d in sorted(tf):
        scored = sorted(((tok, cnt * 1_000_000 // df[tok])
                         for tok, cnt in tf[d].items()),
                        key=lambda kv: (-kv[1], kv[0]))[:3]
        want += [(d, r, tok, s) for r, (tok, s) in enumerate(scored, 1)]
    got = to_arrow(ops.tfidf_topk(docs_dir)).to_pydict()
    assert list(zip(got["doc_id"], got["rnk"], got["token"],
                    got["score"])) == want


def test_pivot_doc_langs(ray_session, tmp_path):
    """Out-of-domain languages land in n_total only; per-lang columns
    are exact."""
    import pyarrow.parquet as pq
    d = tmp_path / "pivot"
    d.mkdir()
    langs = ["en", "en", "de", "xx", "zh"]
    srcs = ["s1", "s2", "s1", "s1", "s2"]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(5), pa.int64()),
        "text": pa.array(["x"] * 5, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "source": pa.array(srcs, pa.string()),
    }), str(d / "documents.parquet"))
    got = to_arrow(ops.pivot_doc_langs(str(d))).to_pydict()
    assert got["source"] == ["s1", "s2"]
    assert got["n_en"] == [1, 1]
    assert got["n_de"] == [1, 0]
    assert got["n_zh"] == [0, 1]
    assert got["n_total"] == [3, 2]      # 'xx' counts only here


def test_pack_sequences(ray_session, tmp_path):
    """The distributed prefix scan equals the sequential cumsum, with a
    range_size small enough that every range boundary exercises the
    driver-folded offsets, plus null/empty docs contributing 0 tokens."""
    import pyarrow.parquet as pq
    rng = np.random.default_rng(23)
    texts = [" ".join(["tok"] * int(rng.integers(0, 40)))
             for _ in range(57)]
    texts[7] = None
    texts[8] = ""
    d = tmp_path / "pack"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    budget, range_size = 64, 8
    got = to_arrow(ops.pack_sequences(str(d), budget=budget,
                                      range_size=range_size)).to_pydict()
    cum = 0
    for i, (doc_id, n, start, bin_id, off) in enumerate(zip(
            got["doc_id"], got["n_tokens"], got["start_tok"],
            got["bin_id"], got["offset_in_bin"])):
        t = texts[doc_id]
        n_want = len(t.split()) if isinstance(t, str) else 0
        assert doc_id == i
        assert n == n_want
        assert start == cum
        assert bin_id == cum // budget
        assert off == cum % budget
        cum += n_want


def test_decontaminate(ray_session, tmp_path):
    """Engine == brute force on a corpus with one controlled overlap:
    doc 2 embeds a long span of benchmark doc 0; doc 3 is unrelated."""
    import pyarrow.parquet as pq
    bench = ("canonical benchmark question about the tallest mountain "
             "on each continent and the rivers that drain them") * 3
    contaminated = ("some training text " + bench[40:160]
                    + " plus an original tail about something else")
    clean = ("entirely unrelated training document discussing pastry "
             "recipes, oven temperatures and the economics of flour") * 2
    texts = [bench, "another benchmark item entirely", contaminated,
             clean]
    srcs = ["src0", "src0", "web", "web"]
    d = tmp_path / "decon"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(4), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * 4, pa.string()),
        "source": pa.array(srcs, pa.string()),
    }), str(d / "documents.parquet"))
    sample_mod = 4          # denser sampling so the overlap is seen
    B, M = int(ops._ROLL_BASE), (1 << 31) - 1

    def fps(text):
        out = set()
        cp = [ord(c) for c in text]
        for i in range(len(cp) - 7):
            h = 0
            for j in range(8):
                h = (h + cp[i + j] * pow(B, 7 - j, M)) % M
            if h % sample_mod == 0:
                out.add(h)
        return out

    bench_fps = fps(texts[0]) | fps(texts[1])
    want = {i: len(fps(t) & bench_fps)
            for i, t in enumerate(texts) if srcs[i] != "src0"}
    want = {i: n for i, n in want.items() if n > 0}
    # the embedded span makes doc 2 heavily contaminated; doc 3 may share
    # a couple of incidental English 8-grams (" and the", …) — the op
    # reports exact hit counts, thresholding is the caller's policy
    assert want[2] >= 10 > want.get(3, 0)
    got = to_arrow(ops.decontaminate(str(d), sample_mod=sample_mod)) \
        .to_pydict()
    assert dict(zip(got["doc_id"], got["n_hits"])) == want


def _brute_pagerank(pairs, iters=3):
    """Pure-Python integer-micros PageRank over the undirected bipartite
    graph (independent of the engine's kernels)."""
    OFF = 1 << 32
    und = {}
    for s, p in set(pairs):
        und.setdefault(s, set()).add(OFF + p)
        und.setdefault(OFF + p, set()).add(s)
    deg = {v: len(ns) for v, ns in und.items()}
    r = {v: 1_000_000 for v in und}
    for _ in range(iters):
        nxt = {v: 150_000 for v in und}
        for u, ns in und.items():
            c = (r[u] * 850_000) // (deg[u] * 1_000_000)
            for v in ns:
                nxt[v] += c
        r = nxt
    return {("part" if v >= OFF else "supplier",
             v - OFF if v >= OFF else v): rv for v, rv in r.items()}


def test_pagerank(ray_session, tmp_path):
    """Distributed integer PageRank == brute force on a skewed fixture
    (one hub supplier in most parts, duplicate lineitem pairs that must
    collapse to one edge, a disconnected pair)."""
    import pyarrow.parquet as pq
    d = tmp_path / "pr"
    d.mkdir()
    pairs = []
    for p in range(12):
        pairs.append((1, p))            # hub supplier
    pairs += [(2, 0), (2, 1), (3, 5), (4, 99), (4, 99), (1, 0), (1, 0)]
    pq.write_table(pa.table({
        "l_suppkey": pa.array([s for s, _ in pairs], pa.int64()),
        "l_partkey": pa.array([p for _, p in pairs], pa.int64()),
    }), str(d / "lineitem.parquet"))
    want = _brute_pagerank(pairs)
    got = to_arrow(ops.pagerank(str(d), rows_per_group=3)).to_pydict()
    got_map = dict(zip(zip(got["kind"], got["node_key"]),
                       got["rank_micro"]))
    assert got_map == want
    # the hub supplier must outrank every leaf supplier
    assert got_map[("supplier", 1)] > got_map[("supplier", 3)]


def test_gopher_quality(ray_session, tmp_path):
    """Each rule triggers on its constructed doc; stats are exact."""
    import pyarrow.parquet as pq
    d = tmp_path / "gq"
    d.mkdir()
    good = " ".join(f"word{i:02d}" for i in range(30))
    short = "only three words"                       # n_words < 20
    dupy = " ".join(["spam"] * 15 + [f"w{i}" for i in range(15)])
    toppy = " ".join(["the"] * 8 + [f"tok{i:03d}" for i in range(22)])
    longw = " ".join("x" * 20 for _ in range(25))    # mean len 20 > 10
    texts = [good, short, dupy, toppy, longw, "   "]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    got = to_arrow(ops.gopher_quality(str(d))).to_pydict()
    rows = {i: (nw, ml, df, tf, k) for i, nw, ml, df, tf, k in zip(
        got["doc_id"], got["n_words"], got["mean_word_len_micro"],
        got["dup_word_frac_micro"], got["top_word_frac_micro"],
        got["keep"])}
    assert 5 not in rows                    # whitespace-only doc excluded
    assert rows[0][4] == 1                  # good doc kept
    assert rows[1] == (3, 4_666_666, 0, 333_333, 0)      # too short
    assert rows[2][2] == ((30 - 16) * 1_000_000) // 30   # dup frac exact
    assert rows[2][4] == 0                  # dup frac 466k ok, top 500k no
    assert rows[3][3] == (8 * 1_000_000) // 30
    assert rows[3][4] == 0                  # top-word rule fires
    assert rows[4][1] == 20_000_000 and rows[4][4] == 0  # mean-len rule


def test_repetition_ngrams(ray_session, tmp_path):
    """Per-doc duplicate-3-gram stats match a brute-force Counter."""
    from collections import Counter
    import pyarrow.parquet as pq
    d = tmp_path / "rep"
    d.mkdir()
    texts = [
        "a b c a b c a b c",                       # heavy 3-gram repeats
        "one two three four five",                  # all grams distinct
        "x y",                                      # < 3 tokens: excluded
        " ".join(["spam"] * 7),                     # one gram, 5 repeats
        "",                                         # empty: excluded
        "a b c d a b c d a b x a b c",              # mixed repeats
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    got = to_arrow(ops.repetition_ngrams(str(d))).to_pydict()
    want = {}
    for i, t in enumerate(texts):
        toks = t.split()
        if len(toks) < 3:
            continue
        grams = Counter(tuple(toks[j:j + 3]) for j in range(len(toks) - 2))
        ng = len(toks) - 2
        want[i] = (ng, ((ng - len(grams)) * 1_000_000) // ng,
                   (max(grams.values()) * 1_000_000) // ng)
    assert dict(zip(got["doc_id"],
                    zip(got["n_grams"], got["dup_gram_frac_micro"],
                        got["top_gram_frac_micro"]))) == want
    assert set(got["doc_id"]) == {0, 1, 3, 5}


def test_train_shards(ray_session, tmp_path):
    """Shard assignment and within-shard hash-order positions match a
    pure-Python md5 replay; range_bits=60 forces many hash ranges per
    shard so the per-range offset fold is actually exercised."""
    import hashlib
    import pyarrow.parquet as pq
    d = tmp_path / "shards"
    d.mkdir()
    ids = list(range(0, 120, 3))
    pq.write_table(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(["x"] * len(ids), pa.string()),
    }), str(d / "documents.parquet"))
    got = to_arrow(ops.train_shards(str(d), n_shards=4, seed="sh17",
                                    range_bits=60)).to_pydict()
    hv = {i: int.from_bytes(
        hashlib.md5(f"sh17:{i}".encode()).digest()[8:], "little")
        for i in ids}
    want = {}
    for sh in range(4):
        members = sorted((hv[i], i) for i in ids if hv[i] % 4 == sh)
        for pos, (_, i) in enumerate(members):
            want[i] = (sh, pos)
    assert got["doc_id"] == sorted(ids)
    assert {i: (s, p) for i, s, p in zip(got["doc_id"], got["shard_id"],
                                         got["pos"])} == want
    # positions are a contiguous 0..n-1 permutation inside every shard
    for sh in range(4):
        ps = sorted(p for s, p in zip(got["shard_id"], got["pos"])
                    if s == sh)
        assert ps == list(range(len(ps))) and ps


def test_corpus_curate(ray_session, tmp_path):
    """The quality APPLY equals intersecting the two (separately
    oracle-tested) flag streams on the driver: gopher keep == 1 and
    lm_score <= the exact p67 tertile boundary."""
    import pyarrow.parquet as pq
    d = tmp_path / "curate"
    d.mkdir()
    rng = np.random.default_rng(7)
    vocab = [f"word{i:03d}" for i in range(50)]
    texts = (["tiny doc here"] * 6                   # gopher-fail: short
             + [" ".join(["spam"] * 30)] * 6)        # gopher-fail: hot word
    for _ in range(8):                               # pass + common words
        texts.append(" ".join(rng.permutation(vocab[:25]).tolist()))
    for _ in range(4):                               # pass + rare words
        texts.append(" ".join(rng.permutation(vocab[25:]).tolist()))
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    sf = str(d)
    got = to_arrow(ops.corpus_curate(sf)).to_pydict()
    gq = to_arrow(ops.gopher_quality(sf)).to_pydict()
    lm = to_arrow(ops.unigram_lm_score(sf)).to_pydict()
    scores = sorted(lm["lm_score_micro"])
    import math
    b2 = scores[max(0, math.ceil((2 / 3) * len(scores)) - 1)]
    lm_ok = {d: s for d, s in zip(lm["doc_id"], lm["lm_score_micro"])
             if s <= b2}
    want = sorted((d, n, lm_ok[d])
                  for d, n, k in zip(gq["doc_id"], gq["n_words"],
                                     gq["keep"])
                  if k == 1 and d in lm_ok)
    assert list(zip(got["doc_id"], got["n_words"],
                    got["lm_score_micro"])) == want
    assert 0 < len(got["doc_id"]) < len(lm["doc_id"])  # filter really cuts


def test_pii_redact(ray_session):
    """Counts and redacted-text md5 match a pure-Python re.sub."""
    import hashlib
    import re

    texts = ["call 555 0199 now", "paid $1,234 on 2024-01-02",
             "no digits here", "a 12 b 99", "acct 123456789 pin 0000"]
    ds = rd.from_arrow(pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), pa.int32()),
        "text": pa.array(texts, pa.string()),
    }))
    got = to_arrow(ops.pii_redact(ds)).to_pydict()
    pat = re.compile(ops._PII_PATTERN)
    want = {}
    for i, t in enumerate(texts):
        n = len(pat.findall(t))
        if n:
            red = pat.sub(ops._PII_TOKEN, t)
            want[f"c{i}"] = (n, hashlib.md5(red.encode()).hexdigest())
    assert dict(zip(got["conv_id"],
                    zip(got["n_redactions"], got["redacted_md5"]))) == want
    assert "c2" not in got["conv_id"] and "c3" not in got["conv_id"]


def test_degree_distribution(ray_session, tmp_path):
    """Histogram matches the brute-force undirected degree counts."""
    import pyarrow.parquet as pq
    d = tmp_path / "dd"
    d.mkdir()
    pairs = [(1, p) for p in range(5)] + [(2, 0), (3, 0), (1, 0)]
    pq.write_table(pa.table({
        "l_suppkey": pa.array([s for s, _ in pairs], pa.int64()),
        "l_partkey": pa.array([p for _, p in pairs], pa.int64()),
    }), str(d / "lineitem.parquet"))
    # degrees: supplier 1 -> 5, suppliers 2,3 -> 1; part 0 -> 3,
    # parts 1..4 -> 1
    got = to_arrow(ops.degree_distribution(str(d), rows_per_group=2)) \
        .to_pydict()
    rows = dict(zip(zip(got["kind"], got["deg"]), got["n"]))
    assert rows == {("part", 1): 4, ("part", 3): 1,
                    ("supplier", 1): 2, ("supplier", 5): 1}


def test_semi_join_bloom(ray_session, tmp_path):
    """Bloom-prefiltered semi-join output == plain semi-join brute force
    (the bloom only sizes the shuffle; verification removes any false
    positives)."""
    import pyarrow.parquet as pq
    d = tmp_path / "sjb"
    d.mkdir()
    n_orders = 200
    prio = ["1-URGENT" if i % 7 == 0 else "3-MEDIUM"
            for i in range(n_orders)]
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(n_orders), pa.int64()),
        "o_orderpriority": pa.array(prio, pa.string()),
    }), str(d / "orders.parquet"))
    li = [(ok, ln, float(ok) + ln / 10.0)
          for ok in range(n_orders) for ln in range(1, 4)]
    pq.write_table(pa.table({
        "l_orderkey": pa.array([x[0] for x in li], pa.int64()),
        "l_linenumber": pa.array([x[1] for x in li], pa.int64()),
        "l_extendedprice": pa.array([x[2] for x in li], pa.float64()),
    }), str(d / "lineitem.parquet"))
    want = sorted((ok, ln, round(p * 100))
                  for ok, ln, p in li if prio[ok] == "1-URGENT")
    got = to_arrow(ops.semi_join_bloom(str(d), rows_per_group=50)) \
        .to_pydict()
    assert list(zip(got["l_orderkey"], got["l_linenumber"],
                    got["price_cents"])) == want


def test_bloom_positions_no_false_negatives(ray_session):
    """Every inserted key must hit its own bits (bloom soundness)."""
    keys = np.arange(0, 100000, 37, dtype=np.int64)
    pos = ops._bloom_positions(keys)
    assert pos.shape == (len(keys), ops._BLOOM_HASHES)
    assert pos.min() >= 0 and pos.max() < ops._BLOOM_BITS
    # deterministic across calls
    assert (ops._bloom_positions(keys) == pos).all()


def test_unigram_lm_score(ray_session, tmp_path):
    """Integer mean-inverse-probability score matches brute force; rare
    tokens score higher than common ones."""
    import pyarrow.parquet as pq
    from collections import Counter
    d = tmp_path / "lm"
    d.mkdir()
    texts = ["the the the common words here",
             "zyxqv flurble quizzical rarities",
             "the common words", "   "]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    flat = [w for t in texts for w in ops._ws_tokens(t)]
    cnt, N = Counter(flat), len(flat)
    want = {}
    for i, t in enumerate(texts):
        ws = ops._ws_tokens(t)
        if ws:
            want[i] = (len(ws),
                       sum((N * 1_000_000) // cnt[w] for w in ws)
                       // len(ws))
    got = to_arrow(ops.unigram_lm_score(str(d))).to_pydict()
    assert dict(zip(got["doc_id"],
                    zip(got["n_tokens"], got["lm_score_micro"]))) == want
    assert 3 not in got["doc_id"]           # tokenless doc excluded
    scores = dict(zip(got["doc_id"], got["lm_score_micro"]))
    assert scores[1] > scores[0]            # rare-token doc scores higher


def test_running_total(ray_session, tmp_path):
    """Per-customer running sum matches a pandas window with the same
    (o_orderdate, o_orderkey) total order, including date ties."""
    import pyarrow.parquet as pq
    d = tmp_path / "rt"
    d.mkdir()
    ts = pd.Timestamp("2024-01-01")
    rows = [
        # (orderkey, custkey, totalprice, date) — cust 7 has a date tie
        (4, 7, 10.005, ts), (2, 7, 20.0, ts), (9, 7, 5.0,
                                               ts + pd.Timedelta("1d")),
        (1, 3, 100.0, ts + pd.Timedelta("2d")), (8, 3, 0.494, ts),
        (5, 1, 7.0, ts),
    ]
    t = pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_custkey": pa.array([r[1] for r in rows], pa.int64()),
        "o_totalprice": pa.array([r[2] for r in rows], pa.float64()),
        "o_orderdate": pa.array([r[3] for r in rows],
                                pa.timestamp("us")),
    })
    pq.write_table(t, str(d / "orders.parquet"))
    got = to_arrow(ops.running_total(str(d))).to_pandas()
    df = t.to_pandas()
    df["cents"] = np.copysign(
        np.floor(np.abs(df["o_totalprice"] * 100) + 0.5),
        df["o_totalprice"]).astype(np.int64)
    df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"])
    df["run_cents"] = df.groupby("o_custkey")["cents"].cumsum()
    want = df.sort_values(["o_custkey", "o_orderkey"])[
        ["o_orderkey", "o_custkey", "run_cents"]].reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    # the tie (orders 2 and 4, same date) resolves by o_orderkey
    by_key = dict(zip(got["o_orderkey"], got["run_cents"]))
    assert by_key[2] == 2000 and by_key[4] == 2000 + 1001


def test_dedup_keep_best(ray_session, docs_dir):
    """Cluster {0,1,2}: doc 2 (the near-dup) is one char longer, so it is
    the representative; n_members counts the whole component."""
    out = to_arrow(ops.dedup_keep_best(docs_dir)).to_pydict()
    assert out["cluster_id"] == [0]
    assert out["keep_doc_id"] == [2]
    assert out["n_members"] == [3]
    assert out["kept_n_chars"][0] > 0


def test_dedup_keep_best_tie_lowest_id(ray_session, tmp_path):
    import pyarrow.parquet as pq
    d = tmp_path / "kb"
    d.mkdir()
    dup = "an identical document repeated three times for the cluster"
    texts = [dup, dup, dup, "something else entirely about other topics"]
    pq.write_table(pa.table({
        "doc_id": pa.array([5, 9, 3, 7], pa.int64()),
        "text": pa.array(texts, pa.string()),
        "n_chars": pa.array([len(x) for x in texts], pa.int64()),
    }), str(d / "documents.parquet"))
    out = to_arrow(ops.dedup_keep_best(str(d))).to_pydict()
    assert out["cluster_id"] == [3]      # min doc_id labels the cluster
    assert out["keep_doc_id"] == [3]     # equal lengths -> lowest id
    assert out["n_members"] == [3]


def test_dedup_keep_best_join_fallback(ray_session, docs_dir, monkeypatch):
    """The Dataset.join fallback (membership too big to broadcast) emits
    rows identical to the broadcast-probe fast path."""
    fast = to_arrow(ops.dedup_keep_best(docs_dir)).to_pydict()
    monkeypatch.setattr(ops, "_KEEP_BEST_BROADCAST_MAX", 0)
    slow = to_arrow(ops.dedup_keep_best(docs_dir)).to_pydict()
    assert fast == slow and fast["cluster_id"] == [0]


def test_token_stat_join_fallback(ray_session, docs_dir, monkeypatch):
    """The Dataset.join fallback of _attach_token_stat (vocabulary too
    big to broadcast) emits rows identical to the broadcast-probe fast
    path, for both consumers (tfidf df, unigram-LM cnt)."""
    def canon(d):
        return sorted(zip(*d.values()))

    fast_tfidf = to_arrow(ops.tfidf_topk(docs_dir)).to_pydict()
    ops._LM_SCORE_CACHE.clear()      # memo would hide the fallback path
    fast_lm = to_arrow(ops.unigram_lm_score(docs_dir)).to_pydict()
    monkeypatch.setattr(ops, "_VOCAB_BROADCAST_MAX", 0)
    ops._LM_SCORE_CACHE.clear()
    slow_tfidf = to_arrow(ops.tfidf_topk(docs_dir)).to_pydict()
    slow_lm = to_arrow(ops.unigram_lm_score(docs_dir)).to_pydict()
    ops._LM_SCORE_CACHE.clear()      # don't leak the fallback result
    assert canon(fast_tfidf) == canon(slow_tfidf) and fast_tfidf
    assert canon(fast_lm) == canon(slow_lm) and fast_lm


def test_dedup_apply(ray_session, docs_dir):
    """The end-to-end dedup APPLY emits documents minus the
    non-representative cluster members — parity vs composing the two
    (separately brute-tested) upstream stages on the driver."""
    import pyarrow.parquet as pq_
    got = to_arrow(ops.dedup_apply(docs_dir)).to_pydict()
    docs = pq_.read_table(str(docs_dir) + "/documents.parquet")
    members = to_arrow(ops.dedup_clusters(docs_dir)).to_pydict()
    kb = to_arrow(ops.dedup_keep_best(docs_dir)).to_pydict()
    dropped = set(members["doc_id"]) - set(kb["keep_doc_id"])
    want = sorted((d, n) for d, n in zip(docs["doc_id"].to_pylist(),
                                         docs["n_chars"].to_pylist())
                  if d not in dropped)
    assert list(zip(got["doc_id"], got["n_chars"])) == want
    # the fixture really has a duplicate cluster, so rows were dropped
    assert dropped and len(got["doc_id"]) == docs.num_rows - len(dropped)


def test_butterfly_count(ray_session, tmp_path):
    """Wedge counting matches itertools brute force on a known graph,
    including duplicate (supplier, part) lineitems collapsing to one
    edge."""
    import itertools
    import pyarrow.parquet as pq
    d = tmp_path / "bf"
    d.mkdir()
    edges = [(1, 10), (2, 10), (3, 10),          # part 10: 3 suppliers
             (1, 20), (2, 20),                   # part 20: sup 1, 2
             (1, 30), (3, 30),                   # part 30: sup 1, 3
             (2, 40),                            # degree-1 part
             (1, 10), (1, 10)]                   # duplicate lineitems
    pq.write_table(pa.table({
        "l_suppkey": pa.array([e[0] for e in edges], pa.int64()),
        "l_partkey": pa.array([e[1] for e in edges], pa.int64()),
    }), str(d / "lineitem.parquet"))
    got = to_arrow(ops.butterfly_count(str(d))).to_pydict()
    dedup = sorted(set(edges))
    parts = {}
    for s, p in dedup:
        parts.setdefault(p, set()).add(s)
    from collections import Counter
    w = Counter()
    for sups in parts.values():
        for a, b in itertools.combinations(sorted(sups), 2):
            w[(a, b)] += 1
    want = {k: v for k, v in w.items() if v >= 2}
    got_pairs = {(a, b): (sp, bf) for a, b, sp, bf in
                 zip(got["s1"], got["s2"], got["shared_parts"],
                     got["butterflies"])}
    assert {k: v[0] for k, v in got_pairs.items()} == want
    for (sp, bf) in got_pairs.values():
        assert bf == sp * (sp - 1) // 2
    # total butterflies on this graph: pairs (1,2) share {10,20} -> 1,
    # (1,3) share {10,30} -> 1; (2,3) share only part 10 -> excluded
    assert sum(bf for _, bf in got_pairs.values()) == 2


def test_bm25_topk(ray_session, tmp_path):
    """Integer-grid BM25 matches a pure-Python brute force (same floor
    chain) on a corpus with repeated and query-exclusive terms."""
    import pyarrow.parquet as pq
    from collections import Counter
    d = tmp_path / "bm25"
    d.mkdir()
    texts = [
        "apple banana cherry apple",            # doc 0 -> a query
        "banana banana date elderberry",        # doc 1 -> a query
        "cherry fig grape",                     # doc 2 -> a query
        "apple apple apple apple banana",
        "date elderberry fig grape honeydew",
        "unrelated words only here",
        "",                                      # tokenless
    ]
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))

    toks = [ops._ws_tokens(t) for t in texts]
    dls = {i: len(t) for i, t in enumerate(toks) if t}
    N = len(dls)
    avgdl = (sum(dls.values()) * 1_000_000) // N
    tfs = {i: Counter(t) for i, t in enumerate(toks)}
    K1, B = 1_200_000, 750_000

    def brute(qid, k=5):
        terms = sorted(set(toks[qid][:6]))
        scores = {}
        for doc, tf_c in tfs.items():
            s = 0
            for w in terms:
                tf = tf_c.get(w, 0)
                if not tf:
                    continue
                df = sum(1 for c in tfs.values() if w in c)
                idf = (N * 1000) // df
                br = (B * ((dls[doc] * 10**12) // avgdl)) // 10**6
                den = tf * 10**6 + (K1 * ((10**6 - B) + br)) // 10**6
                s += idf * (tf * (K1 + 10**6)) // den
            if s:
                scores[doc] = s
        ranked = sorted(scores.items(), key=lambda x: (-x[1], x[0]))[:k]
        return [(qid, r + 1, doc, s) for r, (doc, s) in enumerate(ranked)]

    want = [row for q in (0, 1, 2) for row in brute(q)]
    got = ops.bm25_topk(str(d)).to_pydict()
    got_rows = list(zip(got["q_id"], got["rnk"], got["doc_id"],
                        got["score_milli"]))
    assert got_rows == want
    # each query's own doc ranks first (it contains all its terms)
    top1 = {q: doc for q, r, doc, _ in got_rows if r == 1}
    assert top1 == {0: 0, 1: 1, 2: 2}


def test_chunk_text(ray_session, tmp_path):
    """Every chunk boundary and payload vs a brute-force slicer, incl.
    the short-doc, ragged-tail, empty-doc and unicode cases."""
    import hashlib
    import pyarrow.parquet as pq
    texts = ["a" * 100,                       # n < size -> 1 chunk
             "b" * 512,                       # n == size -> 1 chunk
             "c" * 513,                       # ragged 1-char tail
             "",                              # dropped
             "héllo wörld ünicode " * 60,     # non-ASCII payload
             "d" * (512 + 384 * 3)]           # exact multiple of stride
    d = tmp_path / "chunks"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    size, stride = 512, 384
    want = []
    for doc_id, t in enumerate(texts):
        if not t:
            continue
        n = len(t)
        nc = 1 if n <= size else (n - size + stride - 1) // stride + 1
        for i in range(nc):
            c = t[i * stride: i * stride + size]
            want.append((doc_id, i, len(c),
                         hashlib.md5(c.encode()).hexdigest()))
    got = to_arrow(ops.chunk_text(str(d))).to_pydict()
    assert list(zip(got["doc_id"], got["chunk_idx"], got["n_chars"],
                    got["chunk_md5"])) == want


def test_bigram_lift(ray_session, tmp_path):
    """Distributed lift == brute-force Counter lift with big-int floor
    division, including the min_cnt filter and (lift desc, a, b) order."""
    from collections import Counter
    import pyarrow.parquet as pq
    texts = ["new york city is in new york state",
             "new york city hosts the new york marathon",
             "san francisco bay meets san francisco fog",
             "the city by the bay is san francisco"] * 3
    d = tmp_path / "lift"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    cab = Counter()
    for t in texts:
        toks = ops._ws_tokens(t)
        cab.update((toks[i], toks[i + 1]) for i in range(len(toks) - 1))
    n_total = sum(cab.values())
    ca, cb = Counter(), Counter()
    for (a, b), c in cab.items():
        ca[a] += c
        cb[b] += c
    min_cnt, k = 3, 10
    rows = [(a, b, c, (c * n_total * 1_000_000) // (ca[a] * cb[b]))
            for (a, b), c in cab.items() if c >= min_cnt]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    want = rows[:k]
    assert len(want) >= 3                     # fixture is non-trivial
    got = to_arrow(ops.bigram_lift(str(d), min_cnt=min_cnt, k=k)) \
        .to_pydict()
    assert list(zip(got["a"], got["b"], got["cnt"],
                    got["lift_ppm"])) == want
    assert got["rnk"] == list(range(1, len(want) + 1))


def test_cooccur_pmi(ray_session, tmp_path):
    """Distributed windowed PMI == brute-force Counter PMI with big-int
    floor division: unordered lexicographic pairs at distances
    1..window-1, unigram marginals, min_cnt filter, (pmi desc, a, b)
    order."""
    from collections import Counter
    import pyarrow.parquet as pq
    texts = ["new york city is in new york state",
             "new york city hosts the new york marathon",
             "san francisco bay meets san francisco fog",
             "the city by the bay is san francisco"] * 3
    d = tmp_path / "pmi"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    window, min_cnt, k = 3, 3, 10
    uni, pair = Counter(), Counter()
    for t in texts:
        toks = ops._ws_tokens(t)
        uni.update(toks)
        for i in range(len(toks)):
            for dd in range(1, window):
                if i + dd < len(toks):
                    a, b = sorted((toks[i], toks[i + dd]))
                    pair[(a, b)] += 1
    n_tok, n_pairs = sum(uni.values()), sum(pair.values())
    rows = [(a, b, c,
             (c * n_tok * n_tok * 1_000_000)
             // (uni[a] * uni[b] * n_pairs))
            for (a, b), c in pair.items() if c >= min_cnt]
    rows.sort(key=lambda r: (-r[3], r[0], r[1]))
    want = rows[:k]
    assert len(want) >= 3                     # fixture is non-trivial
    got = to_arrow(ops.cooccur_pmi(str(d), window=window,
                                   min_cnt=min_cnt, k=k)).to_pydict()
    assert list(zip(got["a"], got["b"], got["cnt"],
                    got["pmi_ppm"])) == want
    assert got["rnk"] == list(range(1, len(want) + 1))


def _bpe_fixture_dir(tmp_path):
    import pyarrow.parquet as pq
    texts = ["the lower letter litter lattern",
             "newer fewer sewer brewer viewer",
             "hugging bugging mugging tugging",
             "low lower lowest newest fewest"] * 4
    d = tmp_path / "bpe"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    return d, texts


def _ref_bpe(texts, n_merges):
    """Reference Sennrich BPE over the word-dict: overlap-inclusive pair
    stats, ties (lhs, rhs) ascending, non-overlapping left-to-right
    merge rewrite, stop when the best pair occurs < 2 times."""
    from collections import Counter
    wc = Counter()
    for t in texts:
        wc.update(ops._ws_tokens(t))
    words = {w: list(w) for w in wc}
    merges = []
    for rank in range(1, n_merges + 1):
        stats = Counter()
        for w, syms in words.items():
            for i in range(len(syms) - 1):
                stats[(syms[i], syms[i + 1])] += wc[w]
        if not stats:
            break
        (l0, r0), c0 = min(stats.items(),
                           key=lambda kv: (-kv[1], kv[0]))
        if c0 < 2:
            break
        merges.append((rank, l0, r0, c0))
        for w, syms in words.items():
            res, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == l0
                        and syms[i + 1] == r0):
                    res.append(l0 + r0)
                    i += 2
                else:
                    res.append(syms[i])
                    i += 1
            words[w] = res
    return merges


def test_bpe_pair_counts(ray_session, tmp_path):
    """Distributed weighted char-pair counts == brute-force Counter over
    the word-dict (overlap-inclusive), (cnt desc, lhs, rhs) order."""
    from collections import Counter
    d, texts = _bpe_fixture_dir(tmp_path)
    wc = Counter()
    for t in texts:
        wc.update(ops._ws_tokens(t))
    stats = Counter()
    for w, c in wc.items():
        for i in range(len(w) - 1):
            stats[(w[i], w[i + 1])] += c
    k = 15
    rows = sorted(((l, r, c) for (l, r), c in stats.items()),
                  key=lambda x: (-x[2], x[0], x[1]))[:k]
    got = to_arrow(ops.bpe_pair_counts(str(d), k=k)).to_pydict()
    assert list(zip(got["lhs"], got["rhs"], got["cnt"])) == rows
    assert got["rnk"] == list(range(1, len(rows) + 1))


def test_bpe_train(ray_session, tmp_path):
    """Distributed word-dict BPE == the reference Sennrich loop merge
    for merge: same pairs, same ranks, same at-merge-time counts —
    including merges of previously-merged multi-char symbols."""
    d, texts = _bpe_fixture_dir(tmp_path)
    n_merges = 12
    want = _ref_bpe(texts, n_merges)
    assert len(want) == n_merges          # fixture has ≥ 12 real merges
    # at least one learned rule must involve a multi-char symbol (i.e.
    # the loop genuinely builds on earlier merges)
    assert any(len(l) > 1 or len(r) > 1 for _, l, r, _ in want)
    got = to_arrow(ops.bpe_train(str(d), n_merges=n_merges)).to_pydict()
    assert list(zip(got["rank"], got["lhs"], got["rhs"],
                    got["cnt"])) == want
    # the distributed per-round path (local_max=0 forces it) must
    # produce the identical merge trace and final symbol table as the
    # guarded driver-local fast path
    ds = ops.read_table(str(d), "documents", columns=["text"])
    m_dist, fin_dist = ops._bpe_train_state(ds, 8, n_merges,
                                            local_max=0)
    assert m_dist == want
    m_loc, fin_loc = ops._bpe_train_state(ds, 8, n_merges)
    assert m_loc == want

    def snap(final):
        t = to_arrow(final).to_pydict()
        return sorted(zip(t["word"],
                          [tuple(s) for s in t["syms"]], t["cnt"]))
    assert snap(fin_dist) == snap(fin_loc)


def test_bpe_token_count(ray_session, tmp_path):
    """Per-doc BPE token counts == reference encode (apply the reference
    merge rules in rank order to every word, sum lengths per doc)."""
    d, texts = _bpe_fixture_dir(tmp_path)
    n_merges = 12
    merges = _ref_bpe(texts, n_merges)
    enc_cache = {}

    def encode(w):
        if w not in enc_cache:
            syms = list(w)
            for _, l0, r0, _ in merges:
                res, i = [], 0
                while i < len(syms):
                    if (i + 1 < len(syms) and syms[i] == l0
                            and syms[i + 1] == r0):
                        res.append(l0 + r0)
                        i += 2
                    else:
                        res.append(syms[i])
                        i += 1
                syms = res
            enc_cache[w] = len(syms)
        return enc_cache[w]

    want = []
    for doc_id, t in enumerate(texts):
        toks = ops._ws_tokens(t)
        if toks:
            want.append((doc_id, len(toks),
                         sum(encode(w) for w in toks)))
    got = to_arrow(ops.bpe_token_count(str(d), n_merges=n_merges)) \
        .to_pydict()
    assert list(zip(got["doc_id"], got["n_words"],
                    got["n_bpe_tokens"])) == want
    # merges really compress: fewer BPE tokens than characters
    chars = sum(len(w) for t in texts for w in ops._ws_tokens(t))
    assert sum(got["n_bpe_tokens"]) < chars


def test_pair_ops_adversarial_oracle_parity(ray_session, tmp_path):
    """The text-analysis documents-only oracles hash-match on an
    adversarial corpus: multi-byte UTF-8 (emoji, CJK), combining
    characters, the \\x1f separator char inside tokens, NULL / empty /
    whitespace-only docs (including one all-NULL parquet row group),
    and heavy count ties — pinning that Arrow's codepoint slicing,
    bytewise least/greatest canonicalisation, block-schema typing and
    the engine's tie-breaks all agree with SQL."""
    d = _adversarial_docs_dir(tmp_path)
    _assert_oracle_parity(d, (
        "cooccur_pmi", "bpe_pair_counts", "ngram_topk", "bigram_lift",
        "chunk_text", "corpus_stats", "token_count", "quality_score",
        "gopher_quality", "exact_dedup", "doc_fingerprint_rolling",
        "hll_distinct"))


def _adversarial_docs_dir(tmp_path):
    import pyarrow.parquet as pq
    texts = [
        "naïve café naïve café crème",
        "日本 語 日本 語 テスト 日本",
        "🍎 🍏 🍎 🍏 🍐 🍎 🍏",
        "a\x1fb c a\x1fb c a\x1fb",
        "étude e\u0301tude étude",  # precomposed vs combining accent
        None, "", "   \t  ",
        "tie tie tie kie kie kie",
    ] * 3 + [None, None, None]   # one row group of ONLY NULL texts
    n = len(texts)
    d = tmp_path / "adv2"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(n), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["xx", "yy"] * (n // 2) + ["xx"] * (n % 2),
                         pa.string()),
        "source": pa.array(["s0"] * n, pa.string()),
        "n_chars": pa.array([len(t) if t else 0 for t in texts],
                            pa.int64()),
    }), str(d / "documents.parquet"),
        # tiny row groups force multi-block reads with an ALL-NULL text
        # block — the schema-inference hazard must reproduce regardless
        # of what the shared DataContext looks like by this test
        row_group_size=3)
    return d


def _assert_oracle_parity(d, names):
    import duckdb
    import __ray_entry__ as entrymod
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    con.execute("PRAGMA threads=2")
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{d}/documents.parquet')")
    for name in names:
        want = con.execute(oracles[name]).fetch_arrow_table() \
            .to_pandas()
        got = to_arrow(qs[name](str(d))).to_pandas()
        if len(want) == 0:
            assert len(got) == 0, name
            continue
        want = want[sorted(want.columns)]
        got = got[sorted(got.columns)]
        assert got.columns.tolist() == want.columns.tolist(), name
        want = want.sort_values(list(want.columns)) \
            .reset_index(drop=True)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        assert got.values.tolist() == want.values.tolist(), name


def test_dedup_family_adversarial_oracle_parity(ray_session, tmp_path):
    """The dedup/sketch/curation documents-only oracles hash-match on
    the adversarial corpus (multi-byte UTF-8, control bytes inside
    tokens, NULL/empty docs, tie-heavy counts)."""
    d = _adversarial_docs_dir(tmp_path)
    _assert_oracle_parity(d, (
        "dedup_minhash", "dedup_simhash", "dedup_ngram_jaccard",
        "dedup_cdc_chunks", "distinct_token_kmv", "countmin_sketch",
        "sample_hash", "lang_count", "pivot_doc_langs",
        "rollup_lang_source", "pack_sequences"))


def test_lm_curation_adversarial_oracle_parity(ray_session, tmp_path):
    """The LM-scoring / curation / cluster-resolution documents-only
    oracles hash-match on the adversarial corpus."""
    d = _adversarial_docs_dir(tmp_path)
    _assert_oracle_parity(d, (
        "unigram_lm_score", "ccnet_buckets", "corpus_curate",
        "decontaminate", "dedup_clusters", "dedup_keep_best",
        "dedup_apply", "repetition_ngrams", "tfidf_topk",
        "inverted_index"))


def test_retrieval_sampling_adversarial_oracle_parity(ray_session,
                                                      tmp_path):
    """The remaining documents-only oracles (retrieval, sampling,
    fingerprints, shards) hash-match on the adversarial corpus."""
    d = _adversarial_docs_dir(tmp_path)
    _assert_oracle_parity(d, (
        "bm25_topk", "containment_pairs", "dataset_mix",
        "distinct_token_kmv_by_lang", "doc_fingerprint",
        "dup_passages", "lang_id", "stratified_sample",
        "token_count_bpe", "train_shards"))


def test_events_adversarial_oracle_parity(ray_session, tmp_path):
    """The events-only relational oracles hash-match on an adversarial
    event stream: timestamp ties within a user (event_id tie-break),
    gaps landing EXACTLY on the 30-minute sessionize boundary,
    zero/negative/huge values, malformed and edge-case JSON props,
    an empty event_type string, single-event users, one heavily
    skewed user, and storage order shuffled against time order."""
    import datetime as dt
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod
    base = dt.datetime(2024, 5, 1, 0, 0, 0)
    s = dt.timedelta(seconds=1)
    rows = []  # (event_id, user, offset_s, etype, value, props)
    # user 1: three events at the SAME instant + one exactly 30 min
    # later (the sessionize gap boundary: strictly-greater starts a new
    # session, equal must NOT) + one at 30 min + 1 s (must split)
    rows += [(11, 1, 0, "view", 0.0, '{"k": 1}'),
             (10, 1, 0, "click", -1.5, '{"k": -2}'),
             (12, 1, 0, "view", 1e12, '{"k": 9007199254740993}'),
             (13, 1, 1800, "purchase", 2.0, '{"k":0}'),
             (14, 1, 3601, "view", 3.0, '{ "k" :  7 }')]
    # user 2: single event, malformed / stringy props
    rows += [(20, 2, 5, "view", 0.0, '{"k": "12"}')]
    # user 3: skewed — 500 events alternating types, some malformed
    # props, shuffled storage order
    for i in range(500):
        rows.append((300 + i, 3, 7 * i,
                     ["view", "click", ""][i % 3],
                     float(i % 5) - 2.0,
                     ['{"k": %d}' % (i - 250), "not json", "{}",
                      '{"kk": 3}', '{"k": 2147483648}'][i % 5]))
    # user 4: descending storage order, boundary-adjacent gaps
    rows += [(41, 4, 10_000, "purchase", 1.0, "{}"),
             (40, 4, 10_000 - 1801, "click", 1.0, '{"k": -0}'),
             (42, 4, 10_000 + 1799, "view", 1.0, '{"k": 5}')]
    import random
    random.Random(7).shuffle(rows)
    d = tmp_path / "advev"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + r[2] * s for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([r[4] for r in rows], pa.float64()),
        "props": pa.array([r[5] for r in rows], pa.string()),
    }), str(d / "events.parquet"), row_group_size=64)
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    con.execute("PRAGMA threads=2")
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{d}/events.parquet')")
    for name in ("sessionize", "interarrival_stats", "funnel_stages",
                 "json_props_extract", "event_type_stats",
                 "events_hourly", "events_sliding_window",
                 "percentile_by_group", "topk_by_group", "asof_join",
                 "range_join"):
        want = con.execute(oracles[name]).fetch_arrow_table() \
            .to_pandas()
        res = qs[name](str(d))
        got = res if isinstance(res, pd.DataFrame) \
            else to_arrow(res).to_pandas()
        if len(want) == 0:
            assert len(got) == 0, name
            continue
        want = want[sorted(want.columns)]
        got = got[sorted(got.columns)]
        assert got.columns.tolist() == want.columns.tolist(), name
        want = want.sort_values(list(want.columns)) \
            .reset_index(drop=True)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        assert got.values.tolist() == want.values.tolist(), name


def test_embeddings_adversarial_oracle_parity(ray_session, tmp_path):
    """The embeddings-only ANN/dedup oracles hash-match on an
    adversarial vector table: an all-zero vector (cosine norm 0),
    exact duplicates, a negated vector, axis-aligned one-hots,
    denormal-small components, and two tiny vectors parallel to ``base``
    (norm below 1e-12, where an epsilon norm floor would scale them
    off the unit sphere and miss their cosine-1 pairs)."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod
    rng = np.random.default_rng(11)
    dim = 64                        # the oracles pin the table's shape
    vecs = []
    base = rng.normal(size=dim).astype(np.float32)
    vecs.append(np.zeros(dim, np.float32))          # zero norm
    vecs.append(base)
    vecs.append(base.copy())                        # exact duplicate
    vecs.append(-base)                              # antipodal
    for i in range(4):
        e = np.zeros(dim, np.float32)
        e[i] = 1.0
        vecs.append(e)                              # one-hots
    vecs.append(np.full(dim, 1e-30, np.float32))    # denormal-small
    for _ in range(11):
        vecs.append(rng.normal(size=dim).astype(np.float32))
    vecs.append(base * np.float32(1e-14))           # parallel, norm < 1e-12
    vecs.append(base * np.float32(2e-14))
    d = tmp_path / "advemb"
    d.mkdir()
    pq.write_table(pa.table({
        "vec_id": pa.array(range(len(vecs)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
        "label": pa.array([i % 3 for i in range(len(vecs))],
                          pa.int32()),
    }), str(d / "embeddings.parquet"))
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    con.execute("PRAGMA threads=2")
    con.execute(f"CREATE VIEW embeddings AS SELECT * FROM "
                f"read_parquet('{d}/embeddings.parquet')")
    for name in ("knn_bruteforce", "knn_graph", "dedup_embedding",
                 "ann_lsh_buckets", "ann_lsh_query",
                 "kmeans_ivf_assign", "ivf_query", "pq_codes",
                 "pq_query", "ivfpq_query", "semantic_dedup",
                 "dedup_embedding_lsh"):
        want = con.execute(oracles[name]).fetch_arrow_table() \
            .to_pandas()
        res = qs[name](str(d))
        got = res if isinstance(res, pd.DataFrame) \
            else to_arrow(res).to_pandas()
        if len(want) == 0:
            assert len(got) == 0, name
            continue
        want = want[sorted(want.columns)]
        got = got[sorted(got.columns)]
        assert got.columns.tolist() == want.columns.tolist(), name
        want = want.sort_values(list(want.columns)) \
            .reset_index(drop=True)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        assert got.values.tolist() == want.values.tolist(), name


def test_cooccur_pmi_floored_tie_boundary(ray_session, tmp_path):
    """The float prefilter must keep BOTH members of a floored-pmi tie
    straddling the top-k boundary.  Construction: pair (aA,bA) has
    marginals m·m and (cA,dA) has (m-1)(m+1) = m²-1, both with count
    c — ratios c·N²·1e6/(m²·P) = exactly 8e6 vs 8e6·m²/(m²-1); at
    m = 3000 both FLOOR to 8,000,000 while the real ratios differ by
    ~1.1e-7 relative, far outside a bare 1e-9 band.  Exact order puts
    the lex-smaller (aA,bA) first; a prefilter without the full
    floor-unit allowance drops it before the bigint rescore."""
    import pyarrow.parquet as pq
    c, m = 5, 3000
    texts = (["aA bA"] * c + ["cA dA"] * c
             + ["aA"] * (m - c) + ["bA"] * (m - c)
             + ["cA"] * (m - 1 - c) + ["dA"] * (m + 1 - c))
    d = tmp_path / "pmitie"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    # sanity: the construction really is a floored tie (N = 4m, P = 2c)
    N, P = 4 * m, 2 * c
    v1 = (c * N * N * 1_000_000) // (m * m * P)
    v2 = (c * N * N * 1_000_000) // ((m - 1) * (m + 1) * P)
    assert v1 == v2 == 8_000_000
    got = to_arrow(ops.cooccur_pmi(str(d), window=3, min_cnt=c,
                                   k=1)).to_pydict()
    assert (got["a"], got["b"], got["cnt"], got["pmi_ppm"]) == \
        (["aA"], ["bA"], [c], [8_000_000])


def test_graph_adversarial_oracle_parity(ray_session, tmp_path):
    """The lineitem-derived graph oracles hash-match on a degenerate
    graph: heavily duplicated (supplier, part) rows, a hub part shared
    by many suppliers, a long chain, a 4-clique-ish butterfly nest,
    an isolated supplier (sole supplier of its part), and two
    disconnected components."""
    import duckdb
    import pyarrow.parquet as pq
    import __ray_entry__ as entrymod
    edges = []
    edges += [(1, 100)] * 7 + [(2, 100)] * 3 + [(3, 100)]   # hub part
    edges += [(1, 101), (2, 101)]            # butterfly with part 100
    edges += [(1, 102), (2, 102)]            # second butterfly
    for i in range(10):                       # chain s10..s20
        edges += [(10 + i, 200 + i), (11 + i, 200 + i)]
    edges += [(50, 300)]                      # isolated supplier
    edges += [(60, 400), (61, 400), (60, 401), (61, 401),
              (62, 402), (60, 402)]           # disconnected component
    d = tmp_path / "advgraph"
    d.mkdir()
    pq.write_table(pa.table({
        "l_suppkey": pa.array([e[0] for e in edges], pa.int64()),
        "l_partkey": pa.array([e[1] for e in edges], pa.int64()),
    }), str(d / "lineitem.parquet"), row_group_size=8)
    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()
    con = duckdb.connect()
    con.execute("PRAGMA threads=2")
    con.execute(f"CREATE VIEW lineitem AS SELECT * FROM "
                f"read_parquet('{d}/lineitem.parquet')")
    for name in ("pagerank", "bfs_hops", "degree_distribution",
                 "butterfly_count", "supplier_similarity"):
        want = con.execute(oracles[name]).fetch_arrow_table() \
            .to_pandas()
        res = qs[name](str(d))
        got = res if isinstance(res, pd.DataFrame) \
            else to_arrow(res).to_pandas()
        if len(want) == 0:
            assert len(got) == 0, name
            continue
        want = want[sorted(want.columns)]
        got = got[sorted(got.columns)]
        assert got.columns.tolist() == want.columns.tolist(), name
        want = want.sort_values(list(want.columns)) \
            .reset_index(drop=True)
        got = got.sort_values(list(got.columns)).reset_index(drop=True)
        assert got.values.tolist() == want.values.tolist(), name


def test_interarrival_stats(ray_session, tmp_path):
    """Gap sums/maxes vs pandas brute force: ts ties broken by event_id,
    single-event users report zero gaps, cross-user boundaries masked."""
    import datetime as dt
    import pyarrow.parquet as pq
    base = dt.datetime(2024, 3, 1, 9, 0, 0)
    sec = dt.timedelta(seconds=1)
    rows = [  # (event_id, user, t_offset_s)
        (5, 1, 0), (2, 1, 10), (9, 1, 10),    # tie at +10 -> order 2, 9
        (3, 2, 7),                            # single event: no gaps
        (1, 3, 100), (4, 3, 40), (6, 3, 0),   # out of order in storage
    ]
    d = tmp_path / "inter"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + r[2] * sec for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array(["e"] * len(rows), pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    }), str(d / "events.parquet"))
    got = to_arrow(ops.interarrival_stats(str(d))).to_pydict()
    want = {
        1: (3, 2, 10_000_000, 10_000_000),    # gaps 10s then 0s (tie)
        2: (1, 0, 0, 0),
        3: (3, 2, 100_000_000, 60_000_000),   # 0->40 (40s), 40->100 (60s)
    }
    assert dict(zip(got["user_id"],
                    zip(got["n_events"], got["n_gaps"],
                        got["sum_gap_us"], got["max_gap_us"]))) == want


def test_histogram_numeric(ray_session, tmp_path):
    """Bucket boundaries on the exact cents grid, incl. the half-away
    rounding edge and a value exactly on a bucket boundary."""
    import pyarrow.parquet as pq
    prices = [0.0, 24999.99, 25000.00, 25000.005, 74999.994, 100.005]
    d = tmp_path / "hist"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array(range(len(prices)), pa.int64()),
        "o_custkey": pa.array([1] * len(prices), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(prices), pa.string()),
        "o_totalprice": pa.array(prices, pa.float64()),
        "o_orderdate": pa.array(
            [pd.Timestamp("2024-01-01")] * len(prices),
            pa.timestamp("us")),
        "o_orderpriority": pa.array(["5-LOW"] * len(prices), pa.string()),
    }), str(d / "orders.parquet"))
    got = to_arrow(ops.histogram_numeric(str(d))).to_pydict()
    # cents: 0, 2499999, 2500000, 2500001 (half-away), 7499999, 10001
    want = {0: (0, 3), 1: (2_500_000, 2), 2: (5_000_000, 1)}
    assert dict(zip(got["bucket"],
                    zip(got["lo_cents"], got["n"]))) == want


def test_conv_flatten(ray_session, tmp_path):
    """Flat-doc md5 vs brute force: storage order scrambled, restore by
    (conv_id, turn_idx); separator and role prefix byte-exact."""
    import datetime as dt
    import hashlib
    import pyarrow.parquet as pq
    rows = [  # (conv, idx, role, text) written deliberately out of order
        ("c2", 1, "assistant", "saw the logs"),
        ("c1", 2, "user", "thanks"),
        ("c1", 0, "user", "hej there"),
        ("c2", 0, "user", "look at this"),
        ("c1", 1, "assistant", "hello!"),
    ]
    d = tmp_path / "convs"
    d.mkdir()
    pq.write_table(pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "turn_idx": pa.array([r[1] for r in rows], pa.int32()),
        "role": pa.array([r[2] for r in rows], pa.string()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "tool": pa.array([""] * len(rows), pa.string()),
        "ts": pa.array([dt.datetime(2024, 1, 1)] * len(rows),
                       pa.timestamp("us")),
    }), str(d / "turns.parquet"))
    ds = rd.read_parquet(str(d / "turns.parquet"))
    got = to_arrow(ops.conv_flatten(ds)).to_pydict()
    docs = {
        "c1": "user: hej there\nassistant: hello!\nuser: thanks",
        "c2": "user: look at this\nassistant: saw the logs",
    }
    assert got["conv_id"] == ["c1", "c2"]
    assert got["n_turns"] == [3, 2]
    assert got["n_chars"] == [len(docs["c1"]), len(docs["c2"])]
    assert got["doc_md5"] == [
        hashlib.md5(docs[c].encode()).hexdigest() for c in ("c1", "c2")]
    # regression for the schema-less empty-block class: Ray emits
    # SCHEMA-LESS blocks for empty sort/groupby partitions and they
    # BYPASS map_batches UDFs (probed: an empty-retyping identity map
    # never sees them).  The repartition guard coalesces the groupby
    # empties so every block that CARRIES ROWS has the full schema and
    # no rows are lost; zero-row schema-less residue from the final
    # sort's empty ranges is benign (every consumer filters on
    # num_rows) and unavoidable on a 2-conversation fixture.
    out = ops.conv_flatten(ds).materialize()
    n_rows = 0
    for ref in out.to_arrow_refs():
        blk = ray.get(ref)
        if blk.num_rows:
            assert blk.schema.names == ["conv_id", "n_turns", "n_chars",
                                        "doc_md5"], blk.schema
            n_rows += blk.num_rows
    assert n_rows == 2


def test_skyline_kernel_matches_bruteforce():
    """Vectorised frontier kernel vs O(n²) dominance on random integer
    grids with heavy ties and exact duplicates."""
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(1, 60))
        p = rng.integers(0, 8, n).astype(np.int64)
        d = rng.integers(0, 8, n).astype(np.int64)
        want = np.array([
            not any((p[j] >= p[i] and d[j] >= d[i]
                     and (p[j] > p[i] or d[j] > d[i]))
                    for j in range(n))
            for i in range(n)])
        got = ops._skyline_kernel(p, d)
        assert (got == want).all(), (trial, p.tolist(), d.tolist())


def test_skyline_distributed(ray_session, tmp_path):
    """Per-block combiner + final reduce == whole-table kernel, with a
    duplicated frontier point surviving twice."""
    import datetime as dt
    import pyarrow.parquet as pq
    base = dt.datetime(2024, 1, 1)
    day = dt.timedelta(days=1)
    rows = [  # (key, price, day_offset) — (300, 5) duplicated
        (1, 300.0, 5), (2, 300.0, 5), (3, 250.0, 9), (4, 400.0, 1),
        (5, 100.0, 2), (6, 300.0, 4), (7, 399.99, 9),
    ]
    d = tmp_path / "sky"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array([r[0] for r in rows], pa.int64()),
        "o_custkey": pa.array([1] * len(rows), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(rows), pa.string()),
        "o_totalprice": pa.array([r[1] for r in rows], pa.float64()),
        "o_orderdate": pa.array([base + r[2] * day for r in rows],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["5-LOW"] * len(rows), pa.string()),
    }), str(d / "orders.parquet"))
    got = to_arrow(ops.skyline(str(d))).to_pydict()
    # frontier: 4 (400, d1), 7 (399.99, d9); 1,2 (300, d5) dominated by 7
    assert got["o_orderkey"] == [4, 7]


def test_snapshot_diff(ray_session, tmp_path):
    """Every delta class exercised: added (%11), removed (%7), changed
    (%5), the %55 added-and-repriced overlap, and silent rows."""
    import pyarrow.parquet as pq
    keys = [1, 2, 5, 7, 11, 35, 55, 77, 10, 22]
    d = tmp_path / "snap"
    d.mkdir()
    pq.write_table(pa.table({
        "o_orderkey": pa.array(keys, pa.int64()),
        "o_custkey": pa.array([1] * len(keys), pa.int64()),
        "o_orderstatus": pa.array(["O"] * len(keys), pa.string()),
        "o_totalprice": pa.array([10.0 * k for k in keys], pa.float64()),
        "o_orderdate": pa.array([pd.Timestamp("2024-01-01")] * len(keys),
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["5-LOW"] * len(keys), pa.string()),
    }), str(d / "orders.parquet"))
    got = to_arrow(ops.snapshot_diff(str(d))).to_pydict()
    want = {  # key -> (status, old_cents, new_cents)
        5: ("changed", 5000, 5100),
        7: ("removed", 7000, -1),
        10: ("changed", 10000, 10100),
        11: ("added", -1, 11000),
        22: ("added", -1, 22000),
        35: ("removed", 35000, -1),     # %7 wins: absent from B
        55: ("added", -1, 55100),       # absent from A, repriced in B
        # key 77: %11 -> absent from A; %7 -> absent from B: silent
    }
    assert dict(zip(got["o_orderkey"],
                    zip(got["status"], got["old_cents"],
                        got["new_cents"]))) == want


def test_customer_ltv(ray_session, tmp_path):
    """3-table enrichment vs pandas brute force: an order with no
    lineitems counts with zero revenue; a customer with no orders is
    silent; last_order_ts is the max over the customer's orders."""
    import datetime as dt
    import pyarrow.parquet as pq
    base = dt.datetime(2024, 6, 1)
    day = dt.timedelta(days=1)
    d = tmp_path / "ltv"
    d.mkdir()
    pq.write_table(pa.table({
        "c_custkey": pa.array([1, 2, 3], pa.int64()),
        "c_name": pa.array(["ann", "bob", "cid"], pa.string()),
        "c_mktsegment": pa.array(["AUTO", "BUILD", "AUTO"], pa.string()),
        "c_acctbal": pa.array([0.0] * 3, pa.float64()),
    }), str(d / "customer.parquet"))
    pq.write_table(pa.table({
        "o_orderkey": pa.array([10, 11, 12], pa.int64()),
        "o_custkey": pa.array([1, 1, 2], pa.int64()),
        "o_orderstatus": pa.array(["O"] * 3, pa.string()),
        "o_totalprice": pa.array([0.0] * 3, pa.float64()),
        "o_orderdate": pa.array([base, base + 3 * day, base + day],
                                pa.timestamp("us")),
        "o_orderpriority": pa.array(["5-LOW"] * 3, pa.string()),
    }), str(d / "orders.parquet"))
    pq.write_table(pa.table({  # order 12 has NO lineitems
        "l_orderkey": pa.array([10, 10, 11], pa.int64()),
        "l_extendedprice": pa.array([100.0, 50.005, 20.0], pa.float64()),
        "l_discount": pa.array([0.0, 0.1, 0.5], pa.float64()),
    }), str(d / "lineitem.parquet"))
    got = to_arrow(ops.customer_ltv(str(d))).to_pydict()
    us = 86_400_000_000
    base_us = int(base.timestamp() * 1_000_000)
    # cust 1: rev = 10000 + round(45.0045*100)=4500 + 1000 = 15500
    assert got["c_custkey"] == [1, 2]
    assert got["n_orders"] == [2, 1]
    assert got["gross_cents"] == [10000 + 4500 + 1000, 0]
    assert got["last_order_ts_us"] == [base_us + 3 * us, base_us + us]
    assert got["c_name"] == ["ann", "bob"]
    assert got["c_mktsegment"] == ["AUTO", "BUILD"]


def test_funnel_stages(ray_session, tmp_path):
    """Sequential-order semantics: a click BEFORE the first view does
    not count, ties resolve by event_id, dead stages emit -1."""
    import datetime as dt
    import pyarrow.parquet as pq
    base = dt.datetime(2024, 2, 1)
    s = dt.timedelta(seconds=1)
    rows = [  # (event_id, user, offset_s, type)
        # user 1: full funnel, with a decoy click at t0 (before view)
        (1, 1, 0, "click"), (2, 1, 1, "view"), (3, 1, 2, "click"),
        (4, 1, 3, "purchase"),
        # user 2: view only (purchase precedes click, so neither counts)
        (5, 2, 0, "purchase"), (6, 2, 1, "view"),
        # user 3: never views
        (7, 3, 0, "signup"),
        # user 4: view and click SAME ts — event_id orders view first
        (8, 4, 5, "click"), (9, 4, 5, "purchase"),
        (10, 4, 4, "view"),
    ]
    d = tmp_path / "funnel"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "ts": pa.array([base + r[2] * s for r in rows],
                       pa.timestamp("us")),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "event_type": pa.array([r[3] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array(["{}"] * len(rows), pa.string()),
    }), str(d / "events.parquet"))
    got = to_arrow(ops.funnel_stages(str(d))).to_pydict()
    t0 = int(base.timestamp() * 1_000_000)
    M = 1_000_000
    want = {
        1: (3, t0 + 1 * M, t0 + 2 * M, t0 + 3 * M),
        2: (1, t0 + 1 * M, -1, -1),
        3: (0, -1, -1, -1),
        # user 4: view@4, then click@5 (id 8 < 9), purchase@5 after it
        4: (3, t0 + 4 * M, t0 + 5 * M, t0 + 5 * M),
    }
    assert dict(zip(got["user_id"],
                    zip(got["n_stages"], got["t1_us"], got["t2_us"],
                        got["t3_us"]))) == want


def test_json_props_extract(ray_session, tmp_path):
    """Missing / malformed props rows drop identically; sums and maxes
    aggregate the extracted integers exactly."""
    import datetime as dt
    import pyarrow.parquet as pq
    rows = [  # (type, props)
        ("click", '{"k": 5}'), ("click", '{"k": -3}'),
        ("click", 'not json'), ("view", '{"k": 7}'),
        ("view", '{"x": 9}'),  # no k -> dropped
    ]
    d = tmp_path / "props"
    d.mkdir()
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([dt.datetime(2024, 1, 1)] * len(rows),
                       pa.timestamp("us")),
        "user_id": pa.array([1] * len(rows), pa.int64()),
        "event_type": pa.array([r[0] for r in rows], pa.string()),
        "value": pa.array([0.0] * len(rows), pa.float64()),
        "props": pa.array([r[1] for r in rows], pa.string()),
    }), str(d / "events.parquet"))
    got = to_arrow(ops.json_props_extract(str(d))).to_pydict()
    assert dict(zip(got["event_type"],
                    zip(got["n"], got["sum_k"], got["max_k"]))) == {
        "click": (2, 2, 5), "view": (1, 7, 7)}


def test_supplier_similarity(ray_session, tmp_path):
    """Jaccard over distinct neighbor sets vs brute force — duplicate
    lineitems collapse, min_shared filters, floor division exact."""
    import pyarrow.parquet as pq
    edges = [  # (supp, part) with a duplicate edge
        (1, 10), (1, 11), (1, 12), (1, 12),
        (2, 10), (2, 11), (2, 13),
        (3, 12), (3, 13),
        (4, 99),
    ]
    d = tmp_path / "sim"
    d.mkdir()
    pq.write_table(pa.table({
        "l_orderkey": pa.array(range(len(edges)), pa.int64()),
        "l_suppkey": pa.array([e[0] for e in edges], pa.int64()),
        "l_partkey": pa.array([e[1] for e in edges], pa.int64()),
        "l_extendedprice": pa.array([1.0] * len(edges), pa.float64()),
        "l_discount": pa.array([0.0] * len(edges), pa.float64()),
    }), str(d / "lineitem.parquet"))
    nb = {}
    for s, p in set(edges):
        nb.setdefault(s, set()).add(p)
    want = {}
    for a in sorted(nb):
        for b in sorted(nb):
            if a < b:
                w = len(nb[a] & nb[b])
                if w >= 2:
                    want[(a, b)] = (
                        w, w * 1_000_000 // len(nb[a] | nb[b]))
    got = to_arrow(ops.supplier_similarity(str(d))).to_pydict()
    assert dict(zip(zip(got["s1"], got["s2"]),
                    zip(got["w"], got["jaccard_micro"]))) == want
    assert want == {(1, 2): (2, 2_000_000 // 4)}


def test_levenshtein_matches_duckdb():
    """The engine DP == DuckDB levenshtein on random word pairs."""
    import duckdb
    rng = np.random.default_rng(3)
    words = ["".join(rng.choice(list("abcde"), rng.integers(0, 8)))
             for _ in range(40)]
    con = duckdb.connect()
    for i in range(0, 40, 2):
        a, b = words[i], words[i + 1]
        want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        assert ops._levenshtein(a, b) == want, (a, b)


def test_part_fuzzy_match(ray_session, tmp_path):
    """Blocked ER matching vs brute force: duplicates collapse, blocks
    isolate, threshold filters."""
    import pyarrow.parquet as pq
    names = ["hot bolt", "hot bolt", "cold bolt", "old bolt",
             "hot ring", "big ring", "tiny widget"]
    d = tmp_path / "fuzzy"
    d.mkdir()
    pq.write_table(pa.table({
        "p_partkey": pa.array(range(len(names)), pa.int64()),
        "p_name": pa.array(names, pa.string()),
    }), str(d / "part.parquet"))
    uniq = sorted(set(names))
    want = {}
    for i, a in enumerate(uniq):
        for b in uniq[i + 1:]:
            if a.split(" ", 1)[1] == b.split(" ", 1)[1]:
                dist = ops._levenshtein(a, b)
                if dist <= 3:
                    want[(a, b)] = dist
    assert ("cold bolt", "old bolt") in want       # dist 1
    got = to_arrow(ops.part_fuzzy_match(str(d))).to_pydict()
    assert dict(zip(zip(got["a"], got["b"]), got["dist"])) == want


def test_bfs_hops(ray_session, tmp_path):
    """Frontier flooding vs brute-force BFS on a two-component graph:
    the source component gets exact hop counts, the other is absent."""
    from collections import deque
    import pyarrow.parquet as pq
    edges = [  # (supp, part): component A = {1,2} x {10,11}; B = {9}x{99}
        (1, 10), (1, 11), (2, 11), (9, 99),
    ]
    d = tmp_path / "bfs"
    d.mkdir()
    pq.write_table(pa.table({
        "l_orderkey": pa.array(range(len(edges)), pa.int64()),
        "l_suppkey": pa.array([e[0] for e in edges], pa.int64()),
        "l_partkey": pa.array([e[1] for e in edges], pa.int64()),
        "l_extendedprice": pa.array([1.0] * len(edges), pa.float64()),
        "l_discount": pa.array([0.0] * len(edges), pa.float64()),
    }), str(d / "lineitem.parquet"))
    off = 1 << 32
    adj = {}
    for s, p in edges:
        adj.setdefault(s, []).append(p + off)
        adj.setdefault(p + off, []).append(s)
    want, q = {1: 0}, deque([1])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if v not in want:
                want[v] = want[u] + 1
                q.append(v)
    got = to_arrow(ops.bfs_hops(str(d))).to_pydict()
    assert dict(zip(got["node"], got["hops"])) == want
    assert 9 not in dict(zip(got["node"], got["hops"]))


def test_hll_distinct(ray_session, tmp_path):
    """HLL registers/estimate vs a sequential reference implementation,
    and the estimate lands within the 3-sigma band for m=256."""
    import hashlib as hl
    import pyarrow.parquet as pq
    rng = np.random.default_rng(7)
    vocab = [f"w{i:04d}" for i in range(3000)]
    texts = [" ".join(rng.choice(vocab, 60)) for _ in range(200)]
    d = tmp_path / "hll"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    distinct = set()
    for t in texts:
        distinct.update(ops._ws_tokens(t))
    regs = [0] * ops._HLL_M
    for w in distinct:
        h = int.from_bytes(hl.md5(w.encode()).digest()[8:], "little")
        b, rem = h >> 56, h & ((1 << 56) - 1)
        rho = 57 if rem == 0 else (rem & -rem).bit_length()
        regs[b] = max(regs[b], rho)
    s = sum(1 << (64 - m) for m in regs)
    want_est = (ops._HLL_ALPHA_MICRO * 256 * 256 * (1 << 64)) \
        // (1_000_000 * s)
    got = to_arrow(ops.hll_distinct(str(d))).to_pydict()
    assert got["reg_sum"] == [sum(regs)]
    assert got["v_zero"] == [regs.count(0)]
    assert got["est_raw"] == [want_est]
    # standard error ~1.04/sqrt(256) = 6.5%; allow 3 sigma
    assert abs(got["est_raw"][0] - len(distinct)) < 0.2 * len(distinct)


def test_countmin_sketch(ray_session, tmp_path):
    """Registers sum to the total token count per row, and point
    estimates never underestimate the true frequency."""
    from collections import Counter
    import pyarrow.parquet as pq
    texts = ["the cat sat on the mat", "the dog ate the bone",
             "a cat and a dog"] * 5
    d = tmp_path / "cm"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    true = Counter()
    for t in texts:
        true.update(ops._ws_tokens(t))
    sketch = to_arrow(ops.countmin_sketch(str(d)))
    df = sketch.to_pandas()
    total = sum(true.values())
    for r in range(ops._CM_DEPTH):
        assert df[df["rw"] == r]["cnt"].sum() == total
    for w, c in true.items():
        assert ops.cm_point_estimate(sketch, w) >= c
    assert ops.cm_point_estimate(sketch, "the") == true["the"]  # no collision at this scale


def test_containment_pairs(ray_session, tmp_path):
    """Directional containment vs brute force: a short doc fully inside
    a long one scores 1.0 one way and low the other; stop-shingles
    (df > max_df) are excluded on both sides."""
    import pyarrow.parquet as pq
    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lam mu nu xi omicron pi rho sigma tau upsilon")
    short = "delta epsilon zeta eta theta"         # contained in base
    boiler = "common common common"                 # shared by many docs
    texts = [base, short + " phi chi psi",
             "totally different words entirely here now"] + \
        [boiler + f" unique{i} word{i} tail{i}" for i in range(8)]
    d = tmp_path / "cont"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    max_df, thr = 4, 500_000
    mh = ops.MinHasher(shingle=3)
    grams = {i: set(mh.gram_strings(t)) for i, t in enumerate(texts)}
    from collections import Counter
    df_cnt = Counter()
    for g in grams.values():
        df_cnt.update(g)
    kept = {i: {x for x in g if df_cnt[x] <= max_df}
            for i, g in grams.items()}
    want = {}
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            inter = len(kept[a] & kept[b])
            if not inter:
                continue
            ca, cb = len(kept[a]), len(kept[b])
            cam = inter * 1_000_000 // ca
            cbm = inter * 1_000_000 // cb
            if max(cam, cbm) >= thr:
                want[(a, b)] = (inter, ca, cb, cam, cbm)
    assert want, "fixture must produce containment pairs"
    got = to_arrow(ops.containment_pairs(str(d), max_df=max_df,
                                         threshold_micro=thr)).to_pydict()
    assert dict(zip(zip(got["a"], got["b"]),
                    zip(got["inter"], got["ca"], got["cb"],
                        got["cont_a_micro"], got["cont_b_micro"]))) == want


def test_quantile_global(ray_session, tmp_path):
    """Histogram-fold quantiles == duckdb quantile_disc over the same
    cents, across several n values."""
    import duckdb
    import pyarrow.parquet as pq
    rng = np.random.default_rng(5)
    for n in (1, 7, 100):
        prices = np.round(rng.uniform(1, 1000, n), 2)
        d = tmp_path / f"qg{n}"
        d.mkdir()
        pq.write_table(pa.table({
            "o_orderkey": pa.array(range(n), pa.int64()),
            "o_custkey": pa.array([1] * n, pa.int64()),
            "o_orderstatus": pa.array(["O"] * n, pa.string()),
            "o_totalprice": pa.array(prices, pa.float64()),
            "o_orderdate": pa.array([pd.Timestamp("2024-01-01")] * n,
                                    pa.timestamp("us")),
            "o_orderpriority": pa.array(["5-LOW"] * n, pa.string()),
        }), str(d / "orders.parquet"))
        got = ops.quantile_global(str(d)).to_pydict()
        con = duckdb.connect()
        want = con.execute(
            "SELECT quantile_disc(CAST(round(o_totalprice*100) AS "
            "BIGINT), [0.5, 0.95, 0.99]) FROM "
            f"read_parquet('{d}/orders.parquet')").fetchone()[0]
        assert got["cents"] == [int(x) for x in want], n


def test_ccnet_buckets(ray_session, tmp_path):
    """Tertile bucketing vs brute force: low-score (predictable) docs
    land in head, boundary docs inclusive, masses add up."""
    import duckdb
    import pyarrow.parquet as pq
    rng = np.random.default_rng(9)
    common = ["the", "of", "and", "to", "in"]
    rare = [f"rare{i}" for i in range(200)]
    texts = []
    for i in range(30):
        if i < 10:
            texts.append(" ".join(rng.choice(common, 20)))     # head
        elif i < 20:
            texts.append(" ".join(np.concatenate(
                [rng.choice(common, 10), rng.choice(rare, 10)])))
        else:
            texts.append(" ".join(rng.choice(rare, 20)))       # tail
    d = tmp_path / "ccnet"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))
    scores = to_arrow(ops.unigram_lm_score(str(d))).to_pydict()
    s = np.array(scores["lm_score_micro"], np.int64)
    nt = np.array(scores["n_tokens"], np.int64)
    con = duckdb.connect()
    b1, b2 = con.execute(
        "SELECT quantile_disc(x, 0.3333333333333333), "
        "quantile_disc(x, 0.6666666666666666) FROM "
        "(SELECT unnest(?) AS x)", [s.tolist()]).fetchone()
    bucket = np.where(s <= b1, "head", np.where(s <= b2, "middle",
                                                "tail"))
    got = to_arrow(ops.ccnet_buckets(str(d))).to_pydict()
    for i, b in enumerate(got["bucket"]):
        m = bucket == b
        assert got["n_docs"][i] == int(m.sum()), b
        assert got["sum_tokens"][i] == int(nt[m].sum()), b
        assert got["min_score_micro"][i] == int(s[m].min()), b
        assert got["max_score_micro"][i] == int(s[m].max()), b
    assert sum(got["n_docs"]) == len(texts)
    # the common-word docs must be the predictable head
    assert set(np.flatnonzero(bucket == "head")) <= set(range(20))


def test_corpus_stats(ray_session, docs_dir):
    """Fused one-pass stats == recomputation from the raw texts."""
    texts = to_arrow(ops.read_table(docs_dir, "documents",
                                    columns=["text"])).to_pydict()["text"]
    got = ops.corpus_stats(docs_dir).to_pydict()
    chars = [len(t) for t in texts]
    toks = [len(ops._ws_tokens(t)) for t in texts]
    assert got["n_docs"] == [len(texts)]
    assert got["n_empty"] == [sum(1 for c in chars if c == 0)]
    assert got["total_chars"] == [sum(chars)]
    assert got["total_tokens"] == [sum(toks)]
    assert got["max_chars"] == [max(chars)]
    assert got["min_chars"] == [min(chars)]


def test_inverted_index_bruteforce(ray_session, docs_dir):
    """Engine postings == pure-Python reference, including the broadcast
    stop-token (df > max_df) and hapax (df < min_df) pruning."""
    import hashlib
    import re
    texts = to_arrow(ops.read_table(docs_dir, "documents",
                                    columns=["doc_id", "text"])
                     ).to_pydict()
    ref: dict[str, list[int]] = {}
    for did, txt in zip(texts["doc_id"], texts["text"]):
        for tok in set(t for t in re.split(r"[\t\n\f\r ]+", txt) if t):
            ref.setdefault(tok, []).append(did)
    min_df, max_df = 2, 3
    exp = {t: sorted(ids) for t, ids in ref.items()
           if min_df <= len(ids) <= max_df}
    got = to_arrow(ops.inverted_index(docs_dir, min_df=min_df,
                                      max_df=max_df)).to_pydict()
    assert got["token"] == sorted(exp)          # output sorted by token
    for i, tok in enumerate(got["token"]):
        ids = exp[tok]
        assert got["df"][i] == len(ids)
        assert got["first_doc"][i] == ids[0]
        assert got["last_doc"][i] == ids[-1]
        assert got["postings_md5"][i] == hashlib.md5(
            ",".join(map(str, ids)).encode()).hexdigest()
    # the stop filter really fired: 'the' appears in >3 docs
    over = [t for t, ids in ref.items() if len(ids) > max_df]
    assert over and not set(over) & set(got["token"])


def test_dup_passages(ray_session, tmp_path):
    """Exact duplicate-passage counts vs a brute-force window-TEXT
    counter (stronger than hash parity: a collision or a corrupted
    Horner would diverge from text equality).  Covers cross-doc dup,
    within-doc dup, sub-k docs (excluded), unique docs (0 dups) and
    irregular whitespace."""
    import collections
    import re as _re
    import pyarrow.parquet as pq
    k = 8
    shared = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    inner = "p q r s t u v w"
    texts = [
        shared,                                   # 10 toks, 3 windows
        shared,                                   # exact dup of doc 0
        f"{inner} fill1 fill2 {inner}",           # within-doc repeat
        "too short to have windows",              # 5 toks -> excluded
        " ".join(f"u{i}" for i in range(20)),     # unique, 0 dups
        "m1\tm2  m3 m4\nm5 m6 m7 m8 m9",          # whitespace soup
    ]
    d = tmp_path / "dp"
    d.mkdir()
    pq.write_table(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), str(d / "documents.parquet"))

    wins: dict[int, list[tuple]] = {}
    counter: collections.Counter = collections.Counter()
    for did, txt in enumerate(texts):
        toks = [t for t in _re.split(r"[\t\n\f\r ]+", txt) if t]
        ws = [tuple(toks[i:i + k]) for i in range(len(toks) - k + 1)]
        if ws:
            wins[did] = ws
            counter.update(ws)

    got = to_arrow(ops.dup_passages(str(d), k=k)).to_pydict()
    assert got["doc_id"] == sorted(wins)
    for i, did in enumerate(got["doc_id"]):
        ws = wins[did]
        nd = sum(1 for w in ws if counter[w] >= 2)
        assert got["n_windows"][i] == len(ws), did
        assert got["n_dup_windows"][i] == nd, did
        assert got["dup_ppm"][i] == nd * 1_000_000 // len(ws), did
    # the fixture exercises all three dup regimes
    by = dict(zip(got["doc_id"], got["n_dup_windows"]))
    assert by[0] == 3 and by[1] == 3          # full cross-doc dup
    assert by[2] > 0                          # within-doc repeat
    assert by[4] == 0                         # unique doc
    assert 3 not in by                        # sub-k doc excluded
