"""End-to-end: Ray pipeline output must match the sequential oracle
(SURVEY.md §5), and both must hit P/R >= 0.95 vs the generated gold triples."""

import numpy as np
import pyarrow as pa
import pytest

import ray
import ray.data as rd


def to_arrow(ds) -> pa.Table:
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables)

from weak_supervision_for_ner_ray.data import FIRST_NAMES, builtin_gazetteers
from weak_supervision_for_ner_ray.oracle import Oracle
from weak_supervision_for_ner_ray.pipelines.kg import (annotate_turns,
                                                       build_kg,
                                                       mentions_table)


def _dataset(small_corpus):
    turns, _, _ = small_corpus
    return rd.from_arrow(turns)


def _mention_set(table):
    return set(zip(table["conv_id"].to_pylist(),
                   table["turn_idx"].to_pylist(),
                   table["source"].to_pylist(),
                   table["start"].to_pylist(),
                   table["end"].to_pylist(),
                   table["label"].to_pylist(),
                   [round(c, 4) for c in table["conf"].to_pylist()]))


@pytest.fixture(scope="module")
def oracle_annotated(small_corpus):
    turns, _, _ = small_corpus
    o = Oracle()
    return o, o.annotate(turns)


def test_ray_mentions_match_oracle(ray_session, small_corpus,
                                   oracle_annotated):
    """Distributed annotation == sequential annotation, span for span."""
    turns, _, _ = small_corpus
    ds = mentions_table(_dataset(small_corpus))
    got = _mention_set(to_arrow(ds))

    oracle, annotated = oracle_annotated
    exp = set()
    for (conv_id, ti), (doc, layers) in annotated.items():
        for source, spans in layers.by_source.items():
            for (s, e), vals in spans.items():
                for lab, conf in vals:
                    exp.add((conv_id, ti, source, s, e, lab,
                             round(np.float32(conf).item(), 4)))
    missing = exp - got
    extra = got - exp
    assert not missing and not extra, (
        f"missing={list(missing)[:5]} extra={list(extra)[:5]} "
        f"(|exp|={len(exp)}, |got|={len(got)})")


def test_per_turn_text_equality(ray_session, small_corpus):
    """north rule invariant: per-turn text preserved under restored
    (conv_id, turn_idx) order."""
    turns, _, _ = small_corpus
    annotated = to_arrow(annotate_turns(_dataset(small_corpus)))
    got = {(c, t): x for c, t, x in
           zip(annotated["conv_id"].to_pylist(),
               annotated["turn_idx"].to_pylist(),
               annotated["text"].to_pylist())}
    exp = {(c, t): x for c, t, x in
           zip(turns["conv_id"].to_pylist(),
               turns["turn_idx"].to_pylist(),
               turns["text"].to_pylist())}
    assert got == exp


def test_kg_triples_match_oracle_and_gold(ray_session, small_corpus,
                                          tmp_path_factory):
    turns, gold_spans, gold_triples = small_corpus
    workdir = str(tmp_path_factory.mktemp("kg"))
    out = build_kg(_dataset(small_corpus), workdir, n_iter=2)
    got = to_arrow(out["triples"])
    got_set = set(zip(got["conv_id"].to_pylist(),
                      got["turn_idx"].to_pylist(),
                      got["subj"].to_pylist(),
                      got["pred"].to_pylist(),
                      got["obj"].to_pylist()))

    # vs oracle: identical
    oracle = Oracle()
    rows, _ = oracle.triples(turns, n_iter=2)
    oracle_set = {(ci, ti, s, p, o)
                  for (ci, ti, s, sl, p, o, ol, sid, oid, c) in rows}
    sym = got_set ^ oracle_set
    assert len(sym) == 0, f"ray vs oracle diff: {list(sym)[:6]}"

    # vs gold: P/R >= 0.95
    gold = set(zip(gold_triples["conv_id"].to_pylist(),
                   gold_triples["turn_idx"].to_pylist(),
                   gold_triples["subj"].to_pylist(),
                   gold_triples["pred"].to_pylist(),
                   gold_triples["obj"].to_pylist()))
    tp = len(gold & got_set)
    precision = tp / max(1, len(got_set))
    recall = tp / max(1, len(gold))
    assert precision >= 0.95, precision
    assert recall >= 0.95, recall


def test_graph_tables(ray_session, small_corpus, tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("kg2"))
    out = build_kg(_dataset(small_corpus), workdir, n_iter=1)
    nodes = to_arrow(out["nodes"])
    edges = to_arrow(out["edges"])
    assert nodes.num_rows > 0 and edges.num_rows > 0
    assert set(nodes.column_names) == {"entity_id", "canonical", "label",
                                       "n_mentions"}
    assert set(edges.column_names) == {"src_id", "pred", "dst_id", "weight"}
    # edges sorted by (src_id, pred); node ids unique
    src = edges["src_id"].to_pylist()
    pred = edges["pred"].to_pylist()
    assert list(zip(src, pred)) == sorted(zip(src, pred))
    ids = nodes["entity_id"].to_pylist()
    assert len(ids) == len(set(ids))
    # linked entities dominate: gazetteer ids look like LABEL:name
    assert sum(1 for i in ids if not i.startswith("m:")) > 0


def test_pathological_conversation_windows(ray_session):
    """A conversation far beyond the window size is split into bounded
    (conv_id, window) groups: the pipeline completes, every turn is
    annotated, and doc-level history does not leak across windows."""
    import pyarrow as pa
    import ray
    import ray.data as rd

    from weak_supervision_for_ner_ray.data import (FIRST_NAMES,
                                                   builtin_gazetteers)
    from weak_supervision_for_ner_ray.stages.annotate import annotate_pipeline

    n = 120
    texts = []
    for i in range(n):
        if i == 0:
            texts.append("Maria Vandermeer joined the project .")
        else:
            texts.append(f"Vandermeer sent update number {i} .")
    turns = pa.table({
        "conv_id": pa.array(["big"] * n),
        "turn_idx": pa.array(range(n), pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array(texts),
    })
    bank_ref = ray.put((builtin_gazetteers(), FIRST_NAMES))
    out_tables = [ray.get(r) for r in annotate_pipeline(
        rd.from_arrow(turns), bank_ref,
        max_conv_window=50).to_arrow_refs()]
    out = pa.concat_tables([t for t in out_tables if t.num_rows])
    assert out.num_rows == n
    # window isolation: turn 0's full-name seed lives in window 0 only;
    # doc_history never fires on the FIRST turn of a later window's seed
    # (its trie is rebuilt per window), so per-window it re-seeds from the
    # window's own full mentions.  Check turn 1 (same window) got history.
    from weak_supervision_for_ner_ray.stages.encode import MentionRows
    from weak_supervision_for_ner_ray.sources.registry import SOURCE_INDICES
    rows = MentionRows(out.sort_by("turn_idx"))
    hist_id = SOURCE_INDICES["doc_history"]
    l1 = rows.layers(1)
    assert "doc_history" in l1.by_source and l1.by_source["doc_history"]


def _sorted_frame(ds):
    t = to_arrow(ds)
    return t.to_pandas().sort_values(list(t.column_names)) \
        .reset_index(drop=True)


def test_partitioning_invariance(ray_session, small_corpus,
                                 tmp_path_factory):
    """Distribution-determinism (SURVEY.md §5): the same corpus split into
    1, 7 or 16 input blocks produces identical ner spans, triples, nodes
    and edges, and trained params equal to rounding (seeded EM, same
    iteration count)."""
    import pandas as pd

    turns, _, _ = small_corpus
    runs = []
    for nblocks in (1, 7, 16):
        wd = str(tmp_path_factory.mktemp(f"det_{nblocks}"))
        ds = rd.from_arrow(turns).repartition(nblocks)
        out = build_kg(ds, wd, n_iter=2, seed=42, lineage=False)
        runs.append((nblocks, out["params"],
                     {k: _sorted_frame(out[k])
                      for k in ("ner", "triples", "nodes", "edges")}))
    _, params0, frames0 = runs[0]
    for nblocks, params, frames in runs[1:]:
        # the EM sums float64 partials per obs shard, and the shard cut
        # follows the obs file layout, so the params agree to rounding
        # only, not in their digest
        for name in ("startprob", "transmat", "emission_probs"):
            np.testing.assert_allclose(getattr(params, name),
                                       getattr(params0, name),
                                       rtol=0, atol=1e-12,
                                       err_msg=f"{name} at {nblocks}")
        for k, df in frames.items():
            pd.testing.assert_frame_equal(frames0[k], df, check_exact=True,
                                          obj=f"{k} at {nblocks} blocks")


def test_edge_case_turns_flow_through(ray_session, tmp_path_factory):
    """Empty, whitespace-only, unicode and punctuation-only turns survive
    the full pipeline (annotate -> EM -> decode -> triples) without
    crashing or corrupting neighbouring turns."""
    texts = [
        "",                       # empty
        "   ",                    # whitespace only
        "!!! ??? ...",            # punctuation only
        "Maria Østergård visited Zürich .",      # unicode names
        "数据 处理 引擎",           # CJK
        "Maria Jensen joined Acme Corp .",       # normal control
    ] * 4                          # repeat so EM has a few sequences
    n = len(texts)
    turns = pa.table({
        "conv_id": pa.array([f"c{i % 4}" for i in range(n)]),
        "turn_idx": pa.array([i // 4 for i in range(n)], pa.int32()),
        "role": pa.array(["user"] * n),
        "text": pa.array(texts),
    })
    wd = str(tmp_path_factory.mktemp("edge"))
    out = build_kg(rd.from_arrow(turns), wd, n_iter=1, lineage=False)
    ner = to_arrow(out["ner"]) if out["ner"].count() else None
    # the control turn still produces a PERSON mention
    assert ner is not None
    labs = set(ner.column("label").to_pylist())
    assert "PERSON" in labs or "COMPANY" in labs or "ORG" in labs


def test_null_text_is_an_empty_turn(ray_session, tmp_path_factory):
    """A NULL ``text`` is an empty turn: zero tokens and no mentions, its
    row kept with its NULL, and the Ray path and the oracle agree on the
    triples around it."""
    from weak_supervision_for_ner_ray.data import generate_corpus

    base, _, _ = generate_corpus(12, 5)
    conv0 = base["conv_id"][0].as_py()
    last = max(t for c, t in zip(base["conv_id"].to_pylist(),
                                 base["turn_idx"].to_pylist()) if c == conv0)
    extra = pa.table({
        "conv_id": [conv0, "null-conv", "null-conv"],
        "turn_idx": pa.array([last + 1, 0, 1], pa.int32()),
        "role": ["user", "user", "assistant"],
        "text": pa.array([None, None, "Maria Jensen joined Acme Corp ."],
                         pa.string()),
    })
    turns = pa.concat_tables([base.select(extra.column_names)
                              .cast(extra.schema), extra])
    nulls = {(conv0, last + 1), ("null-conv", 0)}

    wd = str(tmp_path_factory.mktemp("null_text"))
    out = build_kg(rd.from_arrow(turns), wd, n_iter=1, lineage=False)
    annotated = to_arrow(out["annotated"])
    keyed = {(c, t): (x, n) for c, t, x, n in zip(
        annotated["conv_id"].to_pylist(), annotated["turn_idx"].to_pylist(),
        annotated["text"].to_pylist(), annotated["n_tokens"].to_pylist())}
    assert len(keyed) == turns.num_rows
    assert all(keyed[k] == (None, 0) for k in nulls)
    ner = to_arrow(out["ner"])
    assert not nulls & set(zip(ner["conv_id"].to_pylist(),
                               ner["turn_idx"].to_pylist()))
    got = to_arrow(out["triples"])
    got_set = set(zip(got["conv_id"].to_pylist(),
                      got["turn_idx"].to_pylist(),
                      got["subj"].to_pylist(), got["pred"].to_pylist(),
                      got["obj"].to_pylist()))
    assert ("null-conv", 1, "Maria Jensen", "works_for",
            "Acme Corp") in got_set

    mentions = to_arrow(mentions_table(rd.from_arrow(turns)))
    assert not nulls & set(zip(mentions["conv_id"].to_pylist(),
                               mentions["turn_idx"].to_pylist()))

    rows, _ = Oracle().triples(turns, n_iter=1)
    assert got_set == {(ci, ti, s, p, o)
                       for (ci, ti, s, sl, p, o, ol, sid, oid, c) in rows}


def _graph_free_build(texts, wd):
    """build_kg over one-turn conversations: {table: (rows, schema)}."""
    turns = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(len(texts))]),
        "turn_idx": pa.array([0] * len(texts), pa.int32()),
        "role": pa.array(["user"] * len(texts)),
        "text": pa.array(texts),
    })
    out = build_kg(rd.from_arrow(turns), wd, n_iter=1, lineage=False)
    return {k: (out[k].count(), out[k].schema().base_schema)
            for k in ("ner", "triples", "nodes", "edges")}


def test_build_kg_without_triples_gives_empty_graph_tables(ray_session,
                                                            tmp_path):
    """Turns with entities but no relation decode ner spans and no
    triple: the build returns empty nodes and edges with their schemas
    (no Ray write task had a row to write)."""
    from weak_supervision_for_ner_ray.pipelines.kg import (EDGES_SCHEMA,
                                                           NODES_SCHEMA)
    got = _graph_free_build(["Maria Jensen called .", "Hello Maria Jensen .",
                             "Maria Jensen ?"], str(tmp_path))
    assert got["ner"][0] > 0
    assert got["triples"][0] == 0
    assert got["nodes"] == (0, NODES_SCHEMA)
    assert got["edges"] == (0, EDGES_SCHEMA)


def test_build_kg_without_entities_gives_empty_tables(ray_session,
                                                      tmp_path):
    """Turns with no entity decode to nothing at all: the build returns
    empty ner, triples, nodes and edges with their schemas."""
    from weak_supervision_for_ner_ray.pipelines.kg import (EDGES_SCHEMA,
                                                           NER_COLUMNS,
                                                           NODES_SCHEMA,
                                                           TRIPLE_COLUMNS)
    got = _graph_free_build(["hello there .", "ok , thanks .",
                             "see you soon ."], str(tmp_path))
    assert all(n == 0 for n, _ in got.values())
    assert got["ner"][1].names == NER_COLUMNS
    assert got["triples"][1].names == TRIPLE_COLUMNS
    assert got["nodes"] == (0, NODES_SCHEMA)
    assert got["edges"] == (0, EDGES_SCHEMA)
