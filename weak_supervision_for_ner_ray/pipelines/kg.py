"""End-to-end knowledge-graph construction pipeline.

read turns → groupby(conv_id) LF bank (turn- and conversation-level
sources) → obs encoding → obs parquet (the EM input + resume point) →
sharded EM → fused decode/link/triple stage → grouped canonicalization →
sorted node/edge parquet tables (north_star shape).
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data as rd
from ray.data.aggregate import Count

from ..data import builtin_gazetteers, DETECTOR_FIRST_NAMES
from ..stages.annotate import annotate_pipeline
from .train import train_hmm_sharded

# turn-level detector sources with a standalone mentions query + DuckDB
# SQL oracle (the SQL-expressible subset of the LF bank)
TURN_DETECTOR_SOURCES = ("date_detector", "time_detector",
                         "money_detector", "number_detector",
                         "legal_detector")


def detector_mentions(turns_ds, source: str):
    """(conv_id, turn_idx, mention, label) rows for ONE turn-level
    detector, with the bank's exclusivity rules applied (run_turn_sources
    order: date/time/money unexcluded; proper2/nnp/legal exclude d/t/m;
    number excludes d/t/m/legal — annotations.py:275-324).

    A pure task-pool ``map_batches`` stage: these detectors need no
    gazetteers or models, so per-batch setup is just four closures.  This
    is the hash-checked bridge between the KG annotation surface and the
    driver's DuckDB oracle (round-4 item: break the oracle circularity).
    """
    if source not in TURN_DETECTOR_SOURCES:
        raise ValueError(f"not a turn-level detector source: {source}")

    def batch_fn(batch: pa.Table) -> pa.Table:
        from ..functions import detectors as det
        from ..functions.spans import Layers
        from ..sources.registry import LFBank, make_span_generators
        from ..tokenizer import make_doc

        _, proper2_gen, nnp_gen, _ = make_span_generators()
        exc_dtm = LFBank._EXC_DTM
        exc_dtml = LFBank._EXC_DTML
        convs, turns, mentions, labels = [], [], [], []
        conv_col = batch.column("conv_id").to_pylist()
        turn_col = batch.column("turn_idx").to_pylist()
        for conv_id, turn_idx, text in zip(conv_col, turn_col,
                                           batch.column("text").to_pylist()):
            doc = make_doc(text)
            layers = Layers()

            def run(gen, src, exc=()):
                layers.clear_source(src)
                for s, e, lab in gen(doc, layers):
                    layers.add(s, e, lab, src, to_exclude=exc)

            run(det.date_detector, "date_detector")
            run(det.time_detector, "time_detector")
            run(det.money_detector, "money_detector")
            if source in ("legal_detector", "number_detector"):
                run(lambda d, _l: proper2_gen(d), "proper2_detector",
                    exc_dtm)
                run(lambda d, _l: nnp_gen(d), "nnp_detector", exc_dtm)
                run(det.legal_detector, "legal_detector", exc_dtm)
            if source == "number_detector":
                run(det.number_detector, "number_detector", exc_dtml)
            for (s, e), vals in sorted(layers.by_source.get(source,
                                                            {}).items()):
                convs.append(conv_id)
                turns.append(turn_idx)
                mentions.append(doc.span_text(s, e))
                labels.append(vals[0][0])
        return pa.table({
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
            "mention": pa.array(mentions, pa.string()),
            "label": pa.array(labels, pa.string()),
        })

    return turns_ds.map_batches(batch_fn, batch_format="pyarrow",
                                zero_copy_batch=True)


def annotate_turns(turns_ds, *, gazetteers=None, first_names=None,
                   concurrency=None, batch_size: int = 256):
    """Lazy annotation pipeline: turns -> turn- and conversation-level
    mentions (nested ``mentions`` column)."""
    gaz = gazetteers if gazetteers is not None else builtin_gazetteers()
    fn = first_names if first_names is not None else DETECTOR_FIRST_NAMES
    return annotate_pipeline(turns_ds, ray.put((gaz, fn)),
                             concurrency=concurrency, batch_size=batch_size)


def write_once(ds, path: str, stamp: str = "", **write_kw) -> str:
    """Resumable parquet write: skipped when ``<path>/_SUCCESS`` holds
    ``stamp``, otherwise ``ds`` is written and the marker written last.
    ``overwrite`` clears the part files a killed earlier attempt left in
    ``path`` (the default append mode would keep them beside the new set,
    and every reader would see those rows twice).  Returns ``path``."""
    marker = os.path.join(path, "_SUCCESS")
    if os.path.exists(marker):
        with open(marker) as fd:
            if fd.read() == stamp:
                return path
    ds.write_parquet(path, mode="overwrite", **write_kw)
    with open(marker, "w") as fd:
        fd.write(stamp)
    return path


def write_obs(turns_ds, workdir: str, *, gazetteers=None, first_names=None,
              concurrency=None, batch_size: int = 256,
              lin_actor=None) -> str:
    """The one annotate -> encode -> write step, shared by the HMM, the
    majority-vote and the Snorkel paths: returns ``<workdir>/obs``.

    The obs table keeps ``text`` and the nested ``mentions`` beside the
    encoded observation, so it serves as annotated corpus, EM input
    (column-pruned read) and decode/triple input.  It is the resume point:
    a rerun skips everything up to here.  Small row groups let downstream
    reads split into enough blocks to pack the pool (single-row-group
    files cap parallelism).  Written UNSORTED on purpose: a global
    sort("obs_fp") shuffles the wide (text + nested mentions) corpus just
    to cluster duplicate turns, and measured ~52 s at sf0.1/32 cpus while
    improving the per-shard EM dedup not at all (33.8 vs 33.5 s for 2
    passes) and decode by only ~4 s — the heavy formulaic turns repeat
    often enough that per-shard/per-worker dedup and memoisation already
    catch them without global clustering."""
    from ..stages.encode import encode_obs_batch
    from ..stages.util import with_lineage

    annotated = annotate_turns(turns_ds, gazetteers=gazetteers,
                               first_names=first_names,
                               concurrency=concurrency,
                               batch_size=batch_size)
    obs = annotated.map_batches(
        with_lineage(encode_obs_batch, "encode_obs", lin_actor),
        batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
    return write_once(obs, os.path.join(workdir, "obs"), row_group_size=1024)


def mentions_table(turns_ds, **kw):
    """Long-form mentions table (FIXTURES.md §5) — explode the nested
    mention column."""
    annotated = annotate_turns(turns_ds, **kw)

    def explode(batch: pa.Table) -> pa.Table:
        import numpy as np
        from ..sources.registry import SOURCE_NAMES
        from ..stages.encode import LABEL_VOCAB
        col = batch.column("mentions")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offsets = col.offsets.to_numpy(zero_copy_only=False)
        lengths = np.diff(offsets)
        vals = col.values
        src_names = pa.array(
            [SOURCE_NAMES[i] for i in
             vals.field("source_id").to_numpy(zero_copy_only=False)],
            pa.string())
        labels = pa.array(
            [LABEL_VOCAB[i] for i in
             vals.field("label_id").to_numpy(zero_copy_only=False)],
            pa.string())
        conv = pa.array(np.repeat(
            np.asarray(batch.column("conv_id").to_pylist(), dtype=object),
            lengths), pa.string())
        turn = pa.array(np.repeat(
            batch.column("turn_idx").to_numpy(zero_copy_only=False),
            lengths), pa.int32())
        return pa.table({
            "conv_id": conv,
            "turn_idx": turn,
            "source": src_names,
            "start": vals.field("start"),
            "end": vals.field("end"),
            "label": labels,
            "conf": vals.field("conf"),
        })

    return annotated.map_batches(explode, batch_format="pyarrow",
                                 zero_copy_batch=True)


def build_kg(turns_ds, workdir: str, *, gazetteers=None, first_names=None,
             n_iter: int = 3, concurrency=None, batch_size: int = 256,
             write: bool = True, seed: int = 42, lineage: bool = True):
    """Full pipeline.  Returns dict of Datasets:
    ``annotated``, ``ner``, ``triples``, ``nodes``, ``edges``.

    With ``lineage=True`` every block of the obs-encode and triple stages
    emits a per-partition lineage record; the table is flushed to
    ``<workdir>/lineage`` at the end (north rule)."""
    from ..stages.kg import make_decode_triple_fn
    from ..stages.util import target_blocks, with_lineage
    from ..state.lineage import flush_lineage, get_lineage_actor

    gaz = gazetteers if gazetteers is not None else builtin_gazetteers()
    lin_actor = get_lineage_actor() if lineage else None

    # single materialization point: annotate -> conv stage -> obs encoding
    # fused into one pipeline, one parquet write
    nblocks = target_blocks()
    obs_dir = write_obs(turns_ds, workdir, gazetteers=gaz,
                        first_names=first_names, concurrency=concurrency,
                        batch_size=batch_size, lin_actor=lin_actor)
    # lazy full read (text + nested mentions) — only executed if the
    # caller consumes the annotated corpus
    annotated = rd.read_parquet(obs_dir, override_num_blocks=nblocks)

    # EM runs as one stateless task per obs shard per pass on the default
    # worker pool (no per-pass dataset execution overhead, no actors)
    params = train_hmm_sharded(obs_dir, workdir, n_iter=n_iter, seed=seed)
    # the outputs below are stamped with the params they were decoded
    # with: a rerun that trains further rewrites them instead of reusing
    # a shorter run's triples
    stamp = params.digest()
    params_ref = ray.put(params)
    gaz_ref = ray.put(gaz)

    # fused decode+link+triple stage over ONE pruned read (drops the wide
    # nested `mentions` column from the scan): each turn is Viterbi-decoded
    # once and both the ner spans and the triples come out of the same
    # pass, tagged by `kind`
    obs_min = rd.read_parquet(
        obs_dir, columns=["conv_id", "turn_idx", "text", "n_tokens",
                          "o_t", "o_s", "o_state", "o_conf"],
        override_num_blocks=nblocks)
    combined = obs_min.map_batches(
        with_lineage(make_decode_triple_fn(params_ref, gaz_ref),
                     "decode_triples", lin_actor),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)

    if write:
        combined = rd.read_parquet(
            write_once(combined, os.path.join(workdir, "decoded"), stamp))
    else:
        # decoded output is a small fraction of the input corpus; holding
        # it avoids re-running the fused stage for the two consumers
        combined = combined.materialize()

    def to_ner(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.equal(b.column("kind"), "n"))
        return b.select(["conv_id", "turn_idx", "start", "end", "label",
                         "conf"])

    def to_triples(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.equal(b.column("kind"), "t"))
        return b.select(["conv_id", "turn_idx", "subj", "subj_label",
                         "pred", "obj", "obj_label", "subj_id", "obj_id",
                         "conf"])

    ner = combined.map_batches(to_ner, batch_format="pyarrow",
                               zero_copy_batch=True)
    triples = combined.map_batches(to_triples, batch_format="pyarrow",
                                   zero_copy_batch=True)
    if lin_actor is not None:
        flush_lineage(lin_actor, os.path.join(workdir, "lineage"))

    nodes, edges = graph_tables(triples)
    if write:
        # hand back a read of the written table: consumers re-consume
        # nodes/edges (counts, joins) and re-running the sort pipeline
        # for each consumption doubles the graph phase
        nodes = rd.read_parquet(
            write_once(nodes, os.path.join(workdir, "nodes"), stamp))
        edges = rd.read_parquet(
            write_once(edges, os.path.join(workdir, "edges"), stamp))
    return {"annotated": annotated, "ner": ner, "triples": triples,
            "nodes": nodes, "edges": edges, "params": params}


def majority_vote_table(turns_ds, workdir: str, *, gazetteers=None,
                        first_names=None, batch_size: int = 256,
                        nb_sources_threshold: int = 10):
    """MajorityVoter baseline over the obs table — same schema as the HMM
    ``ner`` table (labelling.py:503-531)."""
    from ..stages.kg import make_majority_vote_fn

    obs_dir = write_obs(turns_ds, workdir, gazetteers=gazetteers,
                        first_names=first_names, batch_size=batch_size)
    obs = rd.read_parquet(obs_dir,
                          columns=["conv_id", "turn_idx", "n_tokens",
                                   "o_t", "o_s", "o_state", "o_conf"])
    return obs.map_batches(
        make_majority_vote_fn(nb_sources_threshold),
        batch_format="pyarrow", batch_size=batch_size,
        zero_copy_batch=True)


def snorkel_table(turns_ds, workdir: str, *, gazetteers=None,
                  first_names=None, batch_size: int = 256,
                  n_iter: int = 5):
    """Snorkel-equivalent span-level generative label model over the
    annotated corpus (labelling.py:534-590 workflow, snorkel-free): same
    output schema as the HMM ``ner`` and majority-vote tables.

    Candidate spans + sparse votes are extracted once from the obs table's
    mentions to parquet (resumable); each EM pass is one ``map_batches``
    over that table with broadcast parameters, returning one additive
    sufficient-statistic partial per block (same distribution shape as the
    HMM E-step)."""
    import numpy as np
    import pyarrow.compute as _pc

    from ..stages.encode import snorkel_spans_batch
    from ..stages.util import cached_from_ref, target_blocks
    from ..state import labelmodel as lm

    obs_dir = write_obs(turns_ds, workdir, gazetteers=gazetteers,
                        first_names=first_names, batch_size=batch_size)
    spans = rd.read_parquet(
        obs_dir, columns=["conv_id", "turn_idx", "mentions"]).map_batches(
            snorkel_spans_batch, batch_format="pyarrow",
            batch_size=batch_size, zero_copy_batch=True)
    spans_ds = rd.read_parquet(
        write_once(spans, os.path.join(workdir, "snorkel_spans")),
        override_num_blocks=target_blocks())

    def _flat(batch: pa.Table):
        col_s = batch.column("v_s")
        if isinstance(col_s, pa.ChunkedArray):
            col_s = col_s.combine_chunks()
        col_o = batch.column("v_o")
        if isinstance(col_o, pa.ChunkedArray):
            col_o = col_o.combine_chunks()
        offsets = col_s.offsets.to_numpy(zero_copy_only=False)
        lens = np.diff(offsets)
        v_span = np.repeat(np.arange(batch.num_rows), lens)
        v_s = col_s.values.to_numpy(zero_copy_only=False).astype(np.int64)
        v_o = col_o.values.to_numpy(zero_copy_only=False).astype(np.int64)
        return v_span, v_s, v_o

    params_path = os.path.join(workdir, "labelmodel.npz")
    if os.path.exists(params_path):
        params = lm.LabelModelParams.load(params_path)
    else:
        params = lm.LabelModelParams.init()
        for _ in range(n_iter):
            params_ref = ray.put(params)

            def estep(batch: pa.Table) -> pa.Table:
                p = cached_from_ref(params_ref)
                stats = lm.LMStats()
                v_span, v_s, v_o = _flat(batch)
                lm.accumulate_flat(p, batch.num_rows, v_span, v_s, v_o,
                                   stats)
                row = stats.to_row()
                return pa.table({
                    "prior": pa.array([row["prior"]],
                                      pa.list_(pa.float64())),
                    "votes": pa.array([row["votes"]],
                                      pa.list_(pa.float64())),
                    "loglik": pa.array([row["loglik"]], pa.float64()),
                    "n_spans": pa.array([row["n_spans"]], pa.int64()),
                })

            total = lm.LMStats()
            for b in spans_ds.map_batches(
                    estep, batch_format="pyarrow",
                    zero_copy_batch=True).iter_batches(
                        batch_format="pyarrow"):
                for row in b.to_pylist():
                    total.merge_row(row)
            params = lm.m_step(total)
        params.save(params_path)

    params_ref = ray.put(params)

    def predict(batch: pa.Table) -> pa.Table:
        from ..constants import LABELS
        p = cached_from_ref(params_ref)
        v_span, v_s, v_o = _flat(batch)
        best, prob = lm.predict_flat(p, batch.num_rows, v_span, v_s, v_o)
        keep = best > 0
        t = batch.select(["conv_id", "turn_idx", "start", "end"]) \
            .append_column("label", pa.array(
                [LABELS[b - 1] if k else None
                 for b, k in zip(best, keep)], pa.string())) \
            .append_column("conf", pa.array(prob.astype(np.float32),
                                            pa.float32()))
        return t.filter(_pc.is_valid(t.column("label")))

    return spans_ds.map_batches(predict, batch_format="pyarrow",
                                batch_size=batch_size,
                                zero_copy_batch=True)


def graph_tables(triples_ds):
    """Canonicalization + graph materialization.

    nodes: one row per linked entity id (exact dedup via grouped aggregate —
    hash-partition on the id, SURVEY.md §2.7), counting mentions over both
    triple slots.  edges: weight = triple multiplicity, sorted by
    (src_id, pred) for a deterministic, resumable layout."""

    def tagged_rows(batch: pa.Table) -> pa.Table:
        # one pass emits node-endpoint rows (kind 'n') and edge rows
        # (kind 'e') into a unified key schema, so ONE shuffle aggregates
        # both tables instead of two separate groupby exchanges
        import pyarrow.compute as pc
        n = batch.num_rows
        k1 = pa.chunked_array([batch.column("subj_id"),
                               batch.column("obj_id"),
                               batch.column("subj_id")]).combine_chunks()
        k2 = pa.chunked_array([batch.column("subj"),
                               batch.column("obj"),
                               batch.column("pred")]).combine_chunks()
        k3 = pa.chunked_array([batch.column("subj_label"),
                               batch.column("obj_label"),
                               batch.column("obj_id")]).combine_chunks()
        kind = pa.array(["n"] * (2 * n) + ["e"] * n, pa.string())
        return pa.table({"kind": kind, "k1": k1, "k2": k2, "k3": k3})

    # materialize the aggregated counts (small: one row per distinct
    # node/edge, not per input row) so the nodes and edges branches don't
    # re-run the shuffle twice when consumed separately
    agg = (triples_ds.map_batches(tagged_rows, batch_format="pyarrow",
                                  zero_copy_batch=True)
           .groupby(["kind", "k1", "k2", "k3"])
           .aggregate(Count(alias_name="n"))
           .materialize())

    def to_nodes(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.equal(b.column("kind"), "n"))
        return pa.table({
            "entity_id": b.column("k1"),
            "canonical": b.column("k2"),
            "label": b.column("k3"),
            "n_mentions": b.column("n"),
        })

    def to_edges(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        b = b.filter(pc.equal(b.column("kind"), "e"))
        return pa.table({
            "src_id": b.column("k1"),
            "pred": b.column("k2"),
            "dst_id": b.column("k3"),
            "weight": b.column("n").cast(pa.float64()),
        })

    nodes = (agg.map_batches(to_nodes, batch_format="pyarrow",
                             zero_copy_batch=True)
             .sort("entity_id"))
    edges = (agg.map_batches(to_edges, batch_format="pyarrow",
                             zero_copy_batch=True)
             .sort(["src_id", "pred"]))
    return nodes, edges
