"""End-to-end knowledge-graph construction pipeline.

read turns → sort by conv_id → per block: LF bank (turn- and
conversation-level sources) and obs encoding in one pass per conversation
→ obs parquet (the EM input + resume point) →
sharded EM → fused decode/link/triple stage → decoded parquet → one
execution with one sort counts and writes the sorted node/edge parquet
tables (north_star shape).  Blocks are sized by rows
(``stages.util.blocks_for_rows``).
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray
import ray.data as rd

from ..data import builtin_gazetteers, DETECTOR_FIRST_NAMES
from ..stages.annotate import annotate_pipeline
from .train import train_hmm_sharded, train_label_model

# turn-level detector sources with a standalone mentions query + DuckDB
# SQL oracle (the SQL-expressible subset of the LF bank)
TURN_DETECTOR_SOURCES = ("date_detector", "time_detector",
                         "money_detector", "number_detector",
                         "legal_detector")

# rows per batch of the majority-vote and Snorkel map stages
_BATCH_ROWS = 256


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
                excluded = layers.intervals(exc)
                for s, e, lab in gen(doc, layers):
                    layers.add(s, e, lab, src, excluded=excluded)

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
                   lin_sink=None):
    """Lazy annotation pipeline: turns -> turn- and conversation-level
    mentions (nested ``mentions`` column) beside the encoded observation
    (``stages.annotate.annotate_pipeline``)."""
    gaz = gazetteers if gazetteers is not None else builtin_gazetteers()
    fn = first_names if first_names is not None else DETECTOR_FIRST_NAMES
    return annotate_pipeline(turns_ds, ray.put((gaz, fn)), lin_sink=lin_sink)


def _written(path: str, stamp: str) -> bool:
    """True when ``<path>/_SUCCESS`` holds ``stamp``."""
    try:
        with open(os.path.join(path, "_SUCCESS")) as fd:
            return fd.read() == stamp
    except FileNotFoundError:
        return False


def _seal(path: str, stamp: str, schema: pa.Schema | None = None) -> None:
    """Write the ``_SUCCESS`` marker of a finished write of ``path``.  A
    write that produced no rows leaves Ray no file to write: with
    ``schema`` given, an empty part file keeps the table's columns for
    its readers."""
    import glob

    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    if schema is not None and not glob.glob(os.path.join(path,
                                                         "*.parquet")):
        pq.write_table(schema.empty_table(),
                       os.path.join(path, "part-000000.parquet"))
    with open(os.path.join(path, "_SUCCESS"), "w") as fd:
        fd.write(stamp)


def write_once(ds, path: str, stamp: str = "", schema=None,
               **write_kw) -> str:
    """Resumable parquet write: skipped when ``<path>/_SUCCESS`` holds
    ``stamp``, otherwise ``ds`` is written and the marker written last.
    ``overwrite`` clears the part files a killed earlier attempt left in
    ``path`` (the default append mode would keep them beside the new set,
    and every reader would see those rows twice).  ``schema``: see
    :func:`_seal`.  Returns ``path``."""
    if not _written(path, stamp):
        ds.write_parquet(path, mode="overwrite", **write_kw)
        _seal(path, stamp, schema)
    return path


def write_obs(turns_ds, workdir: str, *, gazetteers=None, first_names=None,
              lin_sink=None) -> str:
    """The one annotate + encode -> write step, shared by the HMM, the
    majority-vote and the Snorkel paths: returns ``<workdir>/obs``.

    The grouped annotate stage emits the obs table itself (each block is
    annotated and encoded in one call, which records the ``encode_obs``
    lineage).  The table keeps ``text`` and the nested ``mentions`` beside
    the encoded observation, so it serves as annotated corpus, EM input
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
    obs = annotate_turns(turns_ds, gazetteers=gazetteers,
                         first_names=first_names, lin_sink=lin_sink)
    # the grouped stage emits one table per sort range; bundling them
    # into files of >= 256 rows gives the file layout of a batched encode
    # stage and fewer files for the EM and decode reads to open (kg_cold,
    # 1 cpu, with 16 ranges of ~125 rows: 196-217 turns/s against 175-188
    # with one file per range, three paired runs)
    return write_once(obs, os.path.join(workdir, "obs"), row_group_size=1024,
                      min_rows_per_file=256)


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


# the two views of the decoded table build_kg hands back
NER_COLUMNS = ["conv_id", "turn_idx", "start", "end", "label", "conf"]
TRIPLE_COLUMNS = ["conv_id", "turn_idx", "subj", "subj_label", "pred", "obj",
                  "obj_label", "subj_id", "obj_id", "conf"]


def _decoded_rows(workdir: str, kind: str, columns: list, **read_kw):
    """The ``kind`` rows of ``<workdir>/decoded`` (``"n"``: ner spans,
    ``"t"``: triples), with the column and row filter pushed into the
    parquet scan."""
    import pyarrow.compute as pc
    return rd.read_parquet(os.path.join(workdir, "decoded"), columns=columns,
                           filter=pc.field("kind") == kind, **read_kw)


def build_kg(turns_ds, workdir: str, *, gazetteers=None, first_names=None,
             n_iter: int = 3, write: bool = True,
             seed: int = 42, lineage: bool = True):
    """Full pipeline.  Returns dict of Datasets:
    ``annotated``, ``ner``, ``triples``, ``nodes``, ``edges``, and the
    trained ``params``.

    Every table is written under ``workdir`` (``obs``, ``decoded``,
    ``nodes``, ``edges``; each skipped on a rerun that finds it written
    with the same params) and handed back as a read of it, so consumers
    re-read files instead of re-running stages.  ``write`` is kept for
    callers that pass ``write=True``; there is no unwritten path.

    With ``lineage=True`` every block of the obs-encode, triple and graph
    count stages writes a per-partition lineage record into this build's
    staging directory; once the graph tables are written, or when the
    build raises, the records become one table in ``<workdir>/lineage``
    (north rule).  ``state.lineage`` is called through the module at call
    time."""
    import glob

    import pyarrow.parquet as pq

    from ..stages.kg import DECODED_SCHEMA, make_decode_triple_fn
    from ..stages.util import blocks_for_rows, with_lineage
    from ..state import lineage as lin

    if not write:
        raise ValueError("build_kg always writes its tables under workdir")
    gaz = gazetteers if gazetteers is not None else builtin_gazetteers()
    lin_sink = lin.get_lineage_actor(workdir) if lineage else None
    try:
        # single materialization point: turn sources, conversation sources
        # and obs encoding run in one grouped stage, one parquet write
        obs_dir = write_obs(turns_ds, workdir, gazetteers=gaz,
                            first_names=first_names, lin_sink=lin_sink)
        # both obs reads are sized from the footers' row counts
        nblocks = blocks_for_rows(sum(
            pq.read_metadata(f).num_rows
            for f in glob.glob(os.path.join(obs_dir, "*.parquet"))))
        # lazy full read (text + nested mentions) — only executed if the
        # caller consumes the annotated corpus
        annotated = rd.read_parquet(obs_dir, override_num_blocks=nblocks)

        # EM runs as one stateless task per obs shard per pass on the
        # default worker pool (no per-pass dataset execution overhead, no
        # actors)
        params = train_hmm_sharded(obs_dir, workdir, n_iter=n_iter,
                                   seed=seed)
        # the outputs below are stamped with the params they were decoded
        # with: a rerun that trains further rewrites them instead of
        # reusing a shorter run's triples
        stamp = params.digest()

        # fused decode+link+triple stage over ONE pruned read (drops the
        # wide nested `mentions` column from the scan): each turn is
        # Viterbi-decoded once and both the ner spans and the triples come
        # out of the same pass, tagged by `kind`.  Each obs block is one
        # call, so its decode-memo misses share one hmm.decode_block
        # pattern table and tiles
        obs_min = rd.read_parquet(
            obs_dir, columns=["conv_id", "turn_idx", "text", "n_tokens",
                              "o_t", "o_s", "o_state", "o_conf"],
            override_num_blocks=nblocks)
        decoded = obs_min.map_batches(
            with_lineage(make_decode_triple_fn(ray.put((params, gaz))),
                         "decode_triples", lin_sink),
            batch_format="pyarrow", batch_size=None, zero_copy_batch=True)
        write_once(decoded, os.path.join(workdir, "decoded"), stamp,
                   schema=DECODED_SCHEMA)
        nodes, edges = graph_tables(workdir, stamp, lin_sink)
    finally:
        if lin_sink is not None:
            lin.flush_lineage(lin_sink, os.path.join(workdir, "lineage"))

    return {"annotated": annotated,
            "ner": _decoded_rows(workdir, "n", NER_COLUMNS),
            "triples": _decoded_rows(workdir, "t", TRIPLE_COLUMNS),
            "nodes": nodes, "edges": edges, "params": params}


def majority_vote_table(turns_ds, workdir: str, *, gazetteers=None,
                        first_names=None, nb_sources_threshold: int = 10):
    """MajorityVoter baseline over the obs table — same schema as the HMM
    ``ner`` table (labelling.py:503-531)."""
    from ..stages.kg import make_majority_vote_fn

    obs_dir = write_obs(turns_ds, workdir, gazetteers=gazetteers,
                        first_names=first_names)
    obs = rd.read_parquet(obs_dir,
                          columns=["conv_id", "turn_idx", "n_tokens",
                                   "o_t", "o_s", "o_state", "o_conf"])
    return obs.map_batches(
        make_majority_vote_fn(nb_sources_threshold),
        batch_format="pyarrow", batch_size=_BATCH_ROWS,
        zero_copy_batch=True)


def snorkel_table(turns_ds, workdir: str, *, gazetteers=None,
                  first_names=None, n_iter: int = 5):
    """Snorkel-equivalent span-level generative label model over the
    annotated corpus (labelling.py:534-590 workflow, snorkel-free): same
    output schema as the HMM ``ner`` and majority-vote tables.

    Candidate spans + sparse votes are extracted once from the obs table's
    mentions to parquet (resumable).  The label model trains on that
    table's row groups in the HMM's EM loop (``train.train_label_model``:
    one stateless task per shard per pass, partials merged in shard order,
    checkpoints ``lm_iter_k.npz`` beside the HMM's), then one
    ``map_batches`` predicts with the broadcast parameters."""
    import numpy as np
    import pyarrow.compute as pc

    from ..constants import LABELS
    from ..stages.encode import snorkel_spans_batch
    from ..stages.util import cached_from_ref, target_blocks
    from ..state import labelmodel as lm

    obs_dir = write_obs(turns_ds, workdir, gazetteers=gazetteers,
                        first_names=first_names)
    spans = rd.read_parquet(
        obs_dir, columns=["conv_id", "turn_idx", "mentions"]).map_batches(
            snorkel_spans_batch, batch_format="pyarrow",
            batch_size=_BATCH_ROWS, zero_copy_batch=True)
    spans_dir = write_once(spans, os.path.join(workdir, "snorkel_spans"))
    params_ref = ray.put(train_label_model(spans_dir, workdir,
                                           n_iter=n_iter))

    def predict(batch: pa.Table) -> pa.Table:
        p = cached_from_ref(params_ref)
        best, prob = lm.predict_flat(p, batch.num_rows,
                                     *lm.flat_votes(batch))
        keep = best > 0
        t = batch.select(["conv_id", "turn_idx", "start", "end"]) \
            .append_column("label", pa.array(
                [LABELS[b - 1] if k else None
                 for b, k in zip(best, keep)], pa.string())) \
            .append_column("conf", pa.array(prob.astype(np.float32),
                                            pa.float32()))
        return t.filter(pc.is_valid(t.column("label")))

    return rd.read_parquet(spans_dir, override_num_blocks=target_blocks()) \
        .map_batches(predict, batch_format="pyarrow", batch_size=_BATCH_ROWS,
                     zero_copy_batch=True)


GRAPH_KEYS = ["kind", "k1", "k2", "k3"]
NODES_SCHEMA = pa.schema([("entity_id", pa.string()),
                          ("canonical", pa.string()), ("label", pa.string()),
                          ("n_mentions", pa.int64())])
EDGES_SCHEMA = pa.schema([("src_id", pa.string()), ("pred", pa.string()),
                          ("dst_id", pa.string()), ("weight", pa.float64())])


def _tagged_rows(batch: pa.Table) -> pa.Table:
    """Node-endpoint rows (kind "n") and edge rows (kind "e") of a triples
    batch in one key schema, so one exchange orders both tables."""
    n = batch.num_rows

    def stack(*cols):
        return pa.chunked_array([batch.column(c) for c in cols]) \
            .combine_chunks()

    return pa.table({
        "kind": pa.array(["n"] * (2 * n) + ["e"] * n, pa.string()),
        "k1": stack("subj_id", "obj_id", "subj_id"),
        "k2": stack("subj", "obj", "pred"),
        "k3": stack("subj_label", "obj_label", "obj_id")})


def _count_keys(b: pa.Table) -> pa.Table:
    """Rows per key of one sort range's block, in key order.  The block
    holds every row of each of its keys (a sort range never splits a
    key); ``group_by`` does not promise to keep its order, so the counts
    are sorted again."""
    if not b.num_rows:
        # an empty sort range may carry no columns at all
        return b
    c = b.group_by(GRAPH_KEYS, use_threads=False) \
        .aggregate([([], "count_all")])
    return c.select(GRAPH_KEYS).append_column("n", c.column("count_all")) \
        .sort_by([(k, "ascending") for k in GRAPH_KEYS])


def _nodes_of(c: pa.Table) -> pa.Table:
    return pa.table([c.column("k1"), c.column("k2"), c.column("k3"),
                     c.column("n")], schema=NODES_SCHEMA)


def _edges_of(c: pa.Table) -> pa.Table:
    return pa.table([c.column("k1"), c.column("k2"), c.column("k3"),
                     c.column("n").cast(pa.float64())], schema=EDGES_SCHEMA)


class _GraphSink(rd.Datasink):
    """Writes write task *i*'s counted block as ``nodes/part-{i:06d}``
    and ``edges/part-{i:06d}`` (``.parquet``).  The tasks take the sorted
    blocks in order, so the part files in name order are the tables in
    key order."""

    def __init__(self, workdir: str):
        self.outputs = {"n": (os.path.join(workdir, "nodes"), _nodes_of),
                        "e": (os.path.join(workdir, "edges"), _edges_of)}

    def on_write_start(self) -> None:
        # part files a killed earlier write left would be read beside the
        # new set
        import shutil
        for path, _ in self.outputs.values():
            shutil.rmtree(path, ignore_errors=True)
            os.makedirs(path)

    def write(self, blocks, ctx) -> int:
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        blocks = [b for b in blocks if b.num_rows]
        if not blocks:
            return 0
        counts = pa.concat_tables(blocks)
        for kind, (path, table_of) in self.outputs.items():
            part = counts.filter(pc.equal(counts.column("kind"), kind))
            if part.num_rows:
                pq.write_table(table_of(part), os.path.join(
                    path, f"part-{ctx.task_idx:06d}.parquet"))
        return counts.num_rows


def _ordered_read(path: str):
    """A read of ``path`` whose blocks come out in file order (a plain
    read hands them back in completion order)."""
    ds = rd.read_parquet(path)
    ds.context.execution_options.preserve_order = True
    return ds


def graph_tables(workdir: str, stamp: str = "", lin_sink=None):
    """Canonicalization + graph materialization: ``(nodes, edges)``, the
    ordered reads of ``<workdir>/nodes`` and ``<workdir>/edges``.

    nodes: one row per linked entity id, counting mentions over both
    triple slots.  edges: weight = triple multiplicity.  One Ray Data
    execution makes both: a read of the triple rows of
    ``<workdir>/decoded`` (column and ``kind`` pushdown) → node and edge
    keys tagged in one ``(kind, k1, k2, k3)`` schema → ONE sort → a
    whole-block pyarrow ``group_by`` count per sorted block → one
    :class:`_GraphSink`.  The sort order already sorts nodes by
    ``entity_id`` and edges by ``(src_id, pred)``, and the execution keeps
    block order on its own dataset context, so both tables are written
    globally sorted.  The write is skipped when both tables hold
    ``stamp``'s ``_SUCCESS`` marker; a triple-free corpus gives empty
    tables with their schemas."""
    from ..stages.util import with_lineage

    paths = {"nodes": (os.path.join(workdir, "nodes"), NODES_SCHEMA),
             "edges": (os.path.join(workdir, "edges"), EDGES_SCHEMA)}
    if not all(_written(path, stamp) for path, _ in paths.values()):
        # the read keeps Ray's default block count: sized by rows
        # (blocks_for_rows), it ran as its own operator instead of fused
        # with the tagging map, and the graph phase took 0.39 s instead of
        # 0.21 s (kg_cold seed 5, 1 cpu, median of 10)
        triples = _decoded_rows(workdir, "t", ["subj", "subj_label", "pred",
                                               "obj", "obj_label", "subj_id",
                                               "obj_id"])
        triples.context.execution_options.preserve_order = True
        (triples.map_batches(_tagged_rows, batch_format="pyarrow",
                             zero_copy_batch=True)
         .sort(GRAPH_KEYS)
         .map_batches(with_lineage(_count_keys, "graph_tables", lin_sink),
                      batch_format="pyarrow", batch_size=None,
                      zero_copy_batch=True)
         .write_datasink(_GraphSink(workdir)))
        for path, schema in paths.values():
            _seal(path, stamp, schema)
    return tuple(_ordered_read(path) for path, _ in paths.values())
