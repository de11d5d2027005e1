"""Evaluation metrics, majority-voter baseline, and lineage records."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd

from weak_supervision_for_ner_ray.pipelines.eval import (CONLL_MAPPINGS,
                                                         evaluate_ner)
from weak_supervision_for_ner_ray.pipelines.kg import (build_kg,
                                                       majority_vote_table,
                                                       snorkel_table)


def to_arrow(ds):
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    tables = [t for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def test_evaluate_ner_metrics(ray_session):
    gold = pa.table({
        "conv_id": ["c1", "c1", "c2"],
        "turn_idx": pa.array([0, 0, 1], pa.int32()),
        "start": pa.array([0, 3, 2], pa.int32()),
        "end": pa.array([2, 4, 4], pa.int32()),
        "label": ["PERSON", "GPE", "COMPANY"],
    })
    pred = rd.from_arrow(pa.table({
        "conv_id": ["c1", "c1", "c2", "c2"],
        "turn_idx": pa.array([0, 0, 1, 1], pa.int32()),
        "start": pa.array([0, 3, 2, 6], pa.int32()),
        "end": pa.array([2, 4, 4, 7], pa.int32()),
        "label": ["PERSON", "GPE", "ORG", "DATE"],
        "conf": pa.array([0.9, 0.4, 0.8, 0.9], pa.float32()),
    }))
    res = evaluate_ner(pred, gold)
    # GPE pred below conf threshold -> FN; ORG != COMPANY -> FP + FN
    assert res["entity"]["PERSON"]["tp"] == 1
    assert res["entity"]["GPE"]["fn"] == 1
    assert res["entity"]["micro"]["tp"] == 1
    # with CoNLL mapping COMPANY->ORG the c2 prediction becomes a TP
    res2 = evaluate_ner(pred, gold, mappings=CONLL_MAPPINGS,
                        to_retain={"PER", "ORG", "LOC", "MISC"})
    assert res2["entity"]["ORG"]["tp"] == 1
    # macro / weighted summaries over gold-supported labels
    assert "macro" in res["entity"] and "weighted" in res["entity"]
    labs = ["COMPANY", "GPE", "PERSON"]
    exp_macro_p = sum(res["entity"][l]["p"] for l in labs) / 3
    assert abs(res["entity"]["macro"]["p"] - exp_macro_p) < 1e-4
    # all three gold labels have support 1 -> weighted == macro here
    assert res["entity"]["weighted"]["r"] == res["entity"]["macro"]["r"]


def test_evaluate_ner_duplicate_predictions_count_once(ray_session):
    gold = pa.table({
        "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()),
        "start": pa.array([0], pa.int32()), "end": pa.array([2], pa.int32()),
        "label": ["PERSON"],
    })
    pred = rd.from_arrow(pa.table({
        "conv_id": ["c1", "c1"], "turn_idx": pa.array([0, 0], pa.int32()),
        "start": pa.array([0, 0], pa.int32()),
        "end": pa.array([2, 2], pa.int32()),
        "label": ["PERSON", "PERSON"],
        "conf": pa.array([0.9, 0.8], pa.float32()),
    }))
    res = evaluate_ner(pred, gold)
    # duplicate span counts once (set semantics), never as a second TP
    assert res["entity"]["PERSON"]["tp"] == 1
    assert res["entity"]["PERSON"]["fp"] == 0
    assert res["token"]["PERSON"]["tp"] == 2
    assert res["entity"]["micro"]["p"] == 1.0


def test_token_cross_entropy(ray_session):
    import math

    from weak_supervision_for_ner_ray.pipelines.eval import \
        token_cross_entropy

    gold = pa.table({
        "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()),
        "start": pa.array([1], pa.int32()), "end": pa.array([2], pa.int32()),
        "label": ["PERSON"],
    })
    # perfect single-token prediction with conf 0.5
    pred = rd.from_arrow(pa.table({
        "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()),
        "start": pa.array([1], pa.int32()), "end": pa.array([2], pa.int32()),
        "label": ["PERSON"], "conf": pa.array([0.5], pa.float32()),
    }))
    total_tokens = 10
    cee = token_cross_entropy(pred, gold, total_tokens)
    # one token with P(U-PERSON)=0.5 -> loss=-log(0.5); others ~0
    assert abs(cee - (-math.log(0.5)) / total_tokens) < 1e-6
    # absent prediction -> gold token scored against eps-clipped zero
    empty = rd.from_arrow(pa.table({
        "conv_id": ["c1"], "turn_idx": pa.array([0], pa.int32()),
        "start": pa.array([5], pa.int32()), "end": pa.array([6], pa.int32()),
        "label": ["GPE"], "conf": pa.array([0.0], pa.float32()),
    }))
    cee2 = token_cross_entropy(empty, gold, total_tokens)
    assert cee2 > cee


def test_hmm_beats_or_matches_majority_vote(ray_session, small_corpus,
                                            tmp_path_factory):
    """Quality oracle: on the synthetic corpus the HMM aggregation should
    reach high F1 vs gold spans, and at least match the majority baseline
    (the reference's motivating result)."""
    turns, gold_spans, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("evalkg"))
    ds = rd.from_arrow(turns)
    out = build_kg(ds, wd, n_iter=2)
    hmm_res = evaluate_ner(out["ner"], gold_spans)
    mv = majority_vote_table(ds, wd)
    mv_res = evaluate_ner(mv, gold_spans)
    assert hmm_res["entity"]["micro"]["f1"] >= 0.8, hmm_res["entity"]["micro"]
    assert hmm_res["entity"]["micro"]["f1"] >= \
        mv_res["entity"]["micro"]["f1"] - 0.05


def test_lineage_records_written(ray_session, small_corpus,
                                 tmp_path_factory):
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("lineage"))
    build_kg(rd.from_arrow(turns), wd, n_iter=1, lineage=True)
    lin_dir = os.path.join(wd, "lineage")
    assert os.path.isdir(lin_dir) and os.listdir(lin_dir)
    lin = to_arrow(rd.read_parquet(lin_dir))
    stages = set(lin.column("stage").to_pylist())
    assert "encode_obs" in stages and "decode_triples" in stages
    # the graph count stage records too: the table is flushed after it
    assert stages == {"encode_obs", "decode_triples", "graph_tables"}
    graph = lin.filter(pc.equal(lin.column("stage"),
                                        "graph_tables"))
    nodes = pq.read_table(os.path.join(wd, "nodes"))
    edges = pq.read_table(os.path.join(wd, "edges"))
    # one record per counted sort range: its output rows are the keys
    assert sum(graph.column("rows_out").to_pylist()) == \
        nodes.num_rows + edges.num_rows
    assert all(r > 0 for r in lin.column("rows_in").to_pylist())
    assert all(w >= 0 for w in lin.column("wall_ms").to_pylist())


def test_failed_build_leaves_no_lineage_for_the_next(ray_session,
                                                     small_corpus,
                                                     tmp_path_factory,
                                                     monkeypatch):
    """A build that raises after writing its obs table keeps its records
    out of the next build's lineage: build 1 fails in EM, build 2 runs on
    other conversations in a fresh workdir, and build 2's table names only
    build 2's conversations.  Build 1's records land in its own workdir."""
    import pytest

    from weak_supervision_for_ner_ray.data import generate_corpus
    from weak_supervision_for_ner_ray.pipelines import kg

    def lineage_keys(wd):
        """Partition keys of the conversation-keyed stages (a graph count
        block is keyed by the kind of its first key, "e" or "n")."""
        lin = to_arrow(rd.read_parquet(os.path.join(wd, "lineage")))
        stages = lin.column("stage").to_pylist()
        return [k for k, s in zip(lin.column("partition_key").to_pylist(),
                                  stages) if s != "graph_tables"]

    def lineage_stages(wd):
        lin = to_arrow(rd.read_parquet(os.path.join(wd, "lineage")))
        return set(lin.column("stage").to_pylist())

    turns1, _, _ = small_corpus
    turns2, _, _ = generate_corpus(6, seed=29)
    conv2 = ["b" + c for c in turns2.column("conv_id").to_pylist()]
    turns2 = turns2.set_column(turns2.schema.get_field_index("conv_id"),
                               "conv_id", pa.array(conv2, pa.string()))

    def em_fails(*_a, **_kw):
        raise RuntimeError("EM failed")

    wd1 = str(tmp_path_factory.mktemp("lineage_failed"))
    with monkeypatch.context() as m:
        m.setattr(kg, "train_hmm_sharded", em_fails)
        with pytest.raises(RuntimeError, match="EM failed"):
            build_kg(rd.from_arrow(turns1), wd1, n_iter=1, lineage=True)
    wd2 = str(tmp_path_factory.mktemp("lineage_next"))
    build_kg(rd.from_arrow(turns2), wd2, n_iter=1, lineage=True)
    keys2 = lineage_keys(wd2)
    assert keys2 and set(keys2) <= set(conv2)
    keys1 = lineage_keys(wd1)
    assert keys1 and set(keys1) <= set(turns1.column("conv_id").to_pylist())
    assert "graph_tables" in lineage_stages(wd2)
    assert "graph_tables" not in lineage_stages(wd1)
    assert not [d for d in os.listdir(os.path.join(wd1, "lineage"))
                if d.startswith("_staging")]


def test_snorkel_label_model_vs_majority_vote(ray_session, small_corpus,
                                              tmp_path_factory):
    """Snorkel-equivalent generative label model (labelling.py:534-590
    workflow, snorkel-free): trains on candidate spans, produces the same
    ner schema, and lands in the same quality band as the majority-vote
    baseline on the gold fixture (notebook cell 64 comparison)."""
    turns, gold_spans, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("snorkelkg"))
    ds = rd.from_arrow(turns)
    sn = snorkel_table(ds, wd)
    tbl = to_arrow(sn)
    assert set(tbl.column_names) == {"conv_id", "turn_idx", "start", "end",
                                     "label", "conf"}
    sn_res = evaluate_ner(sn, gold_spans)
    mv_res = evaluate_ner(majority_vote_table(ds, wd), gold_spans)
    sn_f1 = sn_res["entity"]["micro"]["f1"]
    mv_f1 = mv_res["entity"]["micro"]["f1"]
    assert sn_f1 >= 0.5, (sn_f1, mv_f1)
    # trained params are checkpointed: a rerun loads them and reproduces
    sn2 = to_arrow(snorkel_table(ds, wd))
    assert tbl.sort_by([(c, "ascending") for c in tbl.column_names])         .equals(sn2.sort_by([(c, "ascending") for c in tbl.column_names]))


def _same_ner(a: pa.Table, b: pa.Table) -> None:
    """Equal spans, labels and confidences."""
    keys = [(c, "ascending") for c in ("conv_id", "turn_idx", "start", "end")]
    assert a.sort_by(keys).equals(b.sort_by(keys))


def _label_model(wd):
    """(iteration, params, history, done) of the label model's latest
    checkpoint in ``wd``."""
    from weak_supervision_for_ner_ray.state.checkpoints import CheckpointStore
    from weak_supervision_for_ner_ray.state.labelmodel import (
        LabelModelParams)
    return CheckpointStore(wd, "lm", LabelModelParams).latest()


def _same_params(a, b) -> None:
    assert np.array_equal(a.prior, b.prior)
    assert np.array_equal(a.conf, b.conf)


def test_snorkel_rerun_with_more_iterations_retrains(ray_session,
                                                     small_corpus,
                                                     tmp_path_factory):
    """A saved label model is reused only for the ``n_iter`` it was
    trained for: n_iter=1 then n_iter=3 in one workdir equals a fresh
    n_iter=3, not the one-iteration model."""
    turns, _, _ = small_corpus
    ds = rd.from_arrow(turns)
    wd = str(tmp_path_factory.mktemp("snorkel_resume"))
    to_arrow(snorkel_table(ds, wd, n_iter=1))
    rerun = to_arrow(snorkel_table(ds, wd, n_iter=3))
    fresh = to_arrow(snorkel_table(
        ds, str(tmp_path_factory.mktemp("snorkel_fresh")), n_iter=3))
    _same_ner(rerun, fresh)


def test_snorkel_ignores_a_leftover_tmp_label_model_checkpoint(
        ray_session, small_corpus, tmp_path_factory):
    """A label-model save killed before its rename leaves a ``.tmp``
    file: the rerun resumes from the last complete iteration and gives the
    uninterrupted run's model and spans."""
    turns, _, _ = small_corpus
    ds = rd.from_arrow(turns)
    wd = str(tmp_path_factory.mktemp("snorkel_tmp"))
    to_arrow(snorkel_table(ds, wd, n_iter=1))
    ckpt = os.path.join(wd, "checkpoints")
    for name in (".lm_iter_002.npz.tmp", "lm_iter_002.npz.tmp"):
        with open(os.path.join(ckpt, name), "wb") as fd:
            fd.write(b"half a checkpoint")
    it, _, history, done = _label_model(wd)
    assert (it, len(history), done) == (1, 1, False)
    rerun = to_arrow(snorkel_table(ds, wd, n_iter=2))
    wd_fresh = str(tmp_path_factory.mktemp("snorkel_tmp_fresh"))
    _same_ner(rerun, to_arrow(snorkel_table(ds, wd_fresh, n_iter=2)))
    _same_params(_label_model(wd)[1], _label_model(wd_fresh)[1])
    assert "lm_iter_002.npz" in os.listdir(ckpt)


def test_snorkel_fresh_trainings_are_bit_identical(ray_session,
                                                   tmp_path_factory):
    """Two fresh trainings on a corpus whose candidate spans fill several
    row groups give bit-identical label models: the per-shard partials are
    merged in shard order, not in completion order."""
    from weak_supervision_for_ner_ray.data import generate_corpus

    turns, _, _ = generate_corpus(200, seed=5)
    runs = []
    for name in ("snorkel_bits_a", "snorkel_bits_b"):
        wd = str(tmp_path_factory.mktemp(name))
        runs.append((to_arrow(snorkel_table(rd.from_arrow(turns), wd)), wd))
    spans = pq.ParquetDataset(os.path.join(runs[0][1], "snorkel_spans"))
    assert sum(f.metadata.num_row_groups for f in spans.fragments) > 1
    _same_params(_label_model(runs[0][1])[1], _label_model(runs[1][1])[1])
    _same_ner(runs[0][0], runs[1][0])


def test_label_model_killed_after_iteration_1_resumes(ray_session,
                                                      small_corpus,
                                                      tmp_path_factory,
                                                      monkeypatch):
    """A label-model training killed in its second pass and rerun to 3
    iterations equals a fresh 3-iteration run."""
    import pytest

    from weak_supervision_for_ner_ray.stages import em_actors

    turns, _, _ = small_corpus
    ds = rd.from_arrow(turns)
    wd = str(tmp_path_factory.mktemp("lm_killed"))
    passes = []
    estep = em_actors.label_model_estep

    def killed_in_pass_2(shards, params):
        passes.append(1)
        if len(passes) == 2:
            raise RuntimeError("killed")
        return estep(shards, params)

    with monkeypatch.context() as m:
        m.setattr(em_actors, "label_model_estep", killed_in_pass_2)
        with pytest.raises(RuntimeError, match="killed"):
            snorkel_table(ds, wd, n_iter=3)
    assert _label_model(wd)[0] == 1
    rerun = to_arrow(snorkel_table(ds, wd, n_iter=3))
    wd_fresh = str(tmp_path_factory.mktemp("lm_fresh"))
    fresh = to_arrow(snorkel_table(ds, wd_fresh, n_iter=3))
    assert _label_model(wd)[0] == 3
    _same_params(_label_model(wd)[1], _label_model(wd_fresh)[1])
    _same_ner(rerun, fresh)


def test_snorkel_and_hmm_resume_from_their_own_checkpoints(
        ray_session, small_corpus, tmp_path_factory, monkeypatch):
    """The label model and the HMM train in one workdir, each under its own
    checkpoint prefix; a rerun of either resumes from its own files and
    runs no E-step."""
    from weak_supervision_for_ner_ray.pipelines.train import (
        train_hmm_sharded)
    from weak_supervision_for_ner_ray.stages import em_actors

    turns, _, _ = small_corpus
    ds = rd.from_arrow(turns)
    wd = str(tmp_path_factory.mktemp("lm_and_hmm"))
    sn = to_arrow(snorkel_table(ds, wd, n_iter=2))
    hmm = train_hmm_sharded(os.path.join(wd, "obs"), wd, n_iter=2, seed=7)
    names = sorted(os.listdir(os.path.join(wd, "checkpoints")))
    assert [n for n in names if n.startswith("lm_")] == \
        [f"lm_iter_{i:03d}.npz" for i in range(3)]
    assert [n for n in names if n.startswith("em_")] == \
        [f"em_iter_{i:03d}.npz" for i in range(len(names) - 3)]

    def no_estep(*_a, **_kw):
        raise AssertionError("a resumed model ran an E-step")

    monkeypatch.setattr(em_actors, "label_model_estep", no_estep)
    monkeypatch.setattr(em_actors, "shard_estep", no_estep)
    _same_ner(to_arrow(snorkel_table(ds, wd, n_iter=2)), sn)
    assert train_hmm_sharded(os.path.join(wd, "obs"), wd, n_iter=2,
                             seed=7).digest() == hmm.digest()


def test_failed_lineage_flush_keeps_staging_and_leaves_no_table(
        tmp_path, monkeypatch):
    """The lineage table is renamed into place: when the rename fails, no
    ``lineage_*`` file is left in the table directory and the staging
    directory keeps its records for a retry."""
    import pytest

    from weak_supervision_for_ner_ray.state import lineage as lin

    wd = str(tmp_path)
    out_dir = os.path.join(wd, "lineage")
    sink = lin.get_lineage_actor(wd)
    for k in range(3):
        lin.record_block(sink, "encode_obs", f"c{k}", "fp", 1, 1, 0.5)

    def rename_fails(src, dst):
        raise OSError("rename failed")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", rename_fails)
        with pytest.raises(OSError, match="rename failed"):
            lin.flush_lineage(sink, out_dir)
    assert not [f for f in os.listdir(out_dir) if "lineage_" in f]
    assert len(os.listdir(sink)) == 3
    path = lin.flush_lineage(sink, out_dir)
    assert os.listdir(out_dir) == [os.path.basename(path)]
    assert pq.read_table(path).num_rows == 3 and not os.path.exists(sink)


def test_baselines_reuse_one_obs_write(ray_session, small_corpus,
                                       tmp_path_factory, monkeypatch):
    """Majority vote then Snorkel on a fresh workdir: both read the one
    obs table, written once; no separate annotated copy is made."""
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("baselines"))
    ds = rd.from_arrow(turns)
    written = []
    orig = rd.Dataset.write_parquet

    def recording_write(self, path, *a, **kw):
        written.append(os.path.basename(os.path.normpath(path)))
        return orig(self, path, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "write_parquet", recording_write)
    mv = to_arrow(majority_vote_table(ds, wd))
    sn = to_arrow(snorkel_table(ds, wd))
    assert mv.num_rows and sn.num_rows
    assert written.count("obs") == 1
    assert os.path.exists(os.path.join(wd, "obs", "_SUCCESS"))
    assert not os.path.exists(os.path.join(wd, "annotated"))
