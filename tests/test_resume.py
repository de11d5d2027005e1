"""Checkpoint/resume on the path production runs: killing EM after
iteration k and resuming must give the same parameters as an uninterrupted
run, and a rerun of ``build_kg`` must not read rows a killed write left
behind (north rule)."""

import glob
import os
import shutil

import numpy as np
import pyarrow.parquet as pq

import ray
import ray.data as rd

from weak_supervision_for_ner_ray.pipelines.kg import build_kg, write_obs
from weak_supervision_for_ner_ray.pipelines.train import train_hmm_sharded
from weak_supervision_for_ner_ray.state.checkpoints import CheckpointStore


def _rows(ds, cols):
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    return sorted(row for t in tables if t.num_rows
                  for row in zip(*(t.column(c).to_pylist() for c in cols)))


TRIPLE_COLS = ["conv_id", "turn_idx", "subj", "pred", "obj", "subj_id",
               "obj_id", "conf"]
NER_COLS = ["conv_id", "turn_idx", "start", "end", "label", "conf"]


def _assert_same_params(a, b):
    assert np.allclose(a.startprob, b.startprob)
    assert np.allclose(a.transmat, b.transmat)
    assert np.allclose(a.emission_probs, b.emission_probs)


def test_em_resume_matches_uninterrupted(ray_session, small_corpus,
                                         tmp_path_factory):
    turns, _, _ = small_corpus
    ds = rd.from_arrow(turns)
    wd_a = str(tmp_path_factory.mktemp("resume_a"))
    wd_b = str(tmp_path_factory.mktemp("resume_b"))
    obs_a = write_obs(ds, wd_a)
    obs_b = write_obs(ds, wd_b)

    # uninterrupted: 3 iterations
    p_full = train_hmm_sharded(obs_a, wd_a, n_iter=3, seed=7)

    # interrupted: run 1 iteration, "crash", then resume to 3
    train_hmm_sharded(obs_b, wd_b, n_iter=1, seed=7)
    it, _, history, _ = CheckpointStore(wd_b).latest()
    assert it == 1 and len(history) == 1
    p_resumed = train_hmm_sharded(obs_b, wd_b, n_iter=3, seed=7)

    _assert_same_params(p_full, p_resumed)


def test_checkpoint_files_layout(ray_session, small_corpus,
                                 tmp_path_factory):
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("ckpt"))
    obs_dir = write_obs(rd.from_arrow(turns), wd)
    train_hmm_sharded(obs_dir, wd, n_iter=2, seed=7)
    files = sorted(os.listdir(os.path.join(wd, "checkpoints")))
    assert "em_iter_000.npz" in files
    assert "em_iter_002.npz" in files or "em_iter_001.npz" in files
    assert "em_meta.json" in files


def test_build_kg_resume_matches_fresh_run(ray_session, small_corpus,
                                           tmp_path_factory):
    """A build stopped after 1 EM iteration and rerun to 3 in the same
    workdir gives the fresh 3-iteration run's params, spans and triples: the
    decoded and graph tables of the shorter run are not reused."""
    turns, _, _ = small_corpus
    wd_fresh = str(tmp_path_factory.mktemp("kg_fresh"))
    wd_resumed = str(tmp_path_factory.mktemp("kg_resumed"))

    fresh = build_kg(rd.from_arrow(turns), wd_fresh, n_iter=3, seed=7)
    build_kg(rd.from_arrow(turns), wd_resumed, n_iter=1, seed=7)
    resumed = build_kg(rd.from_arrow(turns), wd_resumed, n_iter=3, seed=7)

    _assert_same_params(fresh["params"], resumed["params"])
    assert _rows(resumed["triples"], TRIPLE_COLS) == \
        _rows(fresh["triples"], TRIPLE_COLS)
    # span confidences move with every EM iteration, so this catches a
    # decoded table left over from the 1-iteration run
    assert _rows(resumed["ner"], NER_COLS) == _rows(fresh["ner"], NER_COLS)
    assert _rows(resumed["edges"], ["src_id", "pred", "dst_id", "weight"]) \
        == _rows(fresh["edges"], ["src_id", "pred", "dst_id", "weight"])


def test_build_kg_ignores_parts_of_a_killed_obs_write(ray_session,
                                                      small_corpus,
                                                      tmp_path_factory):
    """A run killed mid-write leaves part files in ``obs`` and no
    ``_SUCCESS``; the rerun must replace them, not read them beside its
    own full set."""
    turns, _, _ = small_corpus
    wd_clean = str(tmp_path_factory.mktemp("obs_clean"))
    wd_killed = str(tmp_path_factory.mktemp("obs_killed"))

    clean = build_kg(rd.from_arrow(turns), wd_clean, n_iter=2)
    part = sorted(glob.glob(os.path.join(wd_clean, "obs", "*.parquet")))[0]
    os.makedirs(os.path.join(wd_killed, "obs"))
    shutil.copy(part, os.path.join(wd_killed, "obs"))

    rerun = build_kg(rd.from_arrow(turns), wd_killed, n_iter=2)
    assert pq.read_table(os.path.join(wd_killed, "obs"),
                         columns=["turn_idx"]).num_rows == turns.num_rows
    assert _rows(rerun["triples"], TRIPLE_COLS) == \
        _rows(clean["triples"], TRIPLE_COLS)
