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
    # each iteration's file holds the history and done flag that
    # em_meta.json used to hold; no shared file is rewritten per save
    assert "em_meta.json" not in files
    assert files == [f"em_iter_{i:03d}.npz" for i in range(len(files))]
    for i, name in enumerate(files):
        with np.load(os.path.join(wd, "checkpoints", name)) as z:
            assert len(z["history"]) == i and z["done"].dtype == bool
    it, _, history, _ = CheckpointStore(wd).latest()
    assert it == len(files) - 1 and len(history) == it


def test_resume_ignores_a_leftover_tmp_checkpoint(ray_session, small_corpus,
                                                  tmp_path_factory):
    """A save killed before its rename leaves ``em_iter_k.npz.tmp``: the
    resume starts from the last complete iteration and gives the
    uninterrupted run's params."""
    turns, _, _ = small_corpus
    wd_a = str(tmp_path_factory.mktemp("tmp_a"))
    wd_b = str(tmp_path_factory.mktemp("tmp_b"))
    p_full = train_hmm_sharded(write_obs(rd.from_arrow(turns), wd_a), wd_a,
                               n_iter=3, seed=7)

    obs_b = write_obs(rd.from_arrow(turns), wd_b)
    train_hmm_sharded(obs_b, wd_b, n_iter=1, seed=7)
    ckpt = os.path.join(wd_b, "checkpoints")
    with open(os.path.join(ckpt, "em_iter_002.npz.tmp"), "wb") as fd:
        fd.write(b"half a checkpoint")
    it, _, history, done = CheckpointStore(wd_b).latest()
    assert (it, len(history), done) == (1, 1, False)
    _assert_same_params(p_full, train_hmm_sharded(obs_b, wd_b, n_iter=3,
                                                  seed=7))
    assert "em_iter_003.npz" in os.listdir(ckpt)


def test_rerun_with_fewer_iterations_returns_that_iteration(
        ray_session, small_corpus, tmp_path_factory):
    """A workdir trained to 3 iterations and rerun with ``n_iter=1``
    returns iteration 1, the params of a fresh 1-iteration run, not the
    latest checkpoint."""
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("fewer"))
    obs_dir = write_obs(rd.from_arrow(turns), wd)
    train_hmm_sharded(obs_dir, wd, n_iter=3, seed=7)
    rerun = train_hmm_sharded(obs_dir, wd, n_iter=1, seed=7)
    fresh = train_hmm_sharded(obs_dir, str(tmp_path_factory.mktemp(
        "fewer_fresh")), n_iter=1, seed=7)
    assert rerun.digest() == fresh.digest()


def test_rerun_with_another_seed_trains_afresh(ray_session, small_corpus,
                                               tmp_path_factory):
    """Checkpoints record the init inputs: a rerun with another ``seed``
    clears them and gives a fresh run's params for that seed."""
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("reseed"))
    obs_dir = write_obs(rd.from_arrow(turns), wd)
    seed7 = train_hmm_sharded(obs_dir, wd, n_iter=3, seed=7)
    rerun = train_hmm_sharded(obs_dir, wd, n_iter=3, seed=8)
    fresh = train_hmm_sharded(obs_dir, str(tmp_path_factory.mktemp(
        "reseed_fresh")), n_iter=3, seed=8)
    assert rerun.digest() == fresh.digest() != seed7.digest()
    it, _, history, _ = CheckpointStore(wd).latest()
    assert len(history) == it


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


def _ordered_rows(ds, cols):
    tables = [ray.get(r) for r in ds.to_arrow_refs()]
    return [row for t in tables if t.num_rows
            for row in zip(*(t.column(c).to_pylist() for c in cols))]


NODE_COLS = ["entity_id", "canonical", "label", "n_mentions"]
EDGE_COLS = ["src_id", "pred", "dst_id", "weight"]


def test_build_kg_ignores_parts_of_a_killed_graph_write(ray_session,
                                                        small_corpus,
                                                        tmp_path_factory):
    """A run killed mid-way through the graph write leaves some part files
    in ``nodes`` and ``edges``, a stray one among them, and no
    ``_SUCCESS``; the rerun reproduces the uninterrupted nodes and edges
    exactly, row order included."""
    turns, _, _ = small_corpus
    wd_clean = str(tmp_path_factory.mktemp("graph_clean"))
    wd_killed = str(tmp_path_factory.mktemp("graph_killed"))

    clean = build_kg(rd.from_arrow(turns), wd_clean, n_iter=2)
    shutil.copytree(wd_clean, wd_killed, dirs_exist_ok=True)
    for table in ("nodes", "edges"):
        path = os.path.join(wd_killed, table)
        os.remove(os.path.join(path, "_SUCCESS"))
        parts = sorted(glob.glob(os.path.join(path, "*.parquet")))
        for part in parts[1:]:
            os.remove(part)
        shutil.copy(parts[0], os.path.join(path, "part-999999.parquet"))

    rerun = build_kg(rd.from_arrow(turns), wd_killed, n_iter=2)
    assert _ordered_rows(rerun["nodes"], NODE_COLS) == \
        _ordered_rows(clean["nodes"], NODE_COLS)
    assert _ordered_rows(rerun["edges"], EDGE_COLS) == \
        _ordered_rows(clean["edges"], EDGE_COLS)
    assert not os.path.exists(os.path.join(wd_killed, "nodes",
                                           "part-999999.parquet"))


def test_kg_workdir_keyed_by_code_and_corpus(tmp_path, monkeypatch):
    """The per-sf KG cache of ``__ray_entry__`` is only reused for the
    same package sources and the same corpus files, and a new key prunes
    the sf's older cache directories."""
    import __ray_entry__ as entry

    turns = tmp_path / "corpus" / "turns.parquet"
    turns.mkdir(parents=True)
    part = turns / "part-0000.parquet"
    part.write_bytes(b"x" * 10)
    root = tmp_path / "work"
    root.mkdir()
    monkeypatch.setattr(entry, "_corpus", lambda sf: str(tmp_path / "corpus"))
    monkeypatch.setattr(entry, "_WORK_ROOT", str(root))
    stale = ["sf0.01", "sf0.01-0123456789abcdef"]
    kept = ["sf0.1-0123456789abcdef", "sf0.01-notes", "sf0.01-0123456789abcdef0"]
    for f in stale + kept:
        (root / f / "obs").mkdir(parents=True)
    first = entry._workdir("/data/sf0.01")
    assert os.path.dirname(first) == str(root)
    assert sorted(os.listdir(root)) == sorted(kept)
    assert entry._workdir("/data/sf0.01/") == first
    assert os.path.basename(first).startswith("sf0.01-")
    # an existing key's directory is reused and its siblings are left alone
    os.mkdir(first)
    (root / stale[1]).mkdir()
    assert entry._workdir("/data/sf0.01") == first
    assert sorted(os.listdir(root)) == sorted(
        kept + [stale[1], os.path.basename(first)])

    digest = entry._package_digest()
    assert len(digest) == 64
    monkeypatch.setattr(entry, "_package_digest", lambda: "0" * 64)
    assert entry._workdir("/data/sf0.01") != first
    monkeypatch.setattr(entry, "_package_digest", lambda: digest)
    assert entry._workdir("/data/sf0.01") == first

    st = os.stat(part)
    os.utime(part, ns=(st.st_atime_ns, st.st_mtime_ns + 10 ** 9))
    assert entry._workdir("/data/sf0.01") != first
