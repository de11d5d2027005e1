"""EM shard tasks: dedup + kernel parity vs the sequential per-turn path,
streaming mode, pass identity, worker loss and no actors."""

import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd

from weak_supervision_for_ner_ray.stages.em_actors import (make_shards,
                                                           shard_estep,
                                                           shard_init_counts)
from weak_supervision_for_ner_ray.stages.encode import ObsRows
from weak_supervision_for_ner_ray.state import hmm
from weak_supervision_for_ner_ray.state.hmm import (SuffStats,
                                                    init_params_from_counts)


def _obs_table(seed=7, n_turns=60, dup_every=3, max_tokens=12):
    """Flat observation table with heavy duplication and multi-label pairs."""
    rng = np.random.default_rng(seed)
    rows = {"n_tokens": [], "o_t": [], "o_s": [], "o_state": [], "o_conf": []}
    patterns = []
    for _ in range(max(2, n_turns // dup_every)):
        T = int(rng.integers(2, max_tokens))
        n_pairs = int(rng.integers(1, 8))
        t = rng.integers(0, T, n_pairs)
        s = rng.integers(0, hmm.N_SOURCES, n_pairs)
        # a few multi-label observations: duplicate (t, s) with new state
        st = rng.integers(1, hmm.N_STATES, n_pairs)
        cf = rng.uniform(0.3, 1.0, n_pairs).round(3)
        patterns.append((T, t, s, st, cf))
    fps = []
    for i in range(n_turns):
        T, t, s, st, cf = patterns[i % len(patterns)]
        rows["n_tokens"].append(T)
        rows["o_t"].append(t.astype(np.int32))
        rows["o_s"].append(s.astype(np.int16))
        rows["o_state"].append(st.astype(np.int8))
        rows["o_conf"].append(cf.astype(np.float32))
        # obs_fp contract: equal iff the observation pattern is equal —
        # the pattern index serves exactly that role here
        fps.append(i % len(patterns))
    return pa.table({
        "obs_fp": pa.array(fps, pa.int64()),
        "n_tokens": pa.array(rows["n_tokens"], pa.int32()),
        "o_t": pa.array([x.tolist() for x in rows["o_t"]],
                        pa.list_(pa.int32())),
        "o_s": pa.array([x.tolist() for x in rows["o_s"]],
                        pa.list_(pa.int16())),
        "o_state": pa.array([x.tolist() for x in rows["o_state"]],
                            pa.list_(pa.int8())),
        "o_conf": pa.array([x.tolist() for x in rows["o_conf"]],
                           pa.list_(pa.float32())),
    })


def _params(seed=3):
    K, S = hmm.N_STATES, hmm.N_SOURCES
    obs_c = np.zeros((S, K))
    obs_c[:, 0] = 10000.0
    return init_params_from_counts(np.zeros(K), np.zeros((K, K)), obs_c,
                                   seed=seed)


def test_emshard_dedup_estep_parity(ray_session, tmp_path):
    tbl = _obs_table()
    f = str(tmp_path / "obs.parquet")
    pq.write_table(tbl, f)
    p = _params()

    [shard] = make_shards([f], 1)
    assert ray.get(shard.n_turns.remote()) == tbl.num_rows

    got = shard_estep([shard], p)

    exp = SuffStats()
    rows = ObsRows(tbl)
    for i in range(len(rows)):
        hmm.accumulate(rows.turnobs(i), p, exp)

    assert got.n_seqs == exp.n_seqs
    assert abs(got.logprob - exp.logprob) < 1e-6
    assert np.abs(got.start - exp.start).max() < 1e-8
    assert np.abs(got.trans - exp.trans).max() < 1e-7
    assert np.abs(got.obs - exp.obs).max() < 1e-7


def test_emshard_dedup_init_counts_parity(ray_session, tmp_path):
    from weak_supervision_for_ner_ray.stages.encode import obs_argmax_states
    from weak_supervision_for_ner_ray.state.hmm import BEST_COVERAGE_INDEX

    tbl = _obs_table(seed=11)
    f = str(tmp_path / "obs.parquet")
    pq.write_table(tbl, f)
    init, trans, obs = shard_init_counts(make_shards([f], 1))

    K, S = hmm.N_STATES, hmm.N_SOURCES
    einit = np.zeros(K)
    etrans = np.zeros((K, K))
    eobs = np.zeros((S, K))
    rows = ObsRows(tbl)
    for i in range(len(rows)):
        o = rows.turnobs(i)
        if o.n_tokens == 0:
            continue
        states = obs_argmax_states(o, BEST_COVERAGE_INDEX)
        einit[states[0]] += 1
        if o.n_tokens > 1:
            np.add.at(etrans, (states[:-1], states[1:]), 1)
        eobs[:, 0] += o.n_tokens
        for (t, s), dist in o.fired.items():
            eobs[s, 0] -= 1.0
            for state, conf in dist.items():
                eobs[s, state] += conf
    assert np.abs(init - einit).max() < 1e-9
    assert np.abs(trans - etrans).max() < 1e-9
    assert np.abs(obs - eobs).max() < 1e-9


def test_weighted_accumulate_equals_repeated():
    p = _params()
    o = hmm.TurnObs(6)
    o.add_span(hmm.BEST_COVERAGE_INDEX, 1, 3, "PERSON", 1.0)
    s_rep = SuffStats()
    for _ in range(5):
        hmm.accumulate(o, p, s_rep)
    s_w = SuffStats()
    hmm.accumulate(o, p, s_w, weight=5.0)
    assert s_rep.n_seqs == s_w.n_seqs == 5
    assert abs(s_rep.logprob - s_w.logprob) < 1e-9
    assert np.abs(s_rep.obs - s_w.obs).max() < 1e-9
    assert np.abs(s_rep.trans - s_w.trans).max() < 1e-9


def test_emshard_streaming_mode_parity(ray_session, tmp_path, monkeypatch):
    """A shard over budget streams row groups per pass and produces the
    identical partial as the whole-shard path."""
    tbl = _obs_table(seed=21, n_turns=80)
    f = str(tmp_path / "obs.parquet")
    pq.write_table(tbl, f, row_group_size=16)
    p = _params()

    [resident] = make_shards([f], 1)
    monkeypatch.setenv("GRAFT_EM_SHARD_MAX_BYTES", "1")   # must stream
    [streaming] = make_shards([f], 1)
    assert not resident.streaming and streaming.streaming
    assert ray.get(streaming.n_turns.remote()) == tbl.num_rows

    a = shard_estep([resident], p)
    b = shard_estep([streaming], p)
    assert a.n_seqs == b.n_seqs
    assert abs(a.logprob - b.logprob) < 1e-8
    assert np.abs(a.obs - b.obs).max() < 1e-9
    assert np.abs(a.trans - b.trans).max() < 1e-9

    ia = shard_init_counts([resident])
    ib = shard_init_counts([streaming])
    for x, y in zip(ia, ib):
        assert np.abs(x - y).max() < 1e-9


def test_emshard_repeated_estep_identical(ray_session, tmp_path):
    """No state leaks across passes: repeated esteps with the same params
    are bit-identical, and a pass after a different-params pass matches a
    freshly cut shard's result."""
    tbl = _obs_table(seed=23)
    f = str(tmp_path / "obs.parquet")
    pq.write_table(tbl, f)
    p1 = _params(seed=3)
    p2 = _params(seed=4)

    shards = make_shards([f], 1)
    a = shard_estep(shards, p1)
    _ = shard_estep(shards, p2)        # interleave different params
    b = shard_estep(shards, p1)
    c = shard_estep(make_shards([f], 1), p1)
    for x in (b, c):
        assert x.n_seqs == a.n_seqs
        assert abs(x.logprob - a.logprob) < 1e-12
        assert np.abs(x.obs - a.obs).max() == 0.0
        assert np.abs(x.trans - a.trans).max() == 0.0
        assert np.abs(x.start - a.start).max() == 0.0


def test_dedup_rows_verifies_content_on_fp_collision():
    """A 63-bit obs_fp collision between two DIFFERENT patterns must not
    merge their statistics: _dedup_rows verifies byte-equality within
    each fp group (ADVICE r3)."""
    from weak_supervision_for_ner_ray.stages.em_actors import _dedup_rows

    tbl = _obs_table(seed=5, n_turns=12, dup_every=3)
    # forge a collision: give every row the same fingerprint
    tbl = tbl.set_column(0, "obs_fp",
                         pa.array([7] * tbl.num_rows, pa.int64()))
    rows = ObsRows(tbl)
    fp = tbl.column("obs_fp").to_numpy(zero_copy_only=False)
    idx, cnt = _dedup_rows(fp, rows)
    # 4 distinct patterns repeated 3x each -> 4 representatives, weight 3
    assert len(idx) == 4
    assert sorted(cnt.tolist()) == [3, 3, 3, 3]
    assert cnt.sum() == tbl.num_rows
    # representatives must be the first occurrence of each pattern
    assert sorted(idx.tolist()) == [0, 1, 2, 3]


def test_dedup_rows_matches_unique_when_no_collision():
    """On honest fingerprints the result is identical to the previous
    unique-by-fp implementation (same order, same weights)."""
    from weak_supervision_for_ner_ray.stages.em_actors import _dedup_rows

    tbl = _obs_table(seed=9, n_turns=30, dup_every=3)
    rows = ObsRows(tbl)
    fp = tbl.column("obs_fp").to_numpy(zero_copy_only=False)
    idx, cnt = _dedup_rows(fp, rows)
    _, exp_idx, exp_cnt = np.unique(fp, return_index=True,
                                    return_counts=True)
    assert idx.tolist() == exp_idx.tolist()
    assert cnt.tolist() == exp_cnt.tolist()


def _worker_titled(title: bytes):
    """PID of the process whose title (``/proc/<pid>/cmdline``) starts
    with ``title``, or None."""
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as fd:
                if fd.read().startswith(title):
                    return int(d)
        except OSError:
            continue
    return None


def test_estep_survives_worker_loss(ray_session, tmp_path):
    """SIGKILL the worker running an E-step task mid-pass: Ray retries the
    task, and the retried partial is bit-identical to an uninterrupted
    pass."""
    tbl = _obs_table(seed=31, n_turns=4000, dup_every=1, max_tokens=60)
    f = str(tmp_path / "obs.parquet")
    pq.write_table(tbl, f)
    p = _params()
    shards = make_shards([f], 1)
    want = shard_estep(shards, p).to_arrays()

    title = b"ray::_estep_partial"      # a worker's title while it runs it
    with ThreadPoolExecutor(1) as pool:
        run = pool.submit(shard_estep, shards, p)
        pid = None
        deadline = time.monotonic() + 60
        while pid is None and not run.done() and time.monotonic() < deadline:
            pid = _worker_titled(title)
            time.sleep(0.005)
        assert pid is not None, "no running E-step task found to kill"
        os.kill(pid, signal.SIGKILL)
        got = run.result(timeout=300).to_arrays()
    assert not os.path.exists(f"/proc/{pid}")
    assert got.keys() == want.keys()
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_train_starts_no_actor(ray_session, small_corpus, tmp_path):
    """Training runs on the default worker pool: it leaves the cluster's
    actor table as it found it."""
    from ray._private import state

    from weak_supervision_for_ner_ray.pipelines.kg import write_obs
    from weak_supervision_for_ner_ray.pipelines.train import (
        train_hmm_sharded)

    turns, _, _ = small_corpus
    wd = str(tmp_path)
    obs_dir = write_obs(rd.from_arrow(turns), wd)
    before = len(state.actors())
    train_hmm_sharded(obs_dir, wd, n_iter=2, seed=7)
    assert len(state.actors()) == before
