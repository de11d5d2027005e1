"""Distributed EM training driver (reference: HMMAnnotator.train,
labelling.py:243-289).

Shape (SURVEY.md §3 EP2): the obs parquet is cut once into cost-balanced
shards (``stages/em_actors.py``); per iteration the params go out with one
stateless task per shard on the default worker pool → each task re-reads
and dedups its row groups and folds its turns into one ~2 MB
sufficient-stat partial → partials merged on the driver in shard order →
M-step → checkpoint ``em_iter_k.npz`` → loop until convergence or
``n_iter``.  A restarted driver resumes from the latest checkpoint.
"""

from __future__ import annotations

import os

import ray

from ..state.checkpoints import CheckpointStore
from ..state.hmm import HMMParams, init_params_from_counts, m_step


def train_hmm_sharded(obs_dir: str, workdir: str, *, n_iter: int = 10,
                      tol: float = 1e-2, seed: int = 42, keep_names=None,
                      n_shards: int | None = None,
                      verbose: bool = False) -> HMMParams:
    """EM over cost-balanced obs shards (stages/em_actors.py): each pass is
    one stateless task per shard, so training starts no actor.  Resumes
    from the latest checkpoint in ``workdir``."""
    import glob

    from ..sources.registry import SOURCE_INDICES
    from ..stages.em_actors import (make_shards, shard_estep,
                                    shard_init_counts)

    store = CheckpointStore(workdir)
    resumed = store.latest()
    if resumed is not None and (resumed[3] or resumed[0] >= n_iter):
        return resumed[1]

    files = sorted(glob.glob(os.path.join(obs_dir, "*.parquet")))
    if n_shards is None:
        try:
            # 1 shard per core, each pass task at the default 1 CPU: after
            # O-run compression + exact dedup, 2 shards per core lost —
            # measured at sf0.1/32 cpus: steady passes ~5 s (32 shards) vs
            # ~10 s (64), with half the per-pass merge fan-in
            n_shards = int(ray.cluster_resources().get("CPU", 8))
        except Exception:
            n_shards = 16
    shards = make_shards(files, n_shards)
    keep = None
    if keep_names is not None:
        keep = sorted(SOURCE_INDICES[n] for n in keep_names)

    if resumed is not None:
        start_iter, params, history, _ = resumed
    else:
        init_c, trans_c, obs_c = shard_init_counts(shards)
        params = init_params_from_counts(init_c, trans_c, obs_c,
                                         seed=seed, keep=keep)
        history = []
        start_iter = 0
        store.save(0, params, history)

    for it in range(start_iter + 1, n_iter + 1):
        stats = shard_estep(shards, params)
        params = m_step(params, stats)
        history.append(stats.logprob)
        converged = (len(history) >= 2
                     and abs(history[-1] - history[-2]) < tol)
        store.save(it, params, history, done=converged)
        if verbose:
            print(f"EM iter {it}: logprob={stats.logprob:.2f} "
                  f"n_seqs={stats.n_seqs}")
        if converged:
            break
    return params
