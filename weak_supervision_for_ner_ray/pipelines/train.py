"""The EM driver: one loop (:func:`run_em`) for the HMM (reference:
HMMAnnotator.train, labelling.py:243-289) and the span-level label model
(``state/labelmodel.py``, the Snorkel baseline).

Shape (SURVEY.md §3 EP2): the model's parquet table is cut once into
cost-balanced shards of row groups (``stages/em_actors.py``); per
iteration one stateless task per shard folds its row groups into a
sufficient-statistic partial → partials merged on the driver in shard
order → M-step → checkpoint ``<prefix>_iter_k.npz`` → loop until
convergence or ``n_iter``.  EM statistics are a decomposable aggregation,
so the two models differ only in init, E-step, M-step and ``tol``.
"""

from __future__ import annotations

import glob
import os

import ray

from ..stages import em_actors
from ..state import labelmodel as lm
from ..state.checkpoints import CheckpointStore
from ..state.hmm import HMMParams, init_params_from_counts, m_step


def run_em(store: CheckpointStore, inputs: str, *, n_iter: int, tol: float,
           shards, init, estep, mstep):
    """EM to ``n_iter`` iterations, or until two successive
    log-likelihoods differ by less than ``tol``, checkpointing every
    iteration in ``store``.

    ``shards()`` cuts the table, only when training is needed;
    ``init(shards)`` gives the iteration-0 params, made from ``inputs``;
    ``estep(shards, params)`` gives merged statistics with a ``logprob``;
    ``mstep(params, stats)`` gives the next params.  A store whose
    iteration 0 records other ``inputs`` is cleared; otherwise training
    resumes from its checkpoint of iteration ``min(n_iter, latest)``."""
    if store.inputs() != inputs:
        store.clear()
    resumed = store.latest(upto=n_iter)
    if resumed is not None and (resumed[3] or resumed[0] >= n_iter):
        return resumed[1]

    parts = shards()
    # a fresh run keeps no reference to the iteration-0 params (~9 MB for
    # the HMM) once the loop replaces them
    start_iter, params, history, _ = resumed or (0, init(parts), [], False)
    if resumed is None:
        store.save(0, params, history, inputs=inputs)

    for it in range(start_iter + 1, n_iter + 1):
        stats = estep(parts, params)
        params = mstep(params, stats)
        history.append(stats.logprob)
        converged = (len(history) >= 2
                     and abs(history[-1] - history[-2]) < tol)
        store.save(it, params, history, done=converged)
        if converged:
            break
    return params


def _n_shards() -> int:
    try:
        # 1 shard per core, each pass task at the default 1 CPU: after
        # O-run compression + exact dedup, 2 shards per core lost —
        # measured at sf0.1/32 cpus: steady passes ~5 s (32 shards) vs
        # ~10 s (64), with half the per-pass merge fan-in
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 16


def train_hmm_sharded(obs_dir: str, workdir: str, *, n_iter: int = 10,
                      tol: float = 1e-2, seed: int = 42,
                      n_shards: int | None = None) -> HMMParams:
    """The HMM's EM over the obs table; training starts no actor.
    Checkpoints ``em_iter_k.npz`` in ``workdir``, which record ``seed``."""
    files = sorted(glob.glob(os.path.join(obs_dir, "*.parquet")))
    return run_em(
        CheckpointStore(workdir), f"seed={seed}", n_iter=n_iter, tol=tol,
        shards=lambda: em_actors.make_shards(files, n_shards or _n_shards()),
        init=lambda shards: init_params_from_counts(
            *em_actors.shard_init_counts(shards), seed=seed),
        estep=em_actors.shard_estep, mstep=m_step)


def train_label_model(spans_dir: str, workdir: str, *,
                      n_iter: int = 5) -> lm.LabelModelParams:
    """The span label model's EM over the ``snorkel_spans`` table, its
    shards packed by footer row counts: exactly ``n_iter`` passes.
    Checkpoints ``lm_iter_k.npz`` in ``workdir``."""
    files = sorted(glob.glob(os.path.join(spans_dir, "*.parquet")))
    return run_em(
        CheckpointStore(workdir, "lm", lm.LabelModelParams), "",
        n_iter=n_iter, tol=0.0,     # |a - b| < 0 never holds: every pass runs
        shards=lambda: em_actors.make_shards(files, _n_shards(),
                                             cost=em_actors.footer_rows),
        init=lambda shards: lm.LabelModelParams.init(),
        estep=em_actors.label_model_estep,
        mstep=lambda params, stats: lm.m_step(stats))
