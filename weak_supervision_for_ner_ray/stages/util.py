"""Small stage utilities."""

from __future__ import annotations

from collections import OrderedDict

import ray

# Per-worker-process cache of deserialized broadcast objects.  Stateless
# map_batches tasks run on Ray's long-lived default workers, so caching the
# built state here gives actor-pool amortization (build once per worker)
# without per-stage actor spawn latency.  Keys are ``(ref key, kind)``.
#
# A named kind (the annotate stage's LF bank and turn memo, the decode
# stage's params, alias index and memos) holds ONE generation: each KG
# build broadcasts fresh refs, and nothing asks for an older build's refs
# again, so an older entry is dead state.  Under an LRU every kg_cold build
# left ~35 MB per worker behind (1-cpu host, one worker: RssAnon 149 -> 290
# MB over five builds, against 153 -> 160 MB with one generation).
# Unnamed broadcasts (the op catalogue's per-query state) share the LRU.
_WORKER_CACHE: OrderedDict = OrderedDict()
_WORKER_CACHE_MAX = 32


def cached_from_ref(ref, builder=None, key_extra: str = ""):
    """Fetch a broadcast ObjectRef (or plain value) once per worker and
    optionally run ``builder`` on it; later calls return the cached result.

    ``key_extra`` names the kind of state: a new broadcast of a named kind
    replaces that kind's entry (dropped before the new one is built), so a
    worker keeps one build's state, not the last few builds'."""
    key = (ref.hex() if isinstance(ref, ray.ObjectRef) else str(id(ref)),
           key_extra)
    hit = _WORKER_CACHE.get(key)
    if hit is not None:
        _WORKER_CACHE.move_to_end(key)
        return hit
    if key_extra:
        for old in [k for k in _WORKER_CACHE if k[1] == key_extra]:
            del _WORKER_CACHE[old]
    value = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
    hit = builder(value) if builder is not None else value
    _WORKER_CACHE[key] = hit
    while len(_WORKER_CACHE) > _WORKER_CACHE_MAX:
        _WORKER_CACHE.popitem(last=False)
    return hit


def with_lineage(fn, stage_name: str, sink):
    """Wrap a batch fn so every non-empty block writes one lineage record
    into the build's staging directory ``sink`` (``state.lineage``); no-op
    when ``sink`` is None.  (An empty block is no partition of the data:
    a sort range can come out empty.)"""
    if sink is None:
        return fn
    import time

    from ..state.lineage import block_fingerprint, record_block

    def wrapped(batch):
        t0 = time.time()
        out = fn(batch)
        if not batch.num_rows:
            return out
        fp = block_fingerprint(batch)
        partition_key = fp.split(":")[1] if ":" in fp else fp
        record_block(sink, stage_name, partition_key, fp,
                     batch.num_rows, out.num_rows,
                     (time.time() - t0) * 1000.0)
        return out

    wrapped.__name__ = getattr(fn, "__name__", stage_name)
    return wrapped


# Fewest rows a block should hold: below this, per-task scheduling and
# exchange overhead outweighs the block's work.  On a 1-cpu host a 2,000-turn
# KG build spent 0.92 s in the raw-turn sort with 16 blocks of ~125 rows,
# against 0.29-0.36 s with the turns first coalesced into >= 1,024-row blocks.
MIN_BLOCK_ROWS = 1024


def _cluster_cpus(default: int) -> int:
    try:
        return int(ray.cluster_resources().get("CPU", default))
    except Exception:
        return default


def target_blocks(per_cpu: int = 8, cap: int = 512) -> int:
    """Upper block-count target so every stage schedules ~``per_cpu``
    tasks per core — with blocks == cores a stage runs in 2 uneven waves
    and wastes half the pool at high parallelism (measured: EM eff 0.32
    with 64 blocks on 32 cpus).  Stages that know their row count take
    :func:`blocks_for_rows`, which this caps."""
    return min(cap, max(16, per_cpu * _cluster_cpus(8)))


def blocks_for_rows(rows: int) -> int:
    """Block count for ``rows`` rows: one block per ``MIN_BLOCK_ROWS``
    rows, capped at :func:`target_blocks`, but never fewer than one per
    core.  An
    800-turn build on one core runs each stage as one task instead of 16;
    sf0.1 (198,283 turns) at 32 cpus gets 194 blocks instead of 256."""
    need = -(-int(rows) // MIN_BLOCK_ROWS)
    return max(_cluster_cpus(8), min(need, target_blocks()))


def default_concurrency():
    """Actor-pool sizing: autoscale between 1 and the cluster CPU count.

    Callable-class ``map_batches`` stages require an explicit pool size; an
    autoscaling (1, n_cpus) pool lets the streaming executor balance this
    stage against the read/write/shuffle stages instead of starving them.
    """
    return (1, max(2, _cluster_cpus(4)))
