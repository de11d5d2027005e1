"""Small stage utilities."""

from __future__ import annotations

from collections import OrderedDict

import ray

# Per-worker-process cache of deserialized broadcast objects.  Stateless
# map_batches tasks run on Ray's long-lived default workers, so caching the
# built state here gives actor-pool amortization (build once per worker)
# without per-stage actor spawn latency.
_WORKER_CACHE: OrderedDict = OrderedDict()
_WORKER_CACHE_MAX = 32


def cached_from_ref(ref, builder=None, key_extra: str = ""):
    """Fetch a broadcast ObjectRef (or plain value) once per worker and
    optionally run ``builder`` on it; later calls return the cached result."""
    key = (ref.hex() if isinstance(ref, ray.ObjectRef) else str(id(ref)),
           key_extra)
    hit = _WORKER_CACHE.get(key)
    if hit is None:
        value = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
        hit = builder(value) if builder is not None else value
        _WORKER_CACHE[key] = hit
        while len(_WORKER_CACHE) > _WORKER_CACHE_MAX:
            _WORKER_CACHE.popitem(last=False)
    else:
        _WORKER_CACHE.move_to_end(key)
    return hit


def with_lineage(fn, stage_name: str, actor):
    """Wrap a batch fn so every block emits one lineage record
    (fire-and-forget to the lineage actor; no-op when actor is None)."""
    if actor is None:
        return fn
    import time

    from ..state.lineage import block_fingerprint, record_block

    def wrapped(batch):
        t0 = time.time()
        out = fn(batch)
        fp = block_fingerprint(batch)
        partition_key = fp.split(":")[1] if ":" in fp else fp
        record_block(actor, stage_name, partition_key, fp,
                     batch.num_rows, out.num_rows,
                     (time.time() - t0) * 1000.0)
        return out

    wrapped.__name__ = getattr(fn, "__name__", stage_name)
    return wrapped


def target_blocks(per_cpu: int = 8, cap: int = 512) -> int:
    """Block-count target so every stage schedules ~``per_cpu`` tasks per
    core — with blocks == cores a stage runs in 2 uneven waves and wastes
    half the pool at high parallelism (measured: EM eff 0.32 with 64 blocks
    on 32 cpus)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return min(cap, max(16, per_cpu * cpus))


def default_concurrency(concurrency=None):
    """Actor-pool sizing: autoscale between 1 and the cluster CPU count.

    Callable-class ``map_batches`` stages require an explicit pool size; an
    autoscaling (1, n_cpus) pool lets the streaming executor balance this
    stage against the read/write/shuffle stages instead of starving them.
    """
    if concurrency is not None:
        return concurrency
    try:
        cpus = int(ray.cluster_resources().get("CPU", 4))
    except Exception:
        cpus = 4
    return (1, max(2, cpus))
