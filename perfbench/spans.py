"""Spans and memory sampling, recorded from outside the package.

:func:`instrument` wraps the public entry points of each layer for the
duration of one traced ``build_kg`` call and restores them afterwards, so
the traced run executes the real pipeline.  Spans nest by call order on
the driver thread; work that Ray runs lazily is charged to the driver call
that executes it (a dataset write, a ``ray.get``).
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time


class Tracer:
    """In-memory span list: ``[name, start, end, parent_index]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield idx
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add(self, counter: str, value: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e, _ in self.spans if n == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def child_coverage(self, idx: int) -> float:
        """Share of span ``idx`` covered by its direct children."""
        _, s, e, _ = self.spans[idx]
        covered = sum(ce - cs for _, cs, ce, p in self.spans if p == idx)
        return covered / (e - s)


def _write_span_name(path: str) -> str:
    base = os.path.basename(os.path.normpath(str(path)))
    return {"obs": "annotate.obs_write", "decoded": "decode.write",
            "nodes": "graph.write", "edges": "graph.write"}.get(
                base, "write." + base)


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap each layer's entry points with spans while the block runs.

    Layers and the names their spans get:

    * ``Dataset.write_parquet``: ``annotate.obs_write`` (annotate, the LF
      bank and the obs encoder run fused inside this write),
      ``decode.write``, ``graph.write``;
    * ``pipelines.kg.train_hmm_sharded``: ``em.train``, with children
      ``em.shard_load`` (``make_shards`` plus the wait for every shard to
      load), ``em.init_counts``, ``em.estep``, ``em.mstep`` and
      ``em.checkpoint`` (``CheckpointStore.save`` / ``latest``);
    * ``ray.data.read_parquet``: ``read.plan`` (file listing and metadata;
      the read itself runs inside the consuming span);
    * ``state.lineage.get_lineage_actor``: ``lineage.actor``;
    * ``state.lineage.flush_lineage``: ``lineage.flush``;
    * ``pipelines.kg.graph_tables``: ``graph.tables``.
    """
    import ray
    import ray.data

    from weak_supervision_for_ner_ray.pipelines import kg, train
    from weak_supervision_for_ner_ray.stages import em_actors
    from weak_supervision_for_ner_ray.state import checkpoints, lineage
    from weak_supervision_for_ner_ray.state.hmm import SuffStats

    saved = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, functools.wraps(orig)(make(orig)))

    def spanned(name):
        def make(orig):
            def wrapped(*a, **kw):
                with tracer.span(name):
                    return orig(*a, **kw)
            return wrapped
        return make

    def write_parquet(orig):
        def wrapped(self, path, *a, **kw):
            with tracer.span(_write_span_name(path)):
                return orig(self, path, *a, **kw)
        return wrapped

    def make_shards(orig):
        def wrapped(files, n_shards, *a, **kw):
            with tracer.span("em.shard_load"):
                shards = orig(files, n_shards, *a, **kw)
                n = sum(ray.get([s.n_turns.remote() for s in shards]))
            tracer.add("em.shards", len(shards))
            tracer.add("em.shard_turns", n)
            return shards
        return wrapped

    def shard_estep(orig):
        partial_bytes = sum(a.nbytes for a in SuffStats().to_arrays()
                            .values())

        def wrapped(shards, params):
            with tracer.span("em.estep"):
                out = orig(shards, params)
            # one fixed-shape partial per shard is pulled to the driver
            tracer.add("em.driver_bytes", len(shards) * partial_bytes)
            return out
        return wrapped

    patch(ray.data.Dataset, "write_parquet", write_parquet)
    patch(ray.data, "read_parquet", spanned("read.plan"))
    patch(lineage, "get_lineage_actor", spanned("lineage.actor"))
    patch(kg, "train_hmm_sharded", spanned("em.train"))
    patch(em_actors, "make_shards", make_shards)
    patch(em_actors, "shard_init_counts", spanned("em.init_counts"))
    patch(em_actors, "shard_estep", shard_estep)
    patch(train, "m_step", spanned("em.mstep"))
    patch(checkpoints.CheckpointStore, "save", spanned("em.checkpoint"))
    patch(checkpoints.CheckpointStore, "latest", spanned("em.checkpoint"))
    patch(lineage, "flush_lineage", spanned("lineage.flush"))
    patch(kg, "graph_tables", spanned("graph.tables"))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def steal_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``: on a virtual
    machine, the time its CPUs were runnable but the hypervisor ran
    something else."""
    with open("/proc/stat") as fd:
        fields = [int(x) for x in fd.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _ppid_map() -> dict[int, int]:
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as fd:
                stat = fd.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        out[int(d)] = int(stat[stat.rindex(b")") + 2:].split()[1])
    return out


def _rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", "rb") as fd:
            for line in fd:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fd:
            return fd.read(5) == b"ray::"
    except OSError:
        return False


def tree_rss_mb() -> float:
    """Resident MB of this process plus the Ray worker and actor processes
    descended from it (``ray::`` process titles)."""
    me = os.getpid()
    children: dict[int, list[int]] = {}
    for pid, ppid in _ppid_map().items():
        children.setdefault(ppid, []).append(pid)
    total = _rss_kb(me)
    todo = list(children.get(me, []))
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, []))
        if _is_ray_worker(pid):
            total += _rss_kb(pid)
    return total / 1024.0


class PeakRSS:
    """Background sampler of :func:`tree_rss_mb`; ``peak`` is the largest
    sample since the last :meth:`reset`."""

    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, tree_rss_mb())
            self._stop.wait(self.interval)

    def reset(self):
        self.peak = tree_rss_mb()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)
