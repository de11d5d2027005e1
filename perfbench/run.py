#!/usr/bin/env python3
"""Knowledge-graph build benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload kg_cold --seed 1 --seconds 20 --trace 0

One process starts a local Ray cluster with ``num_cpus`` = the CPUs this
process may run on, builds the workload's seeded corpus, warms the workers
up, then runs ``build_kg`` on fresh work directories for ``--seconds``
(at least one build).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Progress and fingerprints go to stderr.  Work files live under
``.perfbench_run/`` in the repository root and are removed at exit, except
the output ledger that lets later runs of the same seed check their
outputs against earlier ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PKG = "weak_supervision_for_ner_ray"
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
# Ray's unix socket paths (<temp_dir>/session_<stamp>/sockets/plasma_store)
# must stay under the 107-byte limit
MAX_RAY_TMP_LEN = 45
RAY_TMP = os.path.join(RUN_DIR, f"r{os.getpid()}")
# a floor that only broken output crosses; the measured values are the
# triple_precision / triple_recall metrics
MIN_PRECISION_RECALL = 0.9
DEADLINE_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_ray():
    import ray
    import ray.data
    env_path = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    kw = {}
    if len(RAY_TMP) <= MAX_RAY_TMP_LEN:
        kw["_temp_dir"] = RAY_TMP
    nproc = int(subprocess.check_output(["nproc"], text=True))
    # workers import the package from the checkout whatever their cwd
    ray.init(address="local", num_cpus=nproc, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 ** 2,
             runtime_env={"env_vars": {"PYTHONPATH": env_path}}, **kw)
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return nproc


def to_arrow(ds):
    import pyarrow as pa
    import ray
    tables = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(tables) if tables else pa.table({})


def write_corpus(turns, out_dir: str, parts: int = 8) -> str:
    import pyarrow.parquet as pq
    os.makedirs(out_dir)
    step = -(-turns.num_rows // parts)
    for i in range(parts):
        pq.write_table(turns.slice(i * step, step),
                       os.path.join(out_dir, f"part-{i:02d}.parquet"))
    return out_dir


def build(corpus_dir: str, workdir: str, n_iter: int, tracer=None):
    """One ``build_kg`` through to consumed triples, nodes and edges.
    Returns (wall seconds, build_kg's dict, {name: arrow table})."""
    import contextlib

    import ray.data as rd

    from weak_supervision_for_ner_ray.pipelines.kg import build_kg
    from weak_supervision_for_ner_ray.stages.util import target_blocks

    span = tracer.span if tracer is not None else (
        lambda _: contextlib.nullcontext())
    t0 = time.perf_counter()
    with span("build"):
        out = build_kg(rd.read_parquet(corpus_dir,
                                       override_num_blocks=target_blocks()),
                       workdir, n_iter=n_iter, write=True, seed=42)
        with span("consume"):
            tables = {k: to_arrow(out[k])
                      for k in ("triples", "nodes", "edges")}
    return time.perf_counter() - t0, out, tables


def params_hash(params) -> str:
    import hashlib
    h = hashlib.sha256()
    for a in (params.startprob, params.transmat, params.emission_probs):
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def output_record(out, tables, gold_triples) -> dict:
    from workloads import table_hash, triple_scores
    p, r = triple_scores(tables["triples"], gold_triples)
    rec = {k: table_hash(t) for k, t in tables.items()}
    rec["params"] = params_hash(out["params"])
    rec["precision"], rec["recall"] = p, r
    return rec


class Checks:
    """Counts builds and failed output checks; every failure is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.run_failed = False

    def fail(self, msg: str) -> None:
        self.problems.append(msg)
        log("CHECK FAILED:", msg)

    def fail_run(self, msg: str) -> None:
        """A failure that invalidates every build of the run."""
        self.run_failed = True
        self.fail(msg)

    def build(self, rec: dict, reference: dict | None) -> None:
        """One attempted build: P/R bar and identical outputs."""
        self.attempted += 1
        bad = []
        if min(rec["precision"], rec["recall"]) < MIN_PRECISION_RECALL:
            bad.append(f"triple P/R {rec['precision']:.4f}/"
                       f"{rec['recall']:.4f} below {MIN_PRECISION_RECALL}")
        if reference is not None:
            for k in ("triples", "nodes", "edges", "params"):
                if rec[k] != reference[k]:
                    bad.append(f"{k} hash {rec[k]} != {reference[k]}")
        for msg in bad:
            self.fail(msg)
        self.failed += bool(bad)


def check_ledger(checks: Checks, workload: str, seed: int, nproc: int,
                 fp: dict, rec: dict) -> None:
    """Outputs of one seed must repeat across runs in this checkout: the
    first run records them, later runs compare.  The EM shard count follows
    ``num_cpus`` and changes float summation order, so the key holds it."""
    path = os.path.join(RUN_DIR, "ledger",
                        f"{workload}-{seed}-{nproc}cpu.json")
    entry = {"fingerprint": fp,
             **{k: rec[k] for k in ("triples", "nodes", "edges", "params")}}
    if os.path.exists(path):
        with open(path) as fd:
            old = json.load(fd)
        for k, v in entry.items():
            if old.get(k) != v:
                checks.fail_run(f"{k} differs from an earlier run of "
                                f"seed {seed}: {v} != {old.get(k)}")
        return
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fd:
        json.dump(entry, fd)
    os.replace(path + ".tmp", path)


def check_canary(checks: Checks, workload: str, spec: dict) -> None:
    """The generator lives in the package: refuse to report numbers when
    it no longer yields the corpus pinned in reference.json."""
    from workloads import CANARY_TURNS, FIXED_SEED, fingerprint, make_corpus
    with open(os.path.join(HERE, "reference.json")) as fd:
        pinned = json.load(fd)["canary"][workload]
    got = fingerprint(make_corpus(CANARY_TURNS, spec["roles"],
                                  FIXED_SEED)[0])
    if got != pinned:
        checks.fail_run(f"generator canary for {workload} changed: {got} "
                        f"!= {pinned}; the workload is no longer comparable")


def warm_workers(out_dir: str) -> None:
    """Start the Ray workers, import the package in them and start Ray
    Data's own actors with a tiny pipeline; the first build otherwise pays
    about 4 s of start-up that later builds do not."""
    import ray.data as rd

    def load(batch):
        import weak_supervision_for_ner_ray.pipelines.kg  # noqa: F401
        import weak_supervision_for_ner_ray.stages.em_actors  # noqa: F401
        import weak_supervision_for_ner_ray.stages.kg  # noqa: F401
        return batch

    rd.range(64, override_num_blocks=4).map_batches(load).groupby(
        "id").count().write_parquet(out_dir)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def traced_metrics(spec, corpus_dir, wd, gold_spans, gold_triples, checks,
                   walls, first, fp) -> dict:
    """One more build under spans, then the kernel block, the host probe
    and the catalogue; returns the per-layer metrics."""
    import numpy as np
    import pyarrow.parquet as pq

    import catalogue
    import kernels
    from spans import Tracer, instrument, steal_jiffies
    from weak_supervision_for_ner_ray.pipelines.eval import evaluate_ner
    from workloads import kernel_sample, ner_f1

    tracer = Tracer()
    steal0 = steal_jiffies()
    with instrument(tracer):
        wall, out, tables = build(corpus_dir, wd, spec["n_iter"], tracer)
    steal1 = steal_jiffies()
    # the traced build must reproduce the untraced outputs exactly
    checks.build(output_record(out, tables, gold_triples), first)
    f1 = evaluate_ner(out["ner"], gold_spans)["entity"]["micro"]["f1"]
    if round(ner_f1(to_arrow(out["ner"]), gold_spans), 4) != f1:
        checks.fail(f"ner_f1 disagrees with evaluate_ner ({f1})")

    obs = pq.read_table(os.path.join(wd, "obs"), columns=["obs_fp"])
    estep = tracer.durations("em.estep")
    m = {
        "annotate.obs_write_s": tracer.total("annotate.obs_write"),
        "annotate.distinct_text_ratio": fp["distinct_texts"] / fp["turns"],
        "encode.obs_bytes": dir_bytes(os.path.join(wd, "obs")),
        "em.shard_load_s": tracer.total("em.shard_load"),
        "em.estep_s": statistics.median(estep),
        "em.mstep_s": tracer.total("em.mstep"),
        "em.iters": len(estep),
        "em.dedup_ratio": len(np.unique(obs.column("obs_fp"))) / len(obs),
        "em.driver_bytes_per_iter":
            tracer.counters["em.driver_bytes"] / len(estep),
        "em.checkpoint_s": tracer.total("em.checkpoint"),
        "decode.write_s": tracer.total("decode.write"),
        "decode.rows_out": pq.read_table(os.path.join(wd, "decoded"),
                                         columns=["kind"]).num_rows,
        "graph.write_s": (tracer.total("graph.tables")
                          + tracer.total("graph.write")),
        "graph.nodes": tables["nodes"].num_rows,
        "graph.edges": tables["edges"].num_rows,
        "lineage.flush_s": tracer.total("lineage.flush"),
        "io.read_plan_s": tracer.total("read.plan"),
        "trace.overhead_ratio": wall / statistics.median(walls),
        "trace.span_coverage": tracer.child_coverage(0),
        "host.probe_s": kernels.host_probe_s(),
        "host.steal_share": ((steal1[0] - steal0[0])
                             / max(1, steal1[1] - steal0[1])),
    }
    m.update(kernels.kernel_block(kernel_sample(spec["roles"]),
                                  out["params"]))

    secs, wrong = catalogue.run_catalogue(log)
    checks.attempted += len(secs)
    checks.failed += len(wrong)
    for name in wrong:
        checks.fail(f"catalogue query {name} differs from its oracle")
    m.update({f"ops.{q}_s": t for q, t in secs.items()})
    m["ops.queries_per_s"] = len(secs) / sum(secs.values())
    m["ops.under_100ms"] = sum(t < catalogue.FAST_S for t in secs.values())
    return m


def run(args, work: str) -> dict:
    from spans import PeakRSS
    from workloads import WORKLOADS, fingerprint, make_corpus, ner_f1

    spec = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fd:
        declared = json.load(fd)
    checks = Checks()
    serial = iter(range(1 << 30))

    def fresh_dir(tag):
        return os.path.join(work, f"{tag}{next(serial)}")

    with PeakRSS() as rss:
        t0 = time.perf_counter()
        nproc = start_ray()
        setup_s = time.perf_counter() - t0
        gen = []
        for _ in range(3):
            t0 = time.perf_counter()
            turns, gold_spans, gold_triples = make_corpus(
                spec["turns"], spec["roles"], args.seed)
            gen.append(time.perf_counter() - t0)
        setup_s += statistics.median(gen)
        t0 = time.perf_counter()
        fp = fingerprint(turns)
        log(f"fingerprint {args.workload} seed={args.seed} "
            f"{json.dumps(fp)} num_cpus={nproc}")
        corpus_dir = write_corpus(turns, fresh_dir("corpus"))
        check_canary(checks, args.workload, spec)
        warm_workers(fresh_dir("warm"))
        setup_s += time.perf_counter() - t0

        rss.reset()
        walls, first, last = [], None, None
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < args.seconds or (
                not walls and checks.attempted < 3):
            wd = fresh_dir("wd")
            try:
                wall, out, tables = build(corpus_dir, wd, spec["n_iter"])
                rec = output_record(out, tables, gold_triples)
            except Exception:
                checks.attempted += 1
                checks.failed += 1
                checks.fail("build raised:\n" + traceback.format_exc())
                continue
            walls.append(wall)
            checks.build(rec, first)
            first = first or rec
            if last is not None:
                shutil.rmtree(last[0])
            last = (wd, out)
        if not walls:
            raise RuntimeError("no build completed")
        peak_rss = rss.peak
        check_ledger(checks, args.workload, args.seed, nproc, fp, first)
        log(f"setup {setup_s:.2f}s builds {[round(w, 3) for w in walls]} "
            f"outputs {json.dumps(first)}")

        if args.trace:
            kind = "per_layer"
            metrics = traced_metrics(spec, corpus_dir, fresh_dir("wd"),
                                     gold_spans, gold_triples, checks,
                                     walls, first, fp)
        else:
            kind = "end_to_end"
            metrics = {
                "turns_per_s": statistics.median(fp["turns"] / w
                                                 for w in walls),
                "setup_s": setup_s,
                "peak_rss_mb": peak_rss,
                "triple_precision": first["precision"],
                "triple_recall": first["recall"],
                "ner_f1": ner_f1(to_arrow(last[1]["ner"]), gold_spans),
            }
    return {
        "correct": not checks.problems,
        "attempted": checks.attempted,
        "failed": checks.attempted if checks.run_failed else checks.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in declared[kind]},
    }


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, PKG)):
        log(f"error: package {PKG!r} not found next to {HERE}; run from a "
            f"checkout of the repository")
        return 2
    sys.path.insert(0, ROOT)
    sys.path.insert(0, HERE)
    args = parse_args(argv)

    def deadline(*_):
        raise TimeoutError(f"benchmark run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, deadline)
    signal.alarm(DEADLINE_S)
    work = os.path.join(RUN_DIR, "work", str(os.getpid()))
    os.makedirs(work)
    try:
        result = run(args, work)
    finally:
        import ray
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)
    signal.alarm(0)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
