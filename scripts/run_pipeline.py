"""Job entry point for the KG-construction pipeline (`ray job submit` style).

Runs the full pipeline over a transcript parquet table and writes the
triples/nodes/edges/lineage tables plus EM checkpoints under ``--workdir``;
a rerun with the same workdir resumes from whatever finished (obs encoding,
EM iterations, triple write are each checkpointed).

Examples::

    # local
    python scripts/run_pipeline.py --input /tmp/wsner_corpus/sf0.01/turns.parquet \
        --workdir /tmp/kg_run --n-iter 10

    # on a cluster
    ray job submit --working-dir . -- \
        python scripts/run_pipeline.py --input s3://bucket/turns/ \
        --workdir /mnt/shared/kg_run --n-iter 10
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--input", required=True,
                    help="transcript parquet file/dir (conv_id, turn_idx, "
                         "role, text, tool, ts)")
    ap.add_argument("--workdir", required=True,
                    help="output + checkpoint directory")
    ap.add_argument("--n-iter", type=int, default=10,
                    help="max EM iterations (reference default 10)")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="ray.init num_cpus when not already in a cluster")
    args = ap.parse_args()

    import ray
    if not ray.is_initialized():
        kw = dict(include_dashboard=False, ignore_reinit_error=True,
                  logging_level="ERROR")
        if args.num_cpus:
            ray.init(address="local", num_cpus=args.num_cpus, **kw)
        else:
            ray.init(address="local", **kw)
    ray.data.DataContext.get_current().enable_progress_bars = False

    import ray.data as rd

    from weak_supervision_for_ner_ray.pipelines.kg import build_kg
    from weak_supervision_for_ner_ray.stages.util import target_blocks

    t0 = time.time()
    turns = rd.read_parquet(args.input, override_num_blocks=target_blocks())
    out = build_kg(turns, args.workdir, n_iter=args.n_iter, seed=args.seed)
    summary = {
        "triples": out["triples"].count(),
        "nodes": out["nodes"].count(),
        "edges": out["edges"].count(),
        "wall_sec": round(time.time() - t0, 1),
        "workdir": args.workdir,
    }
    print(json.dumps(summary))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
