"""Workload inputs: seeded transcript corpora of a fixed turn count.

Every corpus comes from the package's own generator,
``data.generate_corpus(n_convs, seed)``.  Whole conversations are taken in
``conv_id`` order while they fit the workload's turn budget, so the turn
count is within 1% of the budget for every seed while the generator's skewed
conversation lengths and repeated formulaic turns are kept.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

# name -> turn budget, kept roles (None: the default mix) and EM iterations;
# BENCHMARK.json says why each workload is there
WORKLOADS = {
    "kg_cold": dict(turns=2000, roles=None, n_iter=2),
    "kg_entity_dense": dict(turns=800, roles=("assistant",), n_iter=2),
}

# seed and size of the fixed kernel sample and of the generator canary
FIXED_SEED = 0
KERNEL_SAMPLE_TURNS = 300
CANARY_TURNS = 200


def make_corpus(turn_budget: int, roles, seed: int):
    """(turns, gold_spans, gold_triples) holding whole conversations,
    between 99% and 100% of ``turn_budget`` turns."""
    from weak_supervision_for_ner_ray.data import generate_corpus

    n_convs = max(16, turn_budget // 8)
    while True:
        turns, gold_spans, gold_triples = generate_corpus(n_convs, seed)
        if roles is not None:
            turns = turns.filter(pc.is_in(turns.column("role"),
                                          pa.array(list(roles))))
        counts = {}
        for c in turns.column("conv_id").to_pylist():
            counts[c] = counts.get(c, 0) + 1
        keep, total = [], 0
        for c in sorted(counts):
            if total + counts[c] <= turn_budget:
                keep.append(c)
                total += counts[c]
        # a gap smaller than every remaining conversation may stay open
        if total >= 0.99 * turn_budget or n_convs >= 8 * turn_budget:
            break
        n_convs *= 2
    keep = pa.array(keep, pa.string())

    def only(t):
        return t.filter(pc.is_in(t.column("conv_id"), keep))

    turns = only(turns)
    if roles is not None:
        # gold exists for assistant turns only; drop any of other roles
        kept = set(zip(turns.column("conv_id").to_pylist(),
                       turns.column("turn_idx").to_pylist()))

        def on_kept(t):
            mask = [k in kept for k in zip(t.column("conv_id").to_pylist(),
                                           t.column("turn_idx").to_pylist())]
            return t.filter(pa.array(mask, pa.bool_()))

        return turns, on_kept(only(gold_spans)), on_kept(only(gold_triples))
    return turns, only(gold_spans), only(gold_triples)


def fingerprint(turns: pa.Table) -> dict:
    """Turn count, distinct-text count and a content hash of the corpus
    (order-independent: rows are hashed in (conv_id, turn_idx) order)."""
    t = turns.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    h = hashlib.sha256()
    for col in ("conv_id", "turn_idx", "role", "text"):
        for v in t.column(col).to_pylist():
            h.update(repr(v).encode("utf-8"))
            h.update(b"\x1f")
    return {"turns": t.num_rows,
            "distinct_texts": len(set(t.column("text").to_pylist())),
            "sha256": h.hexdigest()[:16]}


def kernel_sample(roles) -> pa.Table:
    """The fixed turn sample the single-threaded kernels are timed on:
    whole conversations from the fixed seed, sorted by (conv_id,
    turn_idx)."""
    turns, _, _ = make_corpus(KERNEL_SAMPLE_TURNS, roles, FIXED_SEED)
    return turns.sort_by([("conv_id", "ascending"),
                          ("turn_idx", "ascending")])


def table_hash(table: pa.Table) -> str:
    """Order-independent content hash of a table (rows sorted by value)."""
    cols = sorted(table.column_names)
    rows = sorted(zip(*(table.column(c).to_pylist() for c in cols)),
                  key=repr)
    h = hashlib.sha256(repr(cols).encode("utf-8"))
    for r in rows:
        h.update(repr(r).encode("utf-8"))
    return h.hexdigest()[:16]


def triple_scores(triples: pa.Table, gold_triples: pa.Table):
    """(precision, recall) of emitted (conv_id, turn_idx, subj, pred, obj)
    triples against the generator's gold triples, as a set comparison."""
    def keyset(t):
        return set(zip(*(t.column(c).to_pylist() for c in
                         ("conv_id", "turn_idx", "subj", "pred", "obj"))))
    got, gold = keyset(triples), keyset(gold_triples)
    tp = len(got & gold)
    return tp / max(1, len(got)), tp / max(1, len(gold))


def ner_f1(ner: pa.Table, gold_spans: pa.Table,
           conf_threshold: float = 0.5) -> float:
    """Entity micro-F1 of the ``ner`` table against the gold spans, with
    the semantics of ``pipelines.eval.evaluate_ner`` (exact span and label,
    confidence >= 0.5, each predicted span counted once per turn).  That
    function runs a Ray Data groupby costing seconds per call on one CPU,
    so the traced runs check this value against it instead of every run
    paying for it."""
    gold = {}
    for key in zip(*(gold_spans.column(c).to_pylist() for c in
                     ("conv_id", "turn_idx", "start", "end", "label"))):
        gold[key[:4]] = key[4]
    pred = {key[:5] for key in zip(*(ner.column(c).to_pylist() for c in
                                     ("conv_id", "turn_idx", "start", "end",
                                      "label", "conf")))
            if key[5] >= conf_threshold}
    tp = sum(gold.get(k[:4]) == k[4] for k in pred)
    p = tp / len(pred) if pred else 0.0
    r = tp / len(gold) if gold else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0
