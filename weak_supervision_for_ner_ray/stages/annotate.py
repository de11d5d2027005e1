"""Ray Data stages for the annotation pipeline.

:func:`annotate_pipeline` shuffles the raw turn rows ONCE with
``groupby(["conv_id", "_win"]).map_groups`` and runs the whole LF bank on
the grouped side (:func:`make_full_conv_annotate_fn`): first the turn-level
sources (:func:`annotate_turn_batch`, memoised per worker on the text), then
the conversation-scoped sources (doc_history, doc_majority_*) with turns
restored to stable (conv_id, turn_idx) order (:func:`annotate_conv_group`).
The bank is built once per worker from a ``ray.put`` broadcast of the name
lists (SURVEY.md §3 EP1).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.registry import LFBank
from ..tokenizer import make_doc
from .encode import MentionRows, MentionsBuilder

_TURN_MEMO_CAP = 100_000
_TURN_MEMO_MAX_LEN = 400      # only short (formulaic, high-dup) turns


def annotate_turn_batch(bank: LFBank, batch: pa.Table,
                        memo: dict | None = None) -> pa.Table:
    """Turn-level annotation is a pure function of the text, and transcript
    corpora repeat short formulaic turns heavily (~3.8× measured), so a
    per-worker memo of text -> (n_tokens, layers) skips the whole LF bank
    for duplicates.  Layers objects are never mutated downstream (the conv
    stage re-parses mentions from the Arrow column), so sharing is safe."""
    texts = batch.column("text").to_pylist()
    n_tokens = []
    builder = MentionsBuilder()
    for text in texts:
        hit = memo.get(text) if memo is not None else None
        if hit is not None:
            nt, layers = hit
        else:
            doc, layers = bank.annotate_turn(text)
            nt = len(doc)
            if memo is not None and len(text) <= _TURN_MEMO_MAX_LEN:
                if len(memo) > _TURN_MEMO_CAP:
                    memo.clear()
                memo[text] = (nt, layers)
        n_tokens.append(nt)
        builder.add_layers(layers)
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "role": batch.column("role"),
        "text": batch.column("text"),
        "n_tokens": pa.array(n_tokens, pa.int32()),
        "mentions": builder.finish(),
    })


def annotate_conv_group(bank: LFBank, group: pa.Table) -> pa.Table:
    order = pc.sort_indices(group, sort_keys=[("turn_idx", "ascending")])
    group = group.take(order)
    texts = group.column("text").to_pylist()
    turn_idxs = group.column("turn_idx").to_pylist()

    docs = [make_doc(t) for t in texts]
    rows = MentionRows(group)
    layers_list = [rows.layers(i) for i in range(len(texts))]
    bank.finish_conversation(turn_idxs, docs, layers_list)

    builder = MentionsBuilder()
    for layers in layers_list:
        builder.add_layers(layers)
    return pa.table({
        "conv_id": group.column("conv_id"),
        "turn_idx": group.column("turn_idx"),
        "role": group.column("role"),
        "text": group.column("text"),
        "n_tokens": group.column("n_tokens"),
        "mentions": builder.finish(),
    })


def _bank_from(bank_inputs) -> LFBank:
    # bank_inputs: (gazetteers, first_names[, form_frequencies])
    from .util import cached_from_ref
    return cached_from_ref(bank_inputs,
                           builder=lambda v: LFBank(*v),
                           key_extra="lfbank")


def make_full_conv_annotate_fn(bank_inputs_ref):
    """Whole-conversation annotate (turn + doc level in one grouped call).

    Shuffling RAW turns (conv_id, turn_idx, role, text) before any
    annotation moves ~10× less data through the groupby exchange than
    shuffling annotated rows with their nested mention column; the LF bank
    then runs once per conversation on the grouped side (per-worker bank +
    per-worker text memo still apply)."""

    def full_conv_annotate(group: pa.Table) -> pa.Table:
        from .util import cached_from_ref
        bank = _bank_from(bank_inputs_ref)
        memo = cached_from_ref(bank_inputs_ref, builder=lambda _: {},
                               key_extra="turn_memo")
        turn_table = annotate_turn_batch(bank, group, memo=memo)
        return annotate_conv_group(bank, turn_table)

    return full_conv_annotate


MAX_CONV_WINDOW = 5000


def annotate_pipeline(turns, bank_inputs_ref, *, concurrency=None,
                      batch_size: int = 256,
                      max_conv_window: int = MAX_CONV_WINDOW):
    """turns Dataset -> fully annotated Dataset (turn + conversation level).

    ``bank_inputs_ref``: ``ray.put((gazetteers, first_names))`` — broadcast
    once; every worker builds its LF bank from it exactly once.  The one
    shuffle of the pipeline happens FIRST, over the raw turn rows, so the
    exchange never carries annotation payloads (SURVEY.md §3 EP1).

    Skew control: the group key is ``(conv_id, turn_idx // max_conv_window)``
    — for every conversation at or under the window size (the normal case)
    this is identical to grouping by conv_id alone, while a pathological
    million-turn conversation splits into bounded windows, each annotated
    with conversation-level sources over its own window (the reference's
    per-field sub-document processing, annotations.py:1071-1078; no group
    can exceed the window, so neither straggler time nor group memory is
    unbounded by one hot key).
    """

    def add_window(t: pa.Table) -> pa.Table:
        win = pc.cast(pc.divide(t.column("turn_idx"),
                                max_conv_window), pa.int32())
        return t.append_column("_win", win)

    grouped = turns.map_batches(add_window, batch_format="pyarrow",
                                zero_copy_batch=True) \
        .groupby(["conv_id", "_win"]).map_groups(
            make_full_conv_annotate_fn(bank_inputs_ref),
            batch_format="pyarrow",
            concurrency=concurrency,
        )
    return grouped
