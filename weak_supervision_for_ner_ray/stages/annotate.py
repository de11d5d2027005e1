"""Ray Data stages for the annotation pipeline.

:func:`annotate_pipeline` sorts the raw turn rows ONCE by ``(conv_id,
_win)`` and runs the whole LF bank and the obs encoder on each sorted
block (:func:`make_full_conv_annotate_fn`), one pass per conversation:

1. the turn-level sources (:func:`annotate_texts`, memoised per worker on
   the text);
2. the conversation-scoped sources (doc_history, doc_majority_*) with the
   conversation's turns in stable (conv_id, turn_idx) order;
3. the nested ``mentions`` column and the obs encoding
   (``encode.encode_layers``).

Each turn's ``Doc`` and ``Layers`` stay Python objects from step 1 to
step 3, so no turn is tokenised twice and no mention crosses Arrow in
between.  The bank is built once per worker from a ``ray.put`` broadcast
of the name lists (SURVEY.md §3 EP1).  :func:`annotate_turn_batch` and
:func:`annotate_conv_group` are Arrow adapters over steps 1 and 2, for
callers that time them one at a time.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.spans import Layers
from ..sources.registry import LFBank
from ..tokenizer import Doc, make_doc
from .encode import (MentionRows, MentionsBuilder, canonical_layers,
                     encode_layers)

_TURN_MEMO_CAP = 100_000
_TURN_MEMO_MAX_LEN = 400      # only short (formulaic, high-dup) turns


def annotate_texts(bank: LFBank, texts: list[str],
                   memo: dict | None = None) -> list[tuple[Doc, Layers]]:
    """Turn-level sources per text: ``(doc, canonical layers)``.

    Turn-level annotation is a pure function of the text, and transcript
    corpora repeat short formulaic turns heavily (~3.8× measured), so a
    per-worker memo of text -> (doc, canonical layers) skips the whole LF
    bank for duplicates.  Every caller gets a copy of the layers, a memo
    hit included: the conversation-level sources and the specialise vote
    edit the layers in place, and a memo entry must stay as the bank left
    it.  The Doc is shared, since nothing downstream writes to it."""
    out = []
    for text in texts:
        hit = memo.get(text) if memo is not None else None
        if hit is None:
            doc, layers = bank.annotate_turn(text)
            hit = (doc, canonical_layers(layers))
            if memo is not None and len(text or "") <= _TURN_MEMO_MAX_LEN:
                if len(memo) > _TURN_MEMO_CAP:
                    memo.clear()
                memo[text] = hit
        out.append((hit[0], hit[1].copy()))
    return out


def annotate_turn_batch(bank: LFBank, batch: pa.Table,
                        memo: dict | None = None) -> pa.Table:
    """Arrow adapter over :func:`annotate_texts`: adds ``n_tokens`` and
    the turn-level ``mentions``."""
    annotated = annotate_texts(bank, batch.column("text").to_pylist(), memo)
    builder = MentionsBuilder()
    for _, layers in annotated:
        builder.add_layers(layers)
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "role": batch.column("role"),
        "text": batch.column("text"),
        "n_tokens": pa.array([len(doc) for doc, _ in annotated], pa.int32()),
        "mentions": builder.finish(),
    })


def annotate_conv_group(bank: LFBank, group: pa.Table) -> pa.Table:
    """Arrow adapter over ``LFBank.finish_conversation`` for one
    conversation's turn-level table: re-tokenises the texts and parses the
    mentions, since a table carries neither as objects."""
    order = pc.sort_indices(group, sort_keys=[("turn_idx", "ascending")])
    group = group.take(order)
    rows = MentionRows(group)
    docs = [make_doc(t or "") for t in group.column("text").to_pylist()]
    layers_list = [rows.layers(i) for i in range(group.num_rows)]
    bank.finish_conversation(group.column("turn_idx").to_pylist(), docs,
                             layers_list)
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


def _conversations(block: pa.Table) -> tuple[pa.Table, list[int]]:
    """A block sorted by ``(conv_id, _win)`` with each conversation
    window's turns stably put in turn_idx order, and the row offsets where
    the windows start (plus the row count)."""
    conv = block.column("conv_id").to_pylist()
    win = block.column("_win").to_pylist()
    n = len(conv)
    bounds = [0] + [i for i in range(1, n)
                    if conv[i] != conv[i - 1] or win[i] != win[i - 1]] + [n]
    group = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    order = pc.sort_indices(
        pa.table({"g": group, "t": block.column("turn_idx")}),
        sort_keys=[("g", "ascending"), ("t", "ascending")])
    return block.take(order), bounds


def make_full_conv_annotate_fn(bank_inputs_ref, lin_actor=None):
    """Whole-conversation annotate and obs encode over one block of turns
    sorted by ``(conv_id, _win)``; returns the block's obs table.

    Shuffling RAW turns (conv_id, turn_idx, role, text) before any
    annotation moves ~10× less data through the exchange than shuffling
    annotated rows with their nested mention column; the LF bank then runs
    once per conversation after it (per-worker bank + per-worker text memo
    still apply).  Each non-empty block emits one ``encode_obs`` lineage
    record."""
    from .util import cached_from_ref, with_lineage

    def annotate_block(block: pa.Table) -> pa.Table:
        bank = _bank_from(bank_inputs_ref)
        memo = cached_from_ref(bank_inputs_ref, builder=lambda _: {},
                               key_extra="turn_memo")
        block, bounds = _conversations(block)
        annotated = annotate_texts(bank, block.column("text").to_pylist(),
                                   memo)
        docs = [doc for doc, _ in annotated]
        layers_list = [layers for _, layers in annotated]
        turn_idxs = block.column("turn_idx").to_pylist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            bank.finish_conversation(turn_idxs[lo:hi], docs[lo:hi],
                                     layers_list[lo:hi])
        n_tokens = [len(doc) for doc in docs]
        return pa.table({
            "conv_id": block.column("conv_id"),
            "turn_idx": block.column("turn_idx"),
            "text": block.column("text"),
            "n_tokens": pa.array(n_tokens, pa.int32()),
            **encode_layers(layers_list, n_tokens),
        })

    annotate_block = with_lineage(annotate_block, "encode_obs", lin_actor)

    def full_conv_annotate(block: pa.Table) -> pa.Table:
        # the sort leaves empty (even column-less) blocks behind
        return annotate_block(block) if block.num_rows else block

    return full_conv_annotate


MAX_CONV_WINDOW = 5000


def annotate_pipeline(turns, bank_inputs_ref, *, concurrency=None,
                      max_conv_window: int = MAX_CONV_WINDOW,
                      lin_actor=None):
    """turns Dataset -> obs Dataset: turn- and conversation-level
    ``mentions`` plus the encoded observation (``stages.encode``).

    ``bank_inputs_ref``: ``ray.put((gazetteers, first_names))`` — broadcast
    once; every worker builds its LF bank from it exactly once.  The one
    shuffle of the pipeline happens FIRST, over the raw turn rows, so the
    exchange never carries annotation payloads (SURVEY.md §3 EP1).  It is
    the sort ``groupby(...).map_groups`` runs, followed by one whole-block
    call, so a block's groups share one output table and one lineage
    record.

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

    return turns.map_batches(add_window, batch_format="pyarrow",
                             zero_copy_batch=True) \
        .sort(["conv_id", "_win"]) \
        .map_batches(make_full_conv_annotate_fn(bank_inputs_ref, lin_actor),
                     batch_format="pyarrow", batch_size=None,
                     zero_copy_batch=True, concurrency=concurrency)
