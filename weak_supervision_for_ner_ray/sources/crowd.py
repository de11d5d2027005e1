"""Crowd-annotation loader — counterpart of the reference's
``get_crowd_data`` (analysis.py:213-301), the one analysis entry point
that had no equivalent here.

The reference loads a crowdsourcing JSON whose records carry the
annotated sentence text plus whitespace-separated span tokens of the
form ``"<start>-<end>/<label>"`` (character offsets, END INCLUSIVE),
matches each record to its source sentence by exact stripped-text
equality, converts char spans to token spans via ``doc.char_span``
(dropping spans that don't align to token boundaries, printed as
"strange span"), remaps DATETIME→DATE, and resolves overlapping crowd
spans by dropping the earlier span and extending the later one's start
to the earlier start (analysis.py:288-296).

Ray-Data shape: the crowd file is inherently small (human annotations),
so it is parsed once on the driver, broadcast via ``ray.put``, and
probed inside an actor-pool ``map_batches`` over the turns — the
classic small-side broadcast join.  Output rows use the same long-form
mentions schema as :func:`..pipelines.kg.mentions_table`
(conv_id, turn_idx, source="crowd", start, end, label, conf)."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

import ray

from ..tokenizer import tokenise

CROWD_SOURCE = "crowd"


def parse_crowd_json(path: str) -> dict[str, list[tuple[int, int, str]]]:
    """``{stripped sentence text: [(start_char, end_char_EXCLUSIVE,
    label), ...]}`` from the reference's crowd JSON layout.  The
    reference's inclusive end (``int(...)+1``, analysis.py:266) and the
    DATETIME→DATE remap (analysis.py:296) are applied here."""
    with open(path) as f:
        dic = json.load(f)
    out: dict[str, list[tuple[int, int, str]]] = {}
    for rec in dic.values():
        text = rec["original_text"].strip()
        spans = out.setdefault(text, [])
        for tok in rec.get("annotated_text", "").split():
            if "/" not in tok:
                continue
            label = tok.split("/")[1].upper()
            if label == "DATETIME":
                label = "DATE"
            start = int(tok.split("-")[0])
            end = int(tok.split("-")[1].split("/")[0]) + 1
            spans.append((start, end, label))
    return out


def _char_to_token_span(starts: np.ndarray, lens: np.ndarray,
                        cs: int, ce: int) -> tuple[int, int] | None:
    """Token span [ts, te) whose char extent is exactly [cs, ce) — the
    ``doc.char_span`` contract: None unless both ends align to token
    boundaries (analysis.py:267-270 skips those as "strange spans")."""
    i = int(np.searchsorted(starts, cs))
    if i >= len(starts) or starts[i] != cs:
        return None
    ends = starts + lens
    j = int(np.searchsorted(ends, ce))
    if j >= len(ends) or ends[j] != ce:
        return None
    return i, j + 1


def _resolve_overlaps(spans: list[tuple[int, int, str]]
                      ) -> list[tuple[int, int, str]]:
    """The reference's quirky overlap rule (analysis.py:288-295): when a
    span starts before the previous one ends, DROP the previous span and
    extend the current one's start back to the previous start, keeping
    the CURRENT label."""
    out: list[tuple[int, int, str]] = []
    for start, end, label in sorted(spans):
        if out and out[-1][1] > start:
            prev_start = out.pop()[0]
            start = prev_start
        out.append((start, end, label))
    return out


class CrowdMatchStage:
    """Actor-pool stage: exact stripped-text probe of the broadcast
    crowd index, char→token span conversion on the engine tokeniser."""

    def __init__(self, index_ref):
        self.index = ray.get(index_ref)

    def __call__(self, batch: pa.Table) -> pa.Table:
        conv_ids, turn_idxs = [], []
        starts_out, ends_out, labels_out = [], [], []
        conv = batch.column("conv_id").to_pylist()
        turn = batch.column("turn_idx").to_pylist()
        texts = batch.column("text").to_pylist()
        for ci, ti, text in zip(conv, turn, texts):
            spans = self.index.get(text.strip())
            if not spans:
                continue
            toks = tokenise(text)
            tok_starts = np.array([s for _, s in toks], np.int64)
            tok_lens = np.array([len(t) for t, _ in toks], np.int64)
            tok_spans = []
            for cs, ce, label in spans:
                ts = _char_to_token_span(tok_starts, tok_lens, cs, ce)
                if ts is None:
                    continue                       # "strange span"
                tok_spans.append((ts[0], ts[1], label))
            for s, e, label in _resolve_overlaps(tok_spans):
                conv_ids.append(ci)
                turn_idxs.append(ti)
                starts_out.append(s)
                ends_out.append(e)
                labels_out.append(label)
        n = len(conv_ids)
        return pa.table({
            "conv_id": pa.array(conv_ids, pa.string()),
            "turn_idx": pa.array(turn_idxs, pa.int32()),
            "source": pa.array([CROWD_SOURCE] * n, pa.string()),
            "start": pa.array(starts_out, pa.int32()),
            "end": pa.array(ends_out, pa.int32()),
            "label": pa.array(labels_out, pa.string()),
            "conf": pa.array([1.0] * n, pa.float32()),
        })


def synth_crowd_json(corpus_dir: str, out_path: str | None = None,
                     every: int = 20, cap: int = 2000) -> str:
    """Deterministic stand-in for the reference's (absent) crowd file —
    a fixture GENERATOR, not a pipeline operator: it re-expresses a
    hash-selected ~1/``every`` of the corpus gold spans in the crowd
    JSON layout (sentence text + inclusive-end char span tokens), so the
    loader's text-match → char_span → overlap path can be exercised and
    round-tripped against the gold table at any scale."""
    import hashlib
    import os

    import pyarrow.parquet as pq

    if out_path is None:
        out_path = os.path.join(corpus_dir, f"crowd_{every}_{cap}.json")
    if os.path.exists(out_path):
        return out_path
    turns = pq.read_table(os.path.join(corpus_dir, "turns.parquet"),
                          columns=["conv_id", "turn_idx", "text"])
    gold = pq.read_table(os.path.join(corpus_dir, "gold_spans.parquet"))
    spans: dict[tuple, list[tuple[int, int, str]]] = {}
    g = gold.to_pydict()
    for ci, ti, s, e, lab in zip(g["conv_id"], g["turn_idx"], g["start"],
                                 g["end"], g["label"]):
        spans.setdefault((ci, ti), []).append((s, e, lab))
    records, t = {}, turns.to_pydict()
    for ci, ti, text in zip(t["conv_id"], t["turn_idx"], t["text"]):
        key = (ci, ti)
        if key not in spans or len(records) >= cap:
            continue
        h = int(hashlib.md5(f"{ci}:{ti}".encode()).hexdigest()[:8], 16)
        if h % every:
            continue
        toks = tokenise(text)
        parts = []
        for s, e, lab in sorted(spans[key]):
            cs = toks[s][1]
            ce = toks[e - 1][1] + len(toks[e - 1][0])   # exclusive
            parts.append(f"{cs}-{ce - 1}/{lab.lower()}")  # inclusive end
        records[str(len(records))] = {
            "source": "Reuters", "source_doc": str(len(records)),
            "original_text": text, "annotated_text": " ".join(parts)}
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(records, f)
    os.replace(tmp, out_path)
    return out_path


def crowd_mentions(turns_ds, crowd_json_path: str):
    """Long-form crowd mentions over a turns Dataset: broadcast the
    parsed crowd index once, probe per batch.  Same schema as
    ``mentions_table`` so downstream eval (``pipelines.eval``) can score
    any source against the crowd annotations directly."""
    from ..stages.util import default_concurrency
    index_ref = ray.put(parse_crowd_json(crowd_json_path))
    return turns_ds.map_batches(
        CrowdMatchStage,
        fn_constructor_args=(index_ref,),
        batch_format="pyarrow", zero_copy_batch=True,
        concurrency=default_concurrency())
