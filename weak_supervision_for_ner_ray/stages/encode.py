"""Arrow <-> annotation-layer encoding + observation extraction.

The ``mentions`` intermediate is a nested Arrow column
``list<struct<source, start, end, label, conf>>`` per turn (SURVEY.md §1.3),
kept in ``batch_format="pyarrow"`` end-to-end.  This module provides the
zero-ish-copy builders and the sequence-extraction semantics
(``specialise_annotations``, labelling.py:175-213) that turn a turn's layers
into the sparse HMM observation.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.spans import Layers, get_overlaps
from ..sources.registry import SOURCE_INDICES, SOURCE_NAMES, SOURCE_PRIORS
from ..state.hmm import TurnObs

# internal nested mention struct uses integer-coded source/label ids: ~3x
# smaller shuffle/parquet payloads than strings, and column-wise decoding
# without materialising python dicts.  The public long-form mentions table
# re-expands ids to names.
from ..constants import LABELS

LABEL_VOCAB = LABELS + ["ENT", "MISC", "PER"]
LABEL_IDS = {lab: i for i, lab in enumerate(LABEL_VOCAB)}

MENTION_TYPE = pa.struct([
    ("source_id", pa.int16()),
    ("start", pa.int32()),
    ("end", pa.int32()),
    ("label_id", pa.int8()),
    ("conf", pa.float32()),
])

# sources excluded from the specialisation vote (labelling.py:183-188)
_SPECIALISE_VOTERS = [
    s for s in SOURCE_NAMES
    if "proper" not in s and "nnp_" not in s and "compound" not in s
]


class MentionsBuilder:
    """Accumulates per-turn mention lists into a ListArray of structs."""

    def __init__(self):
        self.source: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.label: list[int] = []
        self.conf: list[float] = []
        self.offsets: list[int] = [0]

    def add_layers(self, layers: Layers) -> None:
        sids = SOURCE_INDICES
        lids = LABEL_IDS
        for source in sorted(layers.by_source):
            sid = sids.get(source)
            if sid is None:
                continue
            spans = layers.by_source[source]
            for (s, e) in sorted(spans):
                for lab, c in spans[(s, e)]:
                    self.source.append(sid)
                    self.start.append(s)
                    self.end.append(e)
                    self.label.append(lids[lab])
                    self.conf.append(c)
        self.offsets.append(len(self.source))

    def finish(self) -> pa.ListArray:
        struct = pa.StructArray.from_arrays(
            [pa.array(self.source, pa.int16()),
             pa.array(self.start, pa.int32()),
             pa.array(self.end, pa.int32()),
             pa.array(self.label, pa.int8()),
             pa.array(self.conf, pa.float32())],
            fields=list(MENTION_TYPE))
        return pa.ListArray.from_arrays(pa.array(self.offsets, pa.int32()),
                                        struct)


class MentionRows:
    """Column-wise decoder of a nested mentions column: yields one
    :class:`Layers` per row without materialising python dicts."""

    def __init__(self, batch: pa.Table):
        col = batch.column("mentions")
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        self.offsets = col.offsets.to_numpy(zero_copy_only=False)
        vals = col.values
        self.source = vals.field("source_id").to_numpy(zero_copy_only=False)
        self.start = vals.field("start").to_numpy(zero_copy_only=False)
        self.end = vals.field("end").to_numpy(zero_copy_only=False)
        self.label = vals.field("label_id").to_numpy(zero_copy_only=False)
        self.conf = vals.field("conf").to_numpy(zero_copy_only=False)

    def layers(self, i: int) -> Layers:
        lo, hi = self.offsets[i], self.offsets[i + 1]
        layers = Layers()
        by_source = layers.by_source
        names = SOURCE_NAMES
        vocab = LABEL_VOCAB
        for j in range(lo, hi):
            src = by_source.setdefault(names[self.source[j]], {})
            key = (int(self.start[j]), int(self.end[j]))
            val = (vocab[self.label[j]], float(self.conf[j]))
            if key in src:
                src[key] = (*src[key], val)
            else:
                src[key] = (val,)
        # mentions were emitted sorted per source; dict preserves order
        return layers


def specialise_annotations(layers: Layers) -> None:
    """Replace generic ENT/MISC labels by a confidence-weighted vote of
    overlapping non-generic sources (labelling.py:175-213).  In place."""
    voters = [s for s in _SPECIALISE_VOTERS if s in layers.by_source]
    to_set = []
    for source, spans in layers.by_source.items():
        for (start, end), vals in spans.items():
            for label, conf in vals:
                if label not in ("ENT", "MISC"):
                    continue
                label_counts: dict[str, float] = {}
                for other in voters:
                    if other == source:
                        continue
                    for s2, e2, vals2 in get_overlaps(start, end, layers,
                                                      [other]):
                        for l2, c2 in vals2:
                            if l2 in ("ENT", "MISC"):
                                continue
                            w = c2 if (s2 == start and e2 == end) else 0.3 * c2
                            w *= SOURCE_PRIORS.get(other, {}).get(
                                l2, (0.5, 0.5))[0]
                            label_counts[l2] = label_counts.get(l2, 0.0) \
                                + conf * w
                total = sum(label_counts.values())
                src_priors = SOURCE_PRIORS.get(source, {})
                new_vals = tuple(
                    (l, src_priors.get(l, (0.5, 0.5))[0] * c / total)
                    for l, c in label_counts.items())
                to_set.append((source, start, end, new_vals))
    for source, start, end, vals in to_set:
        layers.by_source[source][(start, end)] = vals


def layers_to_obs(layers: Layers, n_tokens: int) -> TurnObs:
    """``extract_sequence`` equivalent (labelling.py:144-172): specialise,
    then spread span confidences over BILU cells of the sparse observation.
    Every source is encoded; ``sources_to_keep`` is applied by the HMM
    through ``HMMParams.keep``."""
    specialise_annotations(layers)
    obs = TurnObs(n_tokens)
    for source, spans in layers.by_source.items():
        s_idx = SOURCE_INDICES.get(source)
        if s_idx is None:
            continue
        for (start, end), vals in spans.items():
            for label, conf in vals:
                obs.add_span(s_idx, start, end, label, conf)
    return obs


def encode_obs_batch(batch: pa.Table) -> pa.Table:
    """Annotated batch -> flattened observation batch (the nested
    ``mentions`` are kept for the span-level baselines).

    ``specialise_annotations`` + BILU spreading run ONCE here; the EM loop
    and decode stages then consume plain int/float arrays instead of
    re-parsing nested mention structs every pass (the encoding does not
    depend on HMM parameters, so it is safe to materialise)."""
    import hashlib

    rows = MentionRows(batch)
    n_tokens = batch.column("n_tokens").to_pylist()
    o_t, o_s, o_state, o_conf = [], [], [], []
    offsets = [0]
    fps = []
    for i, nt in enumerate(n_tokens):
        layers = rows.layers(i)
        obs = layers_to_obs(layers, nt)
        lo = offsets[-1]
        for (t, s) in sorted(obs.fired):
            for state, conf in obs.fired[(t, s)].items():
                o_t.append(t)
                o_s.append(s)
                o_state.append(state)
                o_conf.append(conf)
        offsets.append(len(o_t))
        # observation-pattern fingerprint: the EM shard dedup groups
        # turns by this key, then verifies byte-equality of the actual
        # pattern within each group before merging weights
        # (em_actors._dedup_rows) — so a 63-bit collision costs a little
        # dedup, never correctness
        h = hashlib.blake2b(digest_size=8)
        h.update(int(nt).to_bytes(4, "little"))
        h.update(np.asarray(o_t[lo:], np.int32).tobytes())
        h.update(np.asarray(o_s[lo:], np.int32).tobytes())
        h.update(np.asarray(o_state[lo:], np.int32).tobytes())
        h.update(np.asarray(o_conf[lo:], np.float64).tobytes())
        fps.append(int.from_bytes(h.digest(), "little") >> 1)
    off = pa.array(offsets, pa.int32())
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "text": batch.column("text"),
        "n_tokens": batch.column("n_tokens"),
        "mentions": batch.column("mentions"),
        "obs_fp": pa.array(fps, pa.int64()),
        "o_t": pa.ListArray.from_arrays(off, pa.array(o_t, pa.int32())),
        "o_s": pa.ListArray.from_arrays(off, pa.array(o_s, pa.int32())),
        "o_state": pa.ListArray.from_arrays(off,
                                            pa.array(o_state, pa.int32())),
        "o_conf": pa.ListArray.from_arrays(off,
                                           pa.array(o_conf, pa.float64())),
    })


LABEL_TO_CLASS = {lab: 1 + i for i, lab in enumerate(LABELS)}


def snorkel_spans_batch(batch: pa.Table) -> pa.Table:
    """Annotated batch -> candidate-span rows with sparse source votes —
    the reference SnorkelModel's ``_get_inputs`` (labelling.py:558-572):
    candidate (start, end) spans are the union over the three high-recall
    shape sources; each source either abstains or votes its top-confidence
    label (``sorted(vals, key=conf)[-1]``, ties -> later entry).  Labels
    outside LABELS (unresolved ENT/MISC) are skipped rather than crashed
    on.  Output: one row per candidate span with parallel ``v_s``/``v_o``
    vote lists (source index, class index 1+LABELS.index(label))."""
    from ..state.labelmodel import CANDIDATE_SOURCES

    rows = MentionRows(batch)
    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    o_conv, o_turn, o_start, o_end, o_vs, o_vo = [], [], [], [], [], []
    for i, (ci, ti) in enumerate(zip(conv_ids, turn_idxs)):
        layers = rows.layers(i)
        specialise_annotations(layers)
        cands: set = set()
        for src in CANDIDATE_SOURCES:
            spans = layers.by_source.get(src)
            if spans:
                cands.update(spans.keys())
        if not cands:
            continue
        ordered = sorted(cands)
        idx = {sp: j for j, sp in enumerate(ordered)}
        votes: list[list] = [[] for _ in ordered]
        for source, spans in layers.by_source.items():
            s_idx = SOURCE_INDICES.get(source)
            if s_idx is None:
                continue
            for key, vals in spans.items():
                j = idx.get(key)
                if j is None or not vals:
                    continue
                lab = sorted(vals, key=lambda x: x[1])[-1][0]
                cls = LABEL_TO_CLASS.get(lab)
                if cls is not None:
                    votes[j].append((s_idx, cls))
        for j, (s, e) in enumerate(ordered):
            o_conv.append(ci)
            o_turn.append(ti)
            o_start.append(s)
            o_end.append(e)
            # reference iterates sources in index order (labelling.py:563)
            vs = sorted(votes[j])
            o_vs.append([a for a, _ in vs])
            o_vo.append([b for _, b in vs])
    return pa.table({
        "conv_id": pa.array(o_conv, pa.string()),
        "turn_idx": pa.array(o_turn, pa.int32()),
        "start": pa.array(o_start, pa.int32()),
        "end": pa.array(o_end, pa.int32()),
        "v_s": pa.array(o_vs, pa.list_(pa.int16())),
        "v_o": pa.array(o_vo, pa.list_(pa.int16())),
    })


class ObsRows:
    """Zero-copy-ish iterator over an observation batch's rows."""

    def __init__(self, batch: pa.Table):
        self.n_tokens = batch.column("n_tokens").to_numpy(
            zero_copy_only=False)
        self.cols = {}
        first = None
        for name in ("o_t", "o_s", "o_state", "o_conf"):
            arr = batch.column(name)
            if isinstance(arr, pa.ChunkedArray):
                arr = arr.combine_chunks()
            self.cols[name] = arr.values.to_numpy(zero_copy_only=False)
            if first is None:
                self.offsets = arr.offsets.to_numpy(zero_copy_only=False)

    def __len__(self):
        return len(self.n_tokens)

    def turnobs(self, i: int) -> TurnObs:
        obs = TurnObs(int(self.n_tokens[i]))
        lo, hi = self.offsets[i], self.offsets[i + 1]
        fired = obs.fired
        o_t = self.cols["o_t"]
        o_s = self.cols["o_s"]
        o_state = self.cols["o_state"]
        o_conf = self.cols["o_conf"]
        for j in range(lo, hi):
            key = (int(o_t[j]), int(o_s[j]))
            d = fired.get(key)
            if d is None:
                d = fired[key] = {}
            st = int(o_state[j])
            d[st] = d.get(st, 0.0) + float(o_conf[j])
        return obs


def obs_argmax_states(obs: TurnObs, source_idx: int) -> np.ndarray:
    """Per-token argmax state of one source's observation row
    (labelling.py:325/345: ``X[k, source_index].argmax()``)."""
    states = np.zeros(obs.n_tokens, np.int64)
    for (t, s), dist in obs.fired.items():
        if s != source_idx:
            continue
        best_state, best_conf = 0, 0.0
        for state, conf in dist.items():
            if conf > best_conf or (conf == best_conf
                                    and state < best_state):
                best_state, best_conf = state, conf
        states[t] = best_state
    return states
