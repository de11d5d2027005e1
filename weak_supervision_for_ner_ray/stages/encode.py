"""Arrow <-> annotation-layer encoding + observation extraction.

The ``mentions`` intermediate is a nested Arrow column
``list<struct<source, start, end, label, conf>>`` per turn (SURVEY.md §1.3),
kept in ``batch_format="pyarrow"`` end-to-end.  The pipeline builds it with
:class:`MentionsBuilder` and turns it into the sparse HMM observation with
one vectorised call per block, :func:`encode_obs_columns`: the ENT/MISC
specialise vote (labelling.py:175-213), the BILU spread (labelling.py:
144-172), the per-(token, source) cell sums and each turn's pattern
fingerprint, all over the block's flat mention arrays.

:func:`specialise_annotations` and :func:`layers_to_obs` are the per-turn
reference of the same semantics; the sequential oracle runs them, and the
tests hold the block encoder to them bit for bit.
"""

from __future__ import annotations

import hashlib
from array import array

import numpy as np
import pyarrow as pa

from ..functions.spans import Layers, _binary_search
from ..sources.registry import SOURCE_INDICES, SOURCE_NAMES, SOURCE_PRIORS
from ..state.hmm import N_SOURCES, N_STATES, TurnObs

# internal nested mention struct uses integer-coded source/label ids: ~3x
# smaller shuffle/parquet payloads than strings, and column-wise decoding
# without materialising python dicts.  The public long-form mentions table
# re-expands ids to names.
from ..constants import LABEL_INDICES, LABELS

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


def canonical_layers(layers: Layers, fresh=None) -> Layers:
    """``layers`` as the nested ``mentions`` column stores them: known
    sources only, sources and spans in sorted order, spans without values
    dropped, conf rounded to float32.  The conversation-level sources and
    the specialise vote read span order and conf bits, so the grouped stage
    runs them on canonical layers to get what a round trip through the
    column gives.  Value tuples are shared with ``layers`` unless rounding
    changes a conf.

    With ``fresh``, only the sources in it are canonicalised: every other
    source must be canonical already, and its span dict is shared.  The
    grouped stage passes the conversation-level sources, since the
    turn-level layers it holds come canonical from :func:`annotate_texts`
    (``stages.annotate``) and ``finish_conversation`` leaves them alone."""
    out = Layers()
    by_source = out.by_source
    confs = []
    redone = []
    for source in sorted(layers.by_source):
        spans = layers.by_source[source]
        if fresh is not None and source not in fresh:
            if spans:
                by_source[source] = spans
            continue
        if source not in SOURCE_INDICES:
            continue
        kept = {span: spans[span] for span in sorted(spans) if spans[span]}
        if kept:
            by_source[source] = kept
            redone.append(kept)
            confs.extend(c for vals in kept.values() for _, c in vals)
    # one C-level double -> float cast for the whole turn, the same
    # rounding Arrow applies when it builds the float32 column; most confs
    # (1.0, 0.5, ...) come through unchanged
    rounded = array("f", confs).tolist()
    if rounded != confs:
        it = iter(rounded)
        for spans in redone:
            for span, vals in spans.items():
                spans[span] = tuple((label, next(it)) for label, _ in vals)
    return out


class MentionsBuilder:
    """Accumulates per-turn mention lists into a ListArray of structs."""

    def __init__(self):
        self.source: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.label: list[int] = []
        self.conf: list[float] = []
        self.offsets: list[int] = [0]

    def add_layers(self, layers: Layers, fresh=None) -> Layers:
        """Append one turn's mentions; returns the canonical layers
        (:func:`canonical_layers`, given ``fresh``) they encode."""
        canon = canonical_layers(layers, fresh)
        lids = LABEL_IDS
        for source, spans in canon.by_source.items():
            sid = SOURCE_INDICES[source]
            for (s, e), vals in spans.items():
                for lab, c in vals:
                    self.source.append(sid)
                    self.start.append(s)
                    self.end.append(e)
                    self.label.append(lids[lab])
                    self.conf.append(c)
        self.offsets.append(len(self.source))
        return canon

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


def _span_votes(span: tuple[int, int],
                voters) -> list[tuple[str, str, float]]:
    """Ordered ``(voter, label, weight)`` votes the non-generic labels of
    the voters' spans overlapping ``span`` cast (labelling.py:192-203)."""
    start, end = span
    out = []
    for other, spans, intervals, priors in voters:
        lo, hi = _binary_search(start, end, intervals)
        for key2 in intervals[lo:hi]:
            s2, e2 = key2
            if start < e2 and end > s2:
                for l2, c2 in spans[key2]:
                    if l2 in ("ENT", "MISC"):
                        continue
                    w = c2 if key2 == span else 0.3 * c2
                    w *= priors.get(l2, (0.5, 0.5))[0]
                    out.append((other, l2, w))
    return out


def specialise_annotations(layers: Layers) -> None:
    """Replace generic ENT/MISC labels by a confidence-weighted vote of
    overlapping non-generic sources (labelling.py:175-213).  In place.

    A span's votes do not depend on which source emitted it, so each
    distinct span probes the voters' interval lists (built once per turn)
    once; every ENT/MISC occurrence then replays that list, skipping its own
    source, with the same float operations in the same order."""
    by_source = layers.by_source
    voters = [(s, spans, list(spans), SOURCE_PRIORS.get(s, {}))
              for s in _SPECIALISE_VOTERS if (spans := by_source.get(s))]
    votes: dict[tuple[int, int], list] = {}
    to_set = []
    for source, spans in by_source.items():
        for span, vals in spans.items():
            for label, conf in vals:
                if label not in ("ENT", "MISC"):
                    continue
                cast = votes.get(span)
                if cast is None:
                    cast = votes[span] = _span_votes(span, voters)
                label_counts: dict[str, float] = {}
                for other, l2, w in cast:
                    if other != source:
                        label_counts[l2] = label_counts.get(l2, 0.0) \
                            + conf * w
                total = sum(label_counts.values())
                src_priors = SOURCE_PRIORS.get(source, {})
                new_vals = tuple(
                    (l, src_priors.get(l, (0.5, 0.5))[0] * c / total)
                    for l, c in label_counts.items())
                to_set.append((source, span, new_vals))
    for source, span, vals in to_set:
        by_source[source][span] = vals


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


def _expand(starts: np.ndarray, counts: np.ndarray):
    """``range(start, start + count)`` for each pair, concatenated, and the
    index of the pair each element comes from."""
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return starts[owner] + np.arange(owner.size) - first[owner], owner


# the block encoder's lookup tables, by source index and label id
_N_LABELS = len(LABEL_VOCAB)
_PRIOR = np.array([[SOURCE_PRIORS.get(s, {}).get(lab, (0.5, 0.5))[0]
                    for lab in LABEL_VOCAB] for s in SOURCE_NAMES])
_IS_VOTER = np.isin(SOURCE_NAMES, _SPECIALISE_VOTERS)
_GENERIC = np.isin(LABEL_VOCAB, ["ENT", "MISC"])
# B- state of each label; I-, L- and U- follow at +1, +2, +3
_B_STATE = np.array([LABEL_INDICES.get("B-" + lab, -1)
                     for lab in LABEL_VOCAB])
# the mentions column stores sources in name order, and the vote visits
# voters in SOURCE_NAMES order: the two agree only while the names sort
assert SOURCE_NAMES == sorted(SOURCE_NAMES)


def _specialised(row, src, st, en, lab, conf):
    """:func:`specialise_annotations` over a block's flat mentions.
    Returns the block's distinct spans as ``(row, source, start, end)``
    arrays, and the specialised values as ``(span, label, conf)`` arrays in
    the order :func:`layers_to_obs` visits them, ``span`` indexing the
    former.

    Each span holding a generic value takes the votes of the voter spans
    that :func:`_binary_search` finds overlapping it, cast in voter, span,
    value order.  Only the span's last generic value counts, since its new
    value tuple replaces the earlier ones'."""
    m = len(src)
    new = np.ones(m, bool)
    new[1:] = ((row[1:] != row[:-1]) | (src[1:] != src[:-1])
               | (st[1:] != st[:-1]) | (en[1:] != en[:-1]))
    first = np.flatnonzero(new)
    span_of = np.cumsum(new) - 1
    n_vals = np.diff(np.append(first, m))
    sp_row, sp_src, sp_st, sp_en = row[first], src[first], st[first], \
        en[first]
    # one group per (row, source); the voter groups of a row are
    # contiguous and in SOURCE_NAMES order
    g_new = np.ones(len(first), bool)
    g_new[1:] = (sp_row[1:] != sp_row[:-1]) | (sp_src[1:] != sp_src[:-1])
    g_first = np.flatnonzero(g_new)
    g_n = np.diff(np.append(g_first, len(first)))
    voters = np.flatnonzero(_IS_VOTER[sp_src[g_first]])
    v_row = sp_row[g_first[voters]]

    gen = np.flatnonzero(_GENERIC[lab])
    last = np.ones(len(gen), bool)
    last[:-1] = span_of[gen[1:]] != span_of[gen[:-1]]
    q = gen[last]
    # the votes on a span do not depend on the source holding it, so each
    # distinct (row, start, end) probes the voters once
    n_pos = int(en.max()) + 1 if m else 1
    _, u, q_u = np.unique((row[q] * n_pos + st[q]) * n_pos + en[q],
                          return_index=True, return_inverse=True)
    u = q[u]
    # (query span, voter group) pairs, expanded within the span's row
    v_lo = np.searchsorted(v_row, row[u], "left")
    v_hi = np.searchsorted(v_row, row[u], "right")
    pv, pu = _expand(v_lo, v_hi - v_lo)
    base = g_first[voters[pv]]
    lo = np.zeros(len(pu), np.int64)
    hi = g_n[voters[pv]]
    a, b = st[u][pu], en[u][pu]
    # _binary_search, all pairs in lockstep
    live = np.flatnonzero(lo < hi - 1)
    while live.size:
        mid = lo[live] + (hi[live] - lo[live]) // 2
        left = sp_en[base[live] + mid] <= a[live]
        right = ~left & (sp_st[base[live] + mid] >= b[live])
        lo[live[left]] = mid[left]
        hi[live[right]] = mid[right]
        live = live[left | right]
        live = live[lo[live] < hi[live] - 1]
    cand, cp = _expand(base + lo, hi - lo)
    hit = (a[cp] < sp_en[cand]) & (b[cp] > sp_st[cand])
    cand, cp = cand[hit], cp[hit]
    vm, vo = _expand(first[cand], n_vals[cand])
    keep = ~_GENERIC[lab[vm]]
    vm, vp = vm[keep], cp[vo[keep]]
    same = (st[vm] == a[vp]) & (en[vm] == b[vp])
    w = np.where(same, conf[vm], 0.3 * conf[vm]) * _PRIOR[src[vm], lab[vm]]
    # each generic value replays its span's votes, skipping its own source
    cast_n = np.bincount(pu[vp], minlength=len(u))
    vi, vq = _expand(np.cumsum(cast_n)[q_u] - cast_n[q_u], cast_n[q_u])
    own = src[vm[vi]] == src[q][vq]
    vi, vq = vi[~own], vq[~own]
    # label counts per value, labels in first-vote order, sums in vote
    # order (bincount adds in index order, as the reference loop does)
    keys, first_vote, inv = np.unique(vq * _N_LABELS + lab[vm[vi]],
                                      return_index=True, return_inverse=True)
    sums = np.bincount(inv, weights=conf[q][vq] * w[vi], minlength=len(keys))
    order = np.argsort(first_vote, kind="stable")
    keys, sums = keys[order], sums[order]
    kq, klab = keys // _N_LABELS, keys % _N_LABELS
    total = np.bincount(kq, weights=sums, minlength=len(q))
    new_conf = _PRIOR[src[q][kq], klab] * sums / total[kq]

    replaced = np.zeros(len(first), bool)
    replaced[span_of[q]] = True
    kept = ~replaced[span_of]
    e_span = np.concatenate([span_of[kept], span_of[q][kq]])
    order = np.argsort(e_span, kind="stable")
    return ((sp_row, sp_src, sp_st, sp_en), e_span[order],
            np.concatenate([lab[kept], klab])[order],
            np.concatenate([conf[kept], new_conf])[order])


def encode_obs_columns(mentions, n_tokens) -> dict[str, pa.Array]:
    """The obs columns (``obs_fp``, ``o_t``, ``o_s``, ``o_state``,
    ``o_conf``) of a block's canonical ``mentions`` column: byte for byte
    what :func:`layers_to_obs` gives turn by turn, flattened in (token,
    source) order with each cell's states in first-insertion order."""
    if isinstance(mentions, pa.ChunkedArray):
        mentions = mentions.combine_chunks()
    nt = np.asarray(n_tokens, np.int64)
    n_rows = len(nt)
    offs = mentions.offsets.to_numpy(zero_copy_only=False)
    cols = dict(zip([f.name for f in MENTION_TYPE],
                    mentions.flatten().flatten()))
    src, st, en, lab = (cols[k].to_numpy(zero_copy_only=False).astype(
        np.int64) for k in ("source_id", "start", "end", "label_id"))
    conf = cols["conf"].to_numpy(zero_copy_only=False).astype(np.float64)
    row = np.repeat(np.arange(n_rows), np.diff(offs))
    (s_row, s_src, s_st, s_en), e_span, e_lab, e_conf = _specialised(
        row, src, st, en, lab, conf)

    # BILU spread (TurnObs.add_span): a span fires on the tokens it covers
    # before the turn's end
    e_row, e_st = s_row[e_span], s_st[e_span]
    length = np.maximum(np.minimum(s_en[e_span], nt[e_row]) - e_st, 0)
    t, c = _expand(e_st, length)
    b_state = _B_STATE[e_lab[c]]
    if (b_state < 0).any():
        raise KeyError(LABEL_VOCAB[e_lab[c][b_state < 0][0]])
    k, n = t - e_st[c], length[c]
    state = b_state + np.where(n == 1, 3, np.where(
        k == 0, 0, np.where(k == n - 1, 2, 1)))

    # cell sums, then cells in (row, t, source) order, states in
    # first-insertion order
    n_t = int(nt.max()) + 1 if n_rows else 1
    cell = ((e_row[c] * n_t + t) * N_SOURCES + s_src[e_span][c]) * N_STATES \
        + state
    keys, first, inv = np.unique(cell, return_index=True,
                                 return_inverse=True)
    o_conf = np.bincount(inv, weights=e_conf[c], minlength=len(keys))
    order = np.lexsort((first, keys // N_STATES))
    keys, o_conf = keys[order], o_conf[order]
    o_state = (keys % N_STATES).astype(np.int32)
    keys //= N_STATES
    o_s = (keys % N_SOURCES).astype(np.int32)
    keys //= N_SOURCES
    o_t = (keys % n_t).astype(np.int32)
    out_off = np.zeros(n_rows + 1, np.int32)
    np.cumsum(np.bincount(keys // n_t, minlength=n_rows), out=out_off[1:])

    # observation-pattern fingerprint: the EM shard dedup groups turns by
    # this key, then verifies byte-equality of the actual pattern within
    # each group before merging weights (em_actors._dedup_rows), so a
    # 63-bit collision costs a little dedup, never correctness
    nt4 = nt.astype("<i4")
    fps = []
    for i in range(n_rows):
        lo, hi = out_off[i], out_off[i + 1]
        h = hashlib.blake2b(nt4[i:i + 1], digest_size=8)
        for arr in (o_t, o_s, o_state, o_conf):
            h.update(arr[lo:hi])
        fps.append(int.from_bytes(h.digest(), "little") >> 1)
    off = pa.array(out_off)
    return {
        "obs_fp": pa.array(fps, pa.int64()),
        **{name: pa.ListArray.from_arrays(off, pa.array(arr))
           for name, arr in (("o_t", o_t), ("o_s", o_s),
                             ("o_state", o_state), ("o_conf", o_conf))},
    }


def encode_layers(layers_list: list[Layers], n_tokens: list[int],
                  fresh=None) -> dict[str, pa.Array]:
    """Conversation-finished layers -> the ``mentions`` column (canonical,
    before specialisation) and the obs columns of the whole block.
    ``fresh``: as for :func:`canonical_layers`."""
    builder = MentionsBuilder()
    for layers in layers_list:
        builder.add_layers(layers, fresh)
    mentions = builder.finish()
    return {"mentions": mentions,
            **encode_obs_columns(mentions, n_tokens)}


def encode_obs_batch(batch: pa.Table) -> pa.Table:
    """Annotated batch (nested ``mentions``) -> obs batch: an Arrow adapter
    over :func:`encode_obs_columns`, the encoder the grouped annotate stage
    runs, for callers that hold an annotated table, such as the kernel
    timings."""
    n_tokens = batch.column("n_tokens").to_numpy()
    return pa.table({
        "conv_id": batch.column("conv_id"),
        "turn_idx": batch.column("turn_idx"),
        "text": batch.column("text"),
        "n_tokens": batch.column("n_tokens"),
        "mentions": batch.column("mentions"),
        **encode_obs_columns(batch.column("mentions"), n_tokens),
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

    def take(self, idx: np.ndarray) -> "ObsRows":
        """New ObsRows holding only the selected rows (vectorised gather
        of the flat pair arrays)."""
        lens = np.diff(self.offsets)[idx]
        new_off = np.concatenate([[0], np.cumsum(lens)])
        gather, _ = _expand(self.offsets[idx], lens)
        out = ObsRows.__new__(ObsRows)
        out.n_tokens = self.n_tokens[idx]
        out.offsets = new_off
        out.cols = {name: arr[gather] for name, arr in self.cols.items()}
        return out

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
