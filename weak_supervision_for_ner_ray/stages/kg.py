"""Decode + knowledge-graph extraction stages.

:func:`make_decode_triple_fn` is the one decode path: a fused
``map_batches`` stage that Viterbi-decodes each turn's encoded observation
into ``ner`` spans (labelling.py:116-141 semantics), then matches relation
templates and links entities over the same spans, so each turn is decoded
once and the obs table is scanned once.  :func:`make_majority_vote_fn` is
the MajorityVoter baseline over the same observations.

Entity linking is a broadcast map-side join (SURVEY.md §2.4): the alias
index (gazetteer names + company-alias expansions following
``get_alternative_company_names``, annotations.py:1498-1542) is built once
on the driver, ``ray.put``, and probed per mention inside the stage.
"""

from __future__ import annotations

import pyarrow as pa

from ..constants import GENERIC_TOKENS, LEGAL_SUFFIXES
from ..state.trie import TokenTrie
from ..tokenizer import make_doc, tokenise
from .encode import ObsRows

CORE_ARG_LABELS = {"PERSON", "ORG", "COMPANY", "GPE", "LOC", "PRODUCT"}

# predicate lexicon: keyword -> (allowed subj labels, predicate, allowed obj
# labels).  Matched against the gap tokens between two consecutive core
# entity mentions within a turn (dependency-pattern stand-in, north_star).
_P = {"PERSON"}
_C = {"ORG", "COMPANY"}
_G = {"GPE", "LOC"}
_PC = _P | _C
RELATION_PATTERNS: list[tuple[frozenset, tuple[str, ...], str, frozenset]] = [
    (frozenset(_P), ("chief executive of", "works for", "will join",
                     "joins", "joined", "employed by"), "works_for",
     frozenset(_C)),
    (frozenset(_C), ("acquired", "acquires", "bought", "will acquire",
                     "took over"), "acquired", frozenset(_C)),
    (frozenset(_PC), ("will pay", "pays", "paid"), "pays", frozenset(_PC)),
    (frozenset(_P), ("visited", "visits", "will visit"), "visited",
     frozenset(_G)),
    (frozenset(_P), ("met", "meets", "met with"), "met", frozenset(_P)),
    (frozenset(_P), ("sued", "sues", "filed suit against"), "sued",
     frozenset(_C)),
    (frozenset(_C), ("launched", "launches", "unveiled", "released"),
     "launched", frozenset({"PRODUCT"})),
    (frozenset(_C), ("is based in", "based in", "headquartered in", "in"),
     "located_in", frozenset(_G)),
]
MAX_GAP_TOKENS = 8


class AliasIndex:
    """Lowercased token-tuple -> (entity_id, canonical, label)."""

    def __init__(self, gazetteers: dict[str, dict[str, list[str]]]):
        self.trie = TokenTrie()
        ambiguous: set[tuple[str, ...]] = set()
        last_names: dict[tuple[str, ...], tuple | None] = {}
        for gaz in gazetteers.values():
            for label, names in gaz.items():
                for name in names:
                    canonical = name.split("(")[0].split(",")[0].rstrip()
                    toks = tuple(t for t, _ in tokenise(canonical))
                    if not toks:
                        continue
                    eid = f"{label}:{' '.join(toks).lower()}"
                    entry = (eid, canonical, label)
                    for alias in self._aliases(toks, label):
                        self._put(alias, entry, ambiguous)
                    if label == "PERSON" and len(toks) >= 2:
                        ln = (toks[-1].lower(),)
                        if ln in last_names and last_names[ln] is not None \
                                and last_names[ln][0] != eid:
                            last_names[ln] = None      # ambiguous last name
                        else:
                            last_names.setdefault(ln, entry)
        for ln, entry in last_names.items():
            if entry is not None and self.trie.get(ln) is None:
                self.trie.add(ln, entry)

    def _put(self, alias, entry, ambiguous):
        if alias in ambiguous:
            return
        cur = self.trie.get(alias)
        if cur is None:
            self.trie.add(alias, entry)
        elif cur[0] != entry[0]:
            # conflicting alias: keep the first (deterministic), mark
            ambiguous.add(alias)

    @staticmethod
    def _aliases(toks: tuple[str, ...], label: str):
        """Fixpoint alias expansion for company names
        (annotations.py:1498-1542 semantics, lowercased)."""
        lower = tuple(t.lower() for t in toks)
        out = {lower}
        if label in {"COMPANY", "ORG"}:
            frontier = {lower}
            while frontier:
                nxt = set()
                for alt in frontier:
                    if len(alt) > 1 and alt[-1].rstrip(".") in LEGAL_SUFFIXES:
                        nxt.add(alt[:-1])
                    if len(alt) > 1 and alt[0] == "the":
                        nxt.add(alt[1:])
                    if len(alt) > 1 and alt[-1].title() in GENERIC_TOKENS:
                        nxt.add(alt[:-1])
                    stripped = tuple(t.rstrip(".") for t in alt)
                    if stripped != alt:
                        nxt.add(stripped)
                frontier = nxt - out
                out |= nxt
        return out

    def lookup(self, tokens: list[str]) -> tuple | None:
        key = tuple(t.lower() for t in tokens)
        hit = self.trie.get(key)
        if hit is None:
            stripped = tuple(t.rstrip(".") for t in key)
            hit = self.trie.get(stripped)
        return hit


def link_mention(surface_tokens: list[str], label: str,
                 index: AliasIndex) -> tuple[str, str, str]:
    """Returns (entity_id, canonical, label) — falls back to a normalised
    surface-form id for unlinked mentions."""
    hit = index.lookup(surface_tokens)
    if hit is not None:
        return hit
    norm = " ".join(t.rstrip(".").lower() for t in surface_tokens)
    return (f"m:{label}:{norm}",
            " ".join(surface_tokens), label)


def make_majority_vote_fn(nb_sources_threshold: int = 10):
    """MajorityVoter baseline stage (labelling.py:503-531): same output
    schema as the HMM decode, no trained parameters needed."""
    from ..state.hmm import majority_vote_turn

    def vote(batch: pa.Table) -> pa.Table:
        conv, turn = [], []
        start, end, label, conf = [], [], [], []
        conv_ids = batch.column("conv_id").to_pylist()
        turn_idxs = batch.column("turn_idx").to_pylist()
        for ci, ti, obs in zip(conv_ids, turn_idxs, _obs_iter(batch)):
            for s, e, lab, c in majority_vote_turn(
                    obs, nb_sources_threshold=nb_sources_threshold):
                conv.append(ci)
                turn.append(ti)
                start.append(s)
                end.append(e)
                label.append(lab)
                conf.append(c)
        return pa.table({
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, pa.int32()),
            "start": pa.array(start, pa.int32()),
            "end": pa.array(end, pa.int32()),
            "label": pa.array(label, pa.string()),
            "conf": pa.array(conf, pa.float32()),
        })

    return vote


_CACHE_CAP = 200_000


def _row_key(rows: ObsRows, i: int) -> bytes:
    """Exact observation-pattern key for one obs row (raw bytes, no hash —
    no collision risk)."""
    lo, hi = rows.offsets[i], rows.offsets[i + 1]
    return (int(rows.n_tokens[i]).to_bytes(4, "little")
            + rows.cols["o_t"][lo:hi].tobytes()
            + rows.cols["o_s"][lo:hi].tobytes()
            + rows.cols["o_state"][lo:hi].tobytes()
            + rows.cols["o_conf"][lo:hi].tobytes())


def _obs_iter(batch: pa.Table):
    """Iterate TurnObs over an encoded obs batch."""
    rows = ObsRows(batch)
    for i in range(len(rows)):
        yield rows.turnobs(i)


def make_decode_triple_fn(params_ref, gazetteers_ref):
    """FUSED decode + link + triple stage: one pass over ONE pruned obs
    read emits both the ``ner`` span rows and the triple rows (tagged by a
    ``kind`` column), so the obs table is scanned once and each turn is
    Viterbi-decoded once."""
    from .util import cached_from_ref

    def decode_triples(batch: pa.Table) -> pa.Table:
        params = cached_from_ref(params_ref)
        index = cached_from_ref(gazetteers_ref, builder=AliasIndex,
                                key_extra="alias_index")
        triple_memo = cached_from_ref(params_ref, builder=lambda _: {},
                                      key_extra="triple_memo")
        decode_memo = cached_from_ref(params_ref, builder=lambda _: {},
                                      key_extra="decode_memo")
        return decode_triple_batch(params, index, batch,
                                   decode_memo=decode_memo,
                                   triple_memo=triple_memo)

    return decode_triples


def decode_triple_batch(params, index, batch: pa.Table, decode_memo: dict,
                        triple_memo: dict) -> pa.Table:
    import numpy as np

    from ..state.hmm import decode_turn_flat

    conv_ids = batch.column("conv_id").to_pylist()
    turn_idxs = batch.column("turn_idx").to_pylist()
    texts = batch.column("text").to_pylist()
    rows = ObsRows(batch)
    f_t = rows.cols["o_t"].astype(np.int64)
    f_s = rows.cols["o_s"].astype(np.int64)
    f_state = rows.cols["o_state"].astype(np.int64)
    f_conf = rows.cols["o_conf"].astype(np.float64)

    kind, conv, turn = [], [], []
    start, end, label, conf = [], [], [], []
    t_cols = {k: [] for k in ("subj", "subj_label", "pred", "obj",
                              "obj_label", "subj_id", "obj_id")}

    def spans_for(i):
        nt = int(rows.n_tokens[i])
        if nt == 0:
            return []
        key = _row_key(rows, i)
        hit = decode_memo.get(key)
        if hit is not None:
            return hit
        lo, hi = rows.offsets[i], rows.offsets[i + 1]
        spans = decode_turn_flat(params, nt, f_t[lo:hi], f_s[lo:hi],
                                 f_state[lo:hi], f_conf[lo:hi])
        if len(decode_memo) > _CACHE_CAP:
            decode_memo.clear()
        decode_memo[key] = spans
        return spans

    for i, (ci, ti, text) in enumerate(zip(conv_ids, turn_idxs, texts)):
        spans = spans_for(i)
        for (s, e, lab, c) in spans:
            kind.append("n")
            conv.append(ci)
            turn.append(ti)
            start.append(s)
            end.append(e)
            label.append(lab)
            conf.append(c)
            for k in t_cols:
                t_cols[k].append(None)
        tkey = text.encode("utf-8") + b"\0" + _row_key(rows, i)
        triples = triple_memo.get(tkey)
        if triples is None:
            triples = extract_triples_for_turn(
                make_doc(text), spans, index) if spans else []
            if len(triple_memo) > _CACHE_CAP:
                triple_memo.clear()
            triple_memo[tkey] = triples
        for (subj, sl, pred, obj, ol, sid, oid, tc) in triples:
            kind.append("t")
            conv.append(ci)
            turn.append(ti)
            start.append(None)
            end.append(None)
            label.append(None)
            conf.append(tc)
            for k, v in zip(("subj", "subj_label", "pred", "obj",
                             "obj_label", "subj_id", "obj_id"),
                            (subj, sl, pred, obj, ol, sid, oid)):
                t_cols[k].append(v)

    return pa.table({
        "kind": pa.array(kind, pa.string()),
        "conv_id": pa.array(conv, pa.string()),
        "turn_idx": pa.array(turn, pa.int32()),
        "start": pa.array(start, pa.int32()),
        "end": pa.array(end, pa.int32()),
        "label": pa.array(label, pa.string()),
        "conf": pa.array(conf, pa.float32()),
        **{k: pa.array(v, pa.string()) for k, v in t_cols.items()},
    })


def extract_triples_for_turn(doc, spans, index: AliasIndex):
    """Relation templates over decoded spans of one turn.

    ``spans``: [(start, end, label, conf)] sorted by start.  Consecutive
    core-label mentions are paired; non-core mentions (dates, money, ...)
    inside the gap are skipped; the remaining gap tokens are matched against
    the predicate lexicon."""
    core = [(s, e, lab, c) for (s, e, lab, c) in spans
            if lab in CORE_ARG_LABELS]
    out = []
    for k in range(len(core) - 1):
        s1, e1, lab1, c1 = core[k]
        s2, e2, lab2, c2 = core[k + 1]
        if s2 - e1 > MAX_GAP_TOKENS or s2 < e1:
            continue
        # drop tokens covered by non-core entity spans (e.g. MONEY amounts)
        covered = set()
        for (s, e, lab, _) in spans:
            if lab not in CORE_ARG_LABELS:
                covered.update(range(s, e))
        gap_tokens = [doc.lowers[i] for i in range(e1, s2)
                      if not doc.is_punct[i] and i not in covered]
        gap = " ".join(gap_tokens)
        if not gap:
            continue
        for subj_labels, keywords, pred, obj_labels in RELATION_PATTERNS:
            if lab1 not in subj_labels or lab2 not in obj_labels:
                continue
            if pred == "located_in" and gap == "in":
                matched = True
            else:
                matched = any(kw != "in" and kw in gap for kw in keywords)
            if matched:
                subj_id, subj_canon, _ = link_mention(
                    doc.tokens[s1:e1], lab1, index)
                obj_id, obj_canon, _ = link_mention(
                    doc.tokens[s2:e2], lab2, index)
                out.append((subj_canon, lab1, pred, obj_canon, lab2,
                            subj_id, obj_id, min(c1, c2)))
                break
    return out
