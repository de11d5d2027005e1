"""Standardisation + document-level (per-conversation) annotators.

The reference's "document" window maps to one *conversation* here
(SURVEY.md §2.9): ``doc_history`` and ``doc_majority`` aggregate evidence
across all turns of a conversation and re-annotate each turn, so they run
inside the per-conversation grouped stage with turns restored to stable
``(conv_id, turn_idx)`` order.  ``standardise`` only joins span keys within
one turn and runs at the end of the turn-level stage.
"""

from __future__ import annotations

from ..constants import LEGAL_SUFFIXES
from ..functions.spans import Layers, _binary_search, get_overlaps
from ..state.trie import TokenTrie
from ..tokenizer import Doc

# sources consulted when relabelling LOC->GPE / ORG->COMPANY
# (annotations.py:1008-1009)
_GPE_SOURCES = ["geo_cased", "geo_uncased", "wiki_cased", "wiki_uncased",
                "core_web_md+c", "doc_majority_cased"]
_COMPANY_SOURCES = ["company_type_detector", "crunchbase_cased",
                    "crunchbase_uncased", "doc_majority_cased",
                    "doc_majority_uncased"]

# sources feeding the doc-majority vote (annotations.py:1174-1177)
DOC_MAJORITY_SOURCES = [
    "BTC", "BTC+c", "company_type_detector", "conll2003", "conll2003+c",
    "core_web_md", "core_web_md+c",
    "crunchbase_cased", "crunchbase_uncased", "date_detector", "doc_history",
    "full_name_detector", "geo_cased", "geo_uncased", "legal_detector",
    "misc_detector", "money_detector", "number_detector", "product_cased",
    "product_uncased", "snips", "time_detector", "wiki_cased",
    "wiki_small_cased",
]

# sources whose spans seed the doc-history trie (annotations.py:1085-1088)
_HISTORY_SEED_SOURCES = {"core_web_md+c", "conll2003+c",
                         "full_name_detector", "company_type_detector"}


def standardise(doc: Doc, layers: Layers) -> None:
    """PER->PERSON; LOC->GPE and ORG->COMPANY by exact-span agreement with
    gazetteer/company sources (annotations.py:1000-1049).  In-place."""
    for source in list(layers.by_source):
        if "unified" in source:
            del layers.by_source[source]
            continue
        current = dict(layers.by_source[source])
        layers.clear_source(source)
        for span, vals in current.items():
            new_vals = []
            for label, conf in vals:
                if label == "PER":
                    label = "PERSON"
                if label == "LOC" and source.startswith("doc_majority"):
                    for gpe_source in _GPE_SOURCES:
                        spans2 = layers_get(layers, gpe_source)
                        if span in spans2:
                            if any(l2 == "GPE" for l2, _ in spans2[span]):
                                label = "GPE"
                if label == "ORG" and (source.startswith("core_web_md")
                                       or source.startswith("doc_majority")
                                       or "wiki_" in source):
                    for company_source in _COMPANY_SOURCES:
                        spans2 = layers_get(layers, company_source)
                        if span in spans2:
                            if any(l2 == "COMPANY" for l2, _ in spans2[span]):
                                label = "COMPANY"
                new_vals.append((label, conf))
            for label, conf in new_vals:
                layers.add(span[0], span[1], label, source, conf)


def layers_get(layers: Layers, source: str):
    return layers.by_source.get(source, {})


class ConversationDoc:
    """All turns of one conversation in (turn_idx) order."""

    def __init__(self, turn_idxs: list[int], docs: list[Doc],
                 layers: list[Layers]):
        self.turn_idxs = turn_idxs
        self.docs = docs
        self.layers = layers


def doc_history(conv: ConversationDoc) -> None:
    """First full mention wins: once a full PERSON name or COMPANY-with-
    legal-suffix is seen, later (shorter) occurrences anywhere in the
    conversation get the same label (annotations.py:1057-1122).

    Order-sensitive: turns must be in stable (conv_id, turn_idx) order.
    Offsets in the trie are *global* token offsets over the concatenated
    conversation so "later occurrence" is well defined across turns.
    """
    trie = TokenTrie()
    for layers in conv.layers:
        layers.clear_source("doc_history")

    # global offsets per turn
    offsets = []
    total = 0
    for d in conv.docs:
        offsets.append(total)
        total += len(d)

    # collect candidate full mentions, in global order
    for t, (d, layers) in enumerate(zip(conv.docs, conv.layers)):
        all_spans = [(span, vals)
                     for source, spans in layers.by_source.items()
                     if source in _HISTORY_SEED_SOURCES
                     or source.endswith("cased")
                     for span, vals in spans.items()]
        all_spans.sort(key=lambda x: x[0][0])
        toks = d.tokens
        for (start, end), vals in all_spans:
            if len(vals) == 0:
                continue
            g = offsets[t] + start
            if vals[0][0] == "PERSON" and end > start + 1 and end < start + 5:
                last_name = (toks[end - 1],)
                if trie.get(last_name) is None:
                    trie.add(tuple(toks[start:end]), (g, "PERSON"))
                    trie.add(last_name, (g, "PERSON"))
            elif (vals[0][0] in {"COMPANY", "ORG"} and end > start + 1
                  and end < start + 8
                  and d.lowers[end - 1].rstrip(".") in LEGAL_SUFFIXES):
                without_suffix = tuple(toks[start:end - 1])
                if trie.get(without_suffix) is None:
                    trie.add(without_suffix, (g, "COMPANY"))
                    trie.add(tuple(toks[start:end]), (g, "COMPANY"))

    # re-scan every turn; only occurrences after the first mention are added
    first = trie.first_tokens()
    for t, (d, layers) in enumerate(zip(conv.docs, conv.layers)):
        toks = d.tokens
        i = 0
        while i < len(toks):
            if toks[i] not in first:     # cheap prefilter: cased probe
                i += 1
                continue
            length, value = trie.longest_prefix(toks, True, start=i,
                                                max_len=8)
            if length:
                initial_offset, label = value
                if offsets[t] + i > initial_offset:
                    layers.add(i, i + length, label, "doc_history")
                i += length
            else:
                i += 1


def _overlap_votes(span: tuple[int, int],
                   src_tables) -> list[tuple[str, float]]:
    """Ordered ``(label, weight)`` votes the other spans of the voting
    sources cast on ``span``, weighted by the covered share of it
    (annotations.py:1183-1192)."""
    start, end = span
    out = []
    for spans2, intervals2 in src_tables:
        lo, hi = _binary_search(start, end, intervals2)
        for key2 in intervals2[lo:hi]:
            s2, e2 = key2
            if start < e2 and end > s2 and span != key2:
                overlap = (min(end, e2) - max(start, s2)) / (end - start)
                for l2, c2 in spans2[key2]:
                    out.append((l2, c2 * overlap))
    return out


def entity_label_counts(conv: ConversationDoc
                        ) -> dict[tuple[str, ...], dict[str, float]]:
    """Normalised label weights per entity string, summed over every span
    of the voting sources in the conversation (annotations.py:1174-1198)."""
    entity_counts: dict[tuple[str, ...], dict[str, float]] = {}
    for d, layers in zip(conv.docs, conv.layers):
        span_labels: dict[tuple[int, int], dict[str, float]] = {}
        # interval lists built ONCE per turn (layers are not mutated in
        # this phase), and a span's overlap votes do not depend on the
        # source that emitted it: each distinct span probes them once and
        # every occurrence replays them in the same order
        src_tables = [(spans, list(spans))
                      for source in DOC_MAJORITY_SOURCES
                      if (spans := layers.by_source.get(source))]
        overlaps: dict[tuple[int, int], list[tuple[str, float]]] = {}
        for spans, _ in src_tables:
            for span, vals in spans.items():
                lab = span_labels.setdefault(span, {})
                for label, conf in vals:
                    lab[label] = lab.get(label, 0.0) + conf
                votes = overlaps.get(span)
                if votes is None:
                    votes = overlaps[span] = _overlap_votes(span, src_tables)
                for l2, w in votes:
                    lab[l2] = lab.get(l2, 0.0) + w
        for span, counts in span_labels.items():
            tot = sum(counts.values())
            norm = {lab: c / tot for lab, c in counts.items()}
            key = tuple(d.tokens[span[0]:span[1]])
            if key in entity_counts:
                for lab, w in norm.items():
                    entity_counts[key][lab] = entity_counts[key].get(lab, 0.0) + w
            else:
                entity_counts[key] = norm
    return entity_counts


def doc_majority(conv: ConversationDoc) -> None:
    """Majority label per entity string across the conversation, re-annotated
    as cased and uncased layers (annotations.py:1126-1239)."""
    for layers in conv.layers:
        layers.clear_source("doc_majority_cased")
        layers.clear_source("doc_majority_uncased")
    entity_counts = entity_label_counts(conv)

    # ---- occurrences (case-insensitive) across the conversation ----------
    # first-token index instead of a full scan per entity: turns the
    # O(entities × tokens) reference loop (annotations.py:1147-1152) into
    # O(tokens + candidate probes) — same counts, long-conversation safe.
    lowered_turns = [tuple(d.lowers) for d in conv.docs]
    positions: dict[str, list[tuple[int, int]]] = {}
    for d_i, toks_lc in enumerate(lowered_turns):
        for p, w in enumerate(toks_lc):
            positions.setdefault(w, []).append((d_i, p))
    trie = TokenTrie()
    for entity, label_counts in entity_counts.items():
        ent_lower = tuple(t.lower() for t in entity)
        le = len(ent_lower)
        nb = 0
        for d_i, p in positions.get(ent_lower[0], ()):
            toks_lc = lowered_turns[d_i]
            # reference counts matches at i in range(n - le) only
            # (annotations.py:1150) — reproduced exactly
            if p < len(toks_lc) - le and toks_lc[p:p + le] == ent_lower:
                nb += 1
                if nb > 1:
                    break
        majority = max(label_counts,
                       key=lambda x: (label_counts[x] * 1000
                                      + (1 if x in {"PRODUCT", "COMPANY"}
                                         else 0)))
        if nb > 1:
            trie.add(entity, majority)

    # ---- re-annotate every turn, longest-span-wins on self-overlap -------
    first = trie.first_tokens()
    for d, layers in zip(conv.docs, conv.layers):
        for case_sensitive in (True, False):
            source = "doc_majority_%s" % ("cased" if case_sensitive
                                          else "uncased")
            toks = d.tokens
            for i in range(len(toks)):
                c = toks[i]
                # prefilter: a match can only start here if the token (or,
                # for the uncased probe, one of its trie-probe case
                # variants) is a stored first token
                if c not in first and (case_sensitive or (
                        c.title() not in first and c.lower() not in first
                        and c.upper() not in first)):
                    continue
                length, label = trie.longest_prefix(toks, case_sensitive,
                                                    start=i, max_len=8)
                if not label:
                    continue
                compatible = True
                for s2, e2, _ in get_overlaps(i, i + length, layers,
                                              [source]):
                    if e2 - s2 < length:
                        del layers.by_source[source][(s2, e2)]
                    else:
                        compatible = False
                        break
                if compatible:
                    layers.add(i, i + length, label, source)
