"""Pluggable NER "model" sources.

The reference runs four trained spaCy NER models (core_web_md, conll2003,
BTC, SEC — annotations.py:478-542) as stateful pipe stages and emits a raw
layer plus a ``+c`` layer post-processed by entity-correction rules
(spacy_wrapper.py:268-402).  Trained models cannot ship in this environment,
so the model slot is filled by :class:`HeuristicNER` — a deterministic
high-coverage scorer with the same interface (state loaded once per actor,
two output layers per model).  Any future real model only needs to implement
``predict(doc) -> [(start, end, label)]``.

SURVEY.md §7.1 step 4: "model-annotator slot implemented as a pluggable
scorer actor (heuristic NER standing in for the spaCy models, same
source-name interface)".
"""

from __future__ import annotations

from ..constants import (COUNTRIES, CURRENCIES, CURRENCY_CODES,
                         CURRENCY_SYMBOLS, DAYS, DAYS_ABBRV, EVENTS,
                         FACILITIES, LANGUAGES, LEGAL, LEGAL_SUFFIXES,
                         MAGNITUDES, MONTHS, MONTHS_ABBRV, NORPS, ORDINALS)
from ..functions.spans import SpanGenerator
from ..state.trie import TokenTrie
from ..tokenizer import Doc, in_compound
from .gazetteers import LOOKAHEAD

_MONEY_EXT = MAGNITUDES | {"euro", "euros", "cent", "cents", "ruble",
                           "rubles"}
_DATE_TOKENS = MONTHS | MONTHS_ABBRV | DAYS | DAYS_ABBRV


class HeuristicNER:
    """Deterministic stand-in for a trained NER model.

    ``knowledge``: a :class:`TokenTrie` of known entities (acts as the
    model's learned lexical knowledge), typically built from the gazetteer
    name lists.  ``first_names``: set of given names for PERSON guessing.
    """

    def __init__(self, knowledge: TokenTrie, first_names: set[str]):
        self.knowledge = knowledge
        self.first_names = first_names
        # first-token prefilter for the cased lexical-knowledge scan (same
        # trick as GazetteerMatcher): skip the trie walk wherever the
        # position cannot start a match
        self._first = knowledge.first_tokens()
        self._proper = SpanGenerator(
            lambda d, i: d.likely_proper[i],
            exceptions=("'s", "’s", "-", "of", "de", "van", "von"))

    def filter(self, doc: Doc, ents: list[tuple[int, int, str]]
               ) -> list[tuple[int, int, str]]:
        """This model's output given the base model's ``ents``: the base
        model is its own base, so unchanged."""
        return ents

    def predict(self, doc: Doc) -> list[tuple[int, int, str]]:
        n = len(doc)
        ents: list[tuple[int, int, str]] = []
        taken = [False] * n

        def claim(s, e, lab):
            ents.append((s, e, lab))
            for k in range(s, e):
                taken[k] = True

        # 1. lexical knowledge (longest-prefix, cased)
        first = self._first
        i = 0
        while i < n:
            if doc.tokens[i] not in first or doc.is_punct[i]:
                i += 1
                continue
            length, value = self.knowledge.longest_prefix(
                doc.tokens, True, start=i, max_len=LOOKAHEAD)
            if length and any(doc.likely_proper[k]
                              for k in range(i, i + length)):
                label = value[0]
                if (i + length < n and label in {"ORG", "COMPANY"}
                        and doc.lowers[i + length].rstrip(".")
                        in LEGAL_SUFFIXES):
                    length += 1
                claim(i, i + length, "ORG" if label == "COMPANY" else label)
                i += length
            else:
                i += 1

        # 2. date / money / percent / cardinal patterns
        i = 0
        while i < n:
            if taken[i]:
                i += 1
                continue
            tok = doc.tokens[i]
            low = doc.lowers[i]
            if tok in _DATE_TOKENS or tok.rstrip("s") in _DATE_TOKENS:
                if doc.tag[i] == "MD":
                    i += 1
                    continue
                s, e = i, i + 1
                if i > 0 and not taken[i - 1] and doc.tokens[i - 1].isdigit():
                    s = i - 1
                while e < n and not taken[e] and (
                        doc.tokens[e].isdigit() or doc.tokens[e] == ","):
                    if doc.tokens[e] == "," and not (
                            e + 1 < n and doc.tokens[e + 1].isdigit()):
                        break
                    e += 1
                claim(s, e, "DATE")
                i = e
            elif tok.isdigit() and 1920 < int(tok) < 2040:
                claim(i, i + 1, "DATE")
                i += 1
            elif tok in CURRENCIES and i < n - 1 \
                    and doc.tokens[i + 1][:1].isdigit():
                j = i + 1
                while j < n and (doc.tokens[j][:1].isdigit()
                                 or doc.lowers[j] in MAGNITUDES):
                    j += 1
                claim(i, j, "MONEY")
                i = j
            elif tok[:1].isdigit() and i < n - 1 \
                    and doc.lowers[i + 1] in {"%", "percent"}:
                claim(i, i + 2, "PERCENT")
                i += 2
            elif low in ORDINALS:
                claim(i, i + 1, "ORDINAL")
                i += 1
            elif tok[:1].isdigit():
                j = i + 1
                while j < n and doc.lowers[j] in MAGNITUDES:
                    j += 1
                if j < n and doc.lowers[j] in _MONEY_EXT:
                    j += 1
                claim(i, j, "CARDINAL")
                i = j
            else:
                i += 1

        # 3. remaining proper spans, classified by shape + context
        for start, end, _ in self._proper(doc):
            if any(taken[k] for k in range(start, end)):
                continue
            span_txt = doc.span_text(start, end)
            last_low = doc.lowers[end - 1].rstrip(".")
            label = None
            if last_low in LEGAL_SUFFIXES and end - start > 1:
                label = "ORG"
            elif span_txt in COUNTRIES:
                label = "GPE"
            elif span_txt in NORPS or doc.tokens[end - 1].rstrip("s") in NORPS:
                label = "NORP"
            elif span_txt in LANGUAGES:
                label = "LANGUAGE"
            elif doc.tokens[end - 1] in FACILITIES and end > start + 1:
                label = "FAC"
            elif doc.tokens[end - 1] in EVENTS and end > start + 1:
                label = "EVENT"
            elif doc.tokens[end - 1].title().rstrip("s") in LEGAL \
                    and end > start + 1:
                label = "LAW"
            elif doc.tokens[start] in self.first_names and end - start >= 2 \
                    and doc.is_title[end - 1]:
                label = "PERSON"
            elif end - start >= 2 and in_compound(doc, start):
                prev = doc.lowers[start - 1] if start > 0 else ""
                if prev in {"in", "at", "from", "near"}:
                    label = "GPE"
                elif prev in {"by", "of"} or doc.is_upper[start]:
                    label = "ORG"
                else:
                    label = "PERSON" if doc.tokens[start] in self.first_names \
                        else "ORG"
            if label:
                claim(start, end, label)

        ents.sort()
        return ents


class _FilteredNER:
    """A model profile over the shared :class:`HeuristicNER`: ``filter``
    turns the base model's entities into this profile's, so a caller that
    runs several profiles predicts with the base model once per doc."""

    def __init__(self, base: HeuristicNER):
        self.base = base

    def predict(self, doc: Doc) -> list[tuple[int, int, str]]:
        return self.filter(doc, self.base.predict(doc))


class ConllNER(_FilteredNER):
    """Stand-in for the reference's ``data/conll2003`` spaCy model
    (annotations.py:331): newswire profile — entity labels only
    (PERSON/ORG/COMPANY/GPE/LOC), no numeric/date/money output, prefers
    cleanly-capitalised spans.  Built over the base heuristic model with a
    newswire filter so its knowledge/recall profile differs from
    core_web_md (priors labelling.py:16,36-37)."""

    KEEP = {"PERSON", "ORG", "COMPANY", "GPE", "LOC"}

    def filter(self, doc: Doc, ents: list[tuple[int, int, str]]
               ) -> list[tuple[int, int, str]]:
        out = []
        for s, e, lab in ents:
            if lab not in self.KEEP:
                continue
            # newswire: all tokens cleanly title- or upper-cased, no digits
            if any(doc.tokens[k][:1].isdigit() for k in range(s, e)):
                continue
            if not all(doc.is_title[k] or doc.is_upper[k]
                       or doc.lowers[k] in {"of", "de", "van", "von", "&"}
                       for k in range(s, e)):
                continue
            out.append((s, e, lab))
        return out


class BtcNER(_FilteredNER):
    """Stand-in for ``data/BTC`` (Broad Twitter Corpus, annotations.py:332):
    social-media profile — short mentions (≤3 tokens), PERSON/ORG/COMPANY/
    GPE only, and additionally fires on *uncased* knowledge matches (tweets
    lose capitalisation), giving the noisy high-variance profile its priors
    encode (labelling.py:30-31, (0.4, 0.4))."""

    KEEP = {"PERSON", "ORG", "COMPANY", "GPE"}

    def filter(self, doc: Doc, ents: list[tuple[int, int, str]]
               ) -> list[tuple[int, int, str]]:
        out = []
        taken = [False] * len(doc)
        for s, e, lab in ents:
            if lab in self.KEEP and e - s <= 3:
                out.append((s, e, lab))
                for k in range(s, e):
                    taken[k] = True
        # uncased knowledge lookup (lossy-capitalisation recall path)
        i, n = 0, len(doc)
        while i < n:
            if taken[i] or doc.is_punct[i]:
                i += 1
                continue
            length, value = self.base.knowledge.longest_prefix(
                doc.lowers, False, start=i, max_len=LOOKAHEAD)
            if length and length <= 3 \
                    and not any(taken[k] for k in range(i, i + length)):
                label = value[0]
                label = "ORG" if label == "COMPANY" else label
                if label in self.KEEP:
                    out.append((i, i + length, label))
                    for k in range(i, i + length):
                        taken[k] = True
                    i += length
                    continue
            i += 1
        out.sort()
        return out


class SecNER(_FilteredNER):
    """Stand-in for ``data/SEC-filings`` (annotations.py:333): financial-
    filings profile — very sparse output (priors (0.1, 0.1),
    labelling.py:32-33): only legal-suffix organisations, full person names
    and country mentions."""

    def filter(self, doc: Doc, ents: list[tuple[int, int, str]]
               ) -> list[tuple[int, int, str]]:
        out = []
        for s, e, lab in ents:
            last = doc.lowers[e - 1].rstrip(".")
            if lab in {"ORG", "COMPANY"} and last in LEGAL_SUFFIXES:
                out.append((s, e, "ORG"))
            elif lab == "PERSON" and e - s >= 2 \
                    and doc.tokens[s] in self.base.first_names:
                out.append((s, e, lab))
            elif lab == "GPE" and doc.span_text(s, e) in COUNTRIES:
                out.append((s, e, lab))
        return out


def correct_entities(doc: Doc,
                     ents: list[tuple[int, int, str]],
                     recursive: bool = True) -> list[tuple[int, int, str]]:
    """Entity-correction rules applied to model output, producing the ``+c``
    layers (spacy_wrapper.py:268-402, same rule order)."""
    n = len(doc)
    ent_type = [None] * n
    for s, e, lab in ents:
        for k in range(s, e):
            ent_type[k] = lab

    new_ents: list[tuple[int, int, str]] = []
    changed = False
    existing = [(s, e, lab) for s, e, lab in ents
                if doc.span_text(s, e) not in {"EPS", "No", "Nb", "n't",
                                               "n’t"}]
    if len(existing) != len(ents):
        changed = True

    for s, e, lab in existing:
        if (e < n and (doc.lowers[e] in {"euro", "cent", "ruble", "euros",
                                         "cents", "rubles"}
                       or doc.tokens[e] in CURRENCY_SYMBOLS
                       or doc.tokens[e].upper() in CURRENCY_CODES)
                and (e == n - 1 or ent_type[e] is None)):
            new_ents.append((s, e + 1, "MONEY"))
            changed = True
        elif doc.lowers[e - 1] == "to" and lab == "MONEY":
            new_ents.append((s, e - 1, "MONEY"))
            changed = True
        elif (e < n and doc.lowers[e] == "won"
              and (e == n - 1 or ent_type[e] is None)
              and lab in {"MONEY", "CARDINAL"}):
            new_ents.append((s, e + 1, "MONEY"))
            changed = True
        elif e < n and doc.lowers[e] in MAGNITUDES \
                and lab in {"MONEY", "CARDINAL"}:
            new_ents.append((s, e + 1, lab))
            changed = True
        elif (s > 0 and ent_type[s - 1] is None
              and (doc.tokens[s - 1] in CURRENCY_SYMBOLS
                   or doc.tokens[s - 1] in CURRENCY_CODES)):
            new_ents.append((s - 1, e, "MONEY"))
            changed = True
        elif s > 0 and ent_type[s - 1] is None and doc.tokens[s - 1] == "#":
            new_ents.append((s - 1, e, "MONEY"))
            changed = True
        elif doc.tokens[s] == "#":
            new_ents.append((s, e, "CARDINAL"))
            changed = True
        elif len(doc.tokens[s]) == 2 and doc.tokens[s][0] == "Q" \
                and doc.tokens[s][1] in "1234":
            changed = True              # drop quartals
        elif len(doc.tokens[s]) >= 3 and doc.tokens[s][:3] in CURRENCY_CODES \
                and lab != "MONEY":
            new_ents.append((s, e, "MONEY"))
            changed = True
        elif e - s >= 3 and doc.span_text(s, e).endswith("per cent") \
                and lab != "PERCENT":
            new_ents.append((s, e, "PERCENT"))
            changed = True
        elif doc.tokens[e - 1][:1].isdigit() \
                and doc.span_text(s, e).endswith("p") and lab != "MONEY":
            new_ents.append((s, e, "MONEY"))
            changed = True
        elif e < n and doc.lowers[e].rstrip(".") in LEGAL_SUFFIXES:
            new_ents.append((s, e + 1, "ORG"))
            changed = True
        elif doc.lowers[e - 1].rstrip(".") in LEGAL_SUFFIXES \
                and e > s + 1 and lab != "ORG":
            new_ents.append((s, e, "ORG"))
            changed = True
        elif not new_ents or new_ents[-1][1] < e:
            new_ents.append((s, e, lab))

    # currency symbol followed by numeric value, still undetected
    for i in range(n):
        if (doc.tokens[i] in CURRENCIES
                and ent_type[i] != "MONEY" and i < n - 1
                and (doc.tokens[i + 1][:1].isdigit()
                     or doc.tokens[i + 1] in CURRENCY_SYMBOLS)):
            entity_end = i + 2
            for k in range(i + 2, n):
                if any(k >= s and k < e for s, e, _ in new_ents):
                    entity_end = k + 1
                else:
                    break
            new_ents.append((i, entity_end, "MONEY"))
            changed = True

    new_ents.sort(key=lambda p: p[0])

    # merge overlapping entities (spacy_wrapper.py:371-392)
    merge_loop = True
    while merge_loop:
        merge_loop = False
        snapshot = list(new_ents)
        for i, (s1, e1, l1) in enumerate(snapshot):
            for j, (s2, e2, l2) in enumerate(snapshot[i + 1:i + 5]):
                if e1 > s2 or (e1 == s2 and l1 == l2):
                    del new_ents[i + j + 1]
                    if l1 == "MONEY" or l2 == "MONEY":
                        new_ents[i] = (s1, e2, "MONEY")
                    elif e2 - s2 >= e1 - s1:
                        new_ents[i] = (s1, e2, l2)
                    else:
                        new_ents[i] = (s1, e2, l1)
                    merge_loop = True
                    changed = True
                    break
            if merge_loop:
                break

    if changed and recursive:
        return correct_entities(doc, new_ents, recursive=False)
    return new_ents
