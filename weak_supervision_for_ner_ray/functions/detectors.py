"""Shallow labeling functions (date/time/money/number/legal/misc/company/name).

Each detector is a pure function ``(doc, layers) -> Iterator[(start, end,
label)]`` over the lightweight :class:`~..tokenizer.Doc`; semantics track the
reference generators at annotations.py:708-991.  ``layers`` is only consulted
by the detectors that read other sources' outputs (legal <- proper2/nnp,
misc <- proper; SURVEY.md §7.4 "cross-source dependency graph").
"""

from __future__ import annotations

import re

from ..constants import (COUNTRIES, CURRENCY_CODES, CURRENCY_SYMBOLS, DAYS,
                         DAYS_ABBRV, EVENTS, FACILITIES, LANGUAGES, LEGAL,
                         LEGAL_SUFFIXES, MAGNITUDES, MONTHS, MONTHS_ABBRV,
                         NAME_PREFIXES, NORPS, ORDINALS, ROMAN_NUMERALS,
                         UNITS)
from ..tokenizer import Doc
from .spans import (Layers, SpanGenerator, get_spans,
                    likely_proper_and_compound, merge_contiguous_spans)

_ALLDIGIT_RE = re.compile(r"\d+$")
_ORDINAL_NUM_RE = re.compile(r"\d+(?:st|nd|rd|th)$")
_TIME_RE = re.compile(r"\d{1,2}\:\d{1,2}")
_HAS_DIGIT_RE = re.compile(r"\d")

_DAY_SET = DAYS | DAYS_ABBRV
_MONTH_SET = MONTHS | MONTHS_ABBRV
_AMPM = {"am", "pm", "a.m.", "p.m.", "am.", "pm."}
_MONEY_SUFFIX = CURRENCY_CODES | CURRENCY_SYMBOLS | {"euros", "cents", "rubles"}
_PERCENT_TOKENS = {"%", "percent", "pc.", "pc", "pct", "pct.", "percents",
                   "percentage"}
_LEGAL_HEADS = {"Article", "Paragraph", "Section", "Chapter", "§"}


def _lemma_day(doc: Doc, i: int) -> bool:
    t = doc.tokens[i]
    return t in _DAY_SET or t.rstrip("s") in _DAY_SET


def _lemma_month(doc: Doc, i: int) -> bool:
    t = doc.tokens[i]
    return t in _MONTH_SET or t.rstrip("s") in _MONTH_SET


def date_detector(doc: Doc, layers: Layers):
    """annotations.py:708-738."""
    spans: dict[tuple[int, int], str] = {}
    i, n = 0, len(doc)
    while i < n:
        tok = doc.tokens[i]
        if _lemma_day(doc, i):
            spans[(i, i + 1)] = "DATE"
        elif (_ALLDIGIT_RE.match(tok) and tok.isdigit()
              and 1920 < int(tok) < 2040):
            spans[(i, i + 1)] = "DATE"
        elif _lemma_month(doc, i):
            if doc.tag[i] == "MD":       # "may" as auxiliary
                pass
            elif (i > 0 and _ALLDIGIT_RE.match(doc.tokens[i - 1])
                  and int(doc.tokens[i - 1]) < 32):
                spans[(i - 1, i + 1)] = "DATE"
            elif (i > 1 and _ORDINAL_NUM_RE.match(doc.tokens[i - 2])
                  and doc.lowers[i - 1] == "of"):
                spans[(i - 2, i + 1)] = "DATE"
            elif (i < n - 1 and _ALLDIGIT_RE.match(doc.tokens[i + 1])
                  and int(doc.tokens[i + 1]) < 32):
                spans[(i, i + 2)] = "DATE"
                i += 1
            else:
                spans[(i, i + 1)] = "DATE"
        i += 1
    spans = merge_contiguous_spans(spans, doc)
    for (start, end), label in spans.items():
        yield start, end, label


def time_detector(doc: Doc, layers: Layers):
    """annotations.py:742-756."""
    i, n = 0, len(doc)
    while i < n:
        tok = doc.tokens[i]
        if (i < n - 1 and tok[:1].isdigit()
                and doc.lowers[i + 1] in _AMPM):
            yield i, i + 2, "TIME"
            i += 1
        elif tok[:1].isdigit() and _TIME_RE.match(tok):
            yield i, i + 1, "TIME"
            i += 1
        i += 1


def money_detector(doc: Doc, layers: Layers):
    """annotations.py:760-786."""
    i, n = 0, len(doc)
    while i < n:
        tok = doc.tokens[i]
        if tok[:1].isdigit():
            j = i + 1
            while j < n and (doc.tokens[j][:1].isdigit()
                             or doc.lowers[j] in MAGNITUDES):
                j += 1
            found_symbol = False
            if i > 0 and doc.tokens[i - 1] in (CURRENCY_CODES
                                               | CURRENCY_SYMBOLS):
                i -= 1
                found_symbol = True
            if j < n and doc.tokens[j] in _MONEY_SUFFIX:
                j += 1
                found_symbol = True
            if found_symbol:
                yield i, j, "MONEY"
            i = j
        else:
            i += 1


def number_detector(doc: Doc, layers: Layers):
    """annotations.py:790-814 (ORDINAL / QUANTITY / PERCENT / CARDINAL)."""
    i, n = 0, len(doc)
    while i < n:
        tok = doc.tokens[i]
        if doc.lowers[i] in ORDINALS:
            yield i, i + 1, "ORDINAL"
        elif _HAS_DIGIT_RE.search(tok):
            j = i + 1
            while j < n and doc.lowers[j] in MAGNITUDES:
                j += 1
            if j < n and doc.lowers[j].rstrip(".") in UNITS:
                j += 1
                yield i, j, "QUANTITY"
            elif j < n and doc.lowers[j] in _PERCENT_TOKENS:
                j += 1
                yield i, j, "PERCENT"
            else:
                yield i, j, "CARDINAL"
            i = j - 1
        i += 1


def legal_detector(doc: Doc, layers: Layers):
    """LAW spans over proper2/nnp spans + Article-5 references
    (annotations.py:934-961)."""
    legal_spans: dict[tuple[int, int], str] = {}
    for start, end in get_spans(layers, ["proper2_detector", "nnp_detector"]):
        if not doc.likely_proper[end - 1]:
            continue
        last = doc.tokens[end - 1].title().rstrip("s")
        if last in LEGAL:
            legal_spans[(start, end)] = "LAW"
    n = len(doc)
    for i in range(n - 1):
        if doc.tokens[i].rstrip("s") in _LEGAL_HEADS:
            nxt = doc.tokens[i + 1]
            if nxt[:1].isdigit() or nxt in ROMAN_NUMERALS:
                start, end = i, i + 2
                if (i < n - 3 and doc.tokens[i + 2] in {"-", "to", "and"}
                        and (doc.tokens[i + 3][:1].isdigit()
                             or doc.tokens[i + 3] in ROMAN_NUMERALS)):
                    end = i + 4
                legal_spans[(start, end)] = "LAW"
    legal_spans = merge_contiguous_spans(legal_spans, doc)
    for start, end in legal_spans:
        yield start, end, "LAW"


def misc_detector(doc: Doc, layers: Layers):
    """GPE / NORP / LANGUAGE / FAC / EVENT (annotations.py:965-991)."""
    spans = set(layers.by_source.get("proper_detector", {}))
    spans.update((i, i + 1) for i in range(len(doc)))
    for start, end in sorted(spans):
        span = doc.span_text(start, end)
        if span.isupper():
            span = span.title()
        last = doc.tokens[end - 1]
        if span in COUNTRIES:
            yield start, end, "GPE"
        if end <= start + 3 and (span in NORPS or last in NORPS
                                 or last.rstrip("s") in NORPS):
            yield start, end, "NORP"
        if span in LANGUAGES and doc.tag[start] == "NNP":
            yield start, end, "LANGUAGE"
        if last in FACILITIES and end > start + 1:
            yield start, end, "FAC"
        if last in EVENTS and end > start + 1:
            yield start, end, "EVENT"


class CompanyTypeDetector:
    """Compound proper spans ending in a legal suffix -> COMPANY
    (annotations.py:854-866)."""

    def __init__(self):
        self.gen = SpanGenerator(likely_proper_and_compound)

    def __call__(self, doc: Doc, layers: Layers):
        for start, end, _ in self.gen(doc):
            if doc.lowers[end - 1].rstrip(".") in LEGAL_SUFFIXES:
                yield start, end, "COMPANY"
            elif (end < len(doc)
                  and doc.lowers[end].rstrip(".") in LEGAL_SUFFIXES):
                yield start, end + 1, "COMPANY"


class FullNameDetector:
    """First name + titled last token, 2-4 tokens -> PERSON
    (annotations.py:869-889).  ``first_names`` is broadcast state."""

    def __init__(self, first_names: set[str]):
        self.first_names = first_names
        self.gen = SpanGenerator(likely_proper_and_compound,
                                 exceptions=NAME_PREFIXES)

    def __call__(self, doc: Doc, layers: Layers):
        for start, end, _ in self.gen(doc):
            if (end - start) < 2 or (end - start) > 5:
                continue
            if (doc.tokens[start] in self.first_names
                    and doc.is_alpha[end - 1] and doc.is_title[end - 1]):
                yield start, end, "PERSON"


# ---------------------------------------------------------------------------
# Probabilistic-parser stand-in ("snips" source).
#
# The reference wraps the Rust snips-nlu-parsers builtin entity parser
# (annotations.py:894-931) whose *output contract* is spans labelled
# CARDINAL / ORDINAL / MONEY / PERCENT / DATE / TIME.  That library is not
# available here, so this pure-Python parser reproduces the output contract
# with regex/token rules over the same label set (SURVEY.md §2.2: "replace
# with equivalent pure-Python parser — semantics defined by output labels").
# ---------------------------------------------------------------------------

_WORD_NUMBERS = {"one", "two", "three", "four", "five", "six", "seven",
                 "eight", "nine", "ten", "eleven", "twelve", "twenty",
                 "thirty", "forty", "fifty", "hundred", "thousand", "million",
                 "billion", "dozen"}
_WORD_ORDINALS = {"third", "fourth", "fifth", "sixth", "seventh", "eighth",
                  "ninth", "tenth"}
_SNIPS_SKIP = {"one", "some", "few", "many", "several"}


def snips_detector(doc: Doc, layers: Layers):
    """Date/time/money/percent/cardinal/ordinal spans, snips-style."""
    n = len(doc)
    taken = [False] * n

    def claim(s, e):
        for k in range(s, e):
            taken[k] = True

    # money: currency symbol/code adjacent to numbers (incl. magnitudes)
    i = 0
    while i < n:
        tok = doc.tokens[i]
        if tok in CURRENCY_CODES | CURRENCY_SYMBOLS and i < n - 1 \
                and doc.tokens[i + 1][:1].isdigit():
            j = i + 1
            while j < n and (doc.tokens[j][:1].isdigit()
                             or doc.lowers[j] in MAGNITUDES):
                j += 1
            yield i, j, "MONEY"
            claim(i, j)
            i = j
        elif tok[:1].isdigit() and i < n - 1 \
                and doc.tokens[i + 1] in CURRENCY_CODES | CURRENCY_SYMBOLS | \
                {"euros", "cents", "rubles", "dollars", "pounds"}:
            yield i, i + 2, "MONEY"
            claim(i, i + 2)
            i += 2
        else:
            i += 1

    # percent
    for i in range(n - 1):
        if not taken[i] and doc.tokens[i][:1].isdigit() \
                and doc.lowers[i + 1] in _PERCENT_TOKENS:
            yield i, i + 2, "PERCENT"
            claim(i, i + 2)

    # time
    for i in range(n):
        if taken[i]:
            continue
        if _TIME_RE.match(doc.tokens[i]):
            if i < n - 1 and doc.lowers[i + 1] in _AMPM:
                yield i, i + 2, "TIME"
                claim(i, i + 2)
            else:
                yield i, i + 1, "TIME"
                claim(i, i + 1)
        elif (doc.tokens[i][:1].isdigit() and i < n - 1
              and doc.lowers[i + 1] in _AMPM):
            yield i, i + 2, "TIME"
            claim(i, i + 2)

    # dates: day-of-week, "21 October 1998", "October 21", years
    i = 0
    while i < n:
        if taken[i]:
            i += 1
            continue
        tok = doc.tokens[i]
        if _lemma_day(doc, i) and doc.tokens[i] != "may":
            yield i, i + 1, "DATE"
            claim(i, i + 1)
            i += 1
            continue
        if _lemma_month(doc, i) and doc.tag[i] != "MD" and tok != "may":
            s, e = i, i + 1
            if i > 0 and not taken[i - 1] \
                    and _ALLDIGIT_RE.match(doc.tokens[i - 1]) \
                    and int(doc.tokens[i - 1]) < 32:
                s = i - 1
            if i < n - 1 and _ALLDIGIT_RE.match(doc.tokens[i + 1]):
                nxt = int(doc.tokens[i + 1])
                if nxt < 32 or 1900 < nxt < 2100:
                    e = i + 2
            if e < n and _ALLDIGIT_RE.match(doc.tokens[e]) \
                    and 1900 < int(doc.tokens[e]) < 2100:
                e += 1
            yield s, e, "DATE"
            claim(s, e)
            i = e
            continue
        if tok.isdigit() and 1920 < int(tok) < 2040:
            yield i, i + 1, "DATE"
            claim(i, i + 1)
        i += 1

    # ordinals
    for i in range(n):
        if taken[i]:
            continue
        low = doc.lowers[i]
        if (_ORDINAL_NUM_RE.match(doc.tokens[i]) or low in _WORD_ORDINALS) \
                and low not in {"first", "second"}:
            yield i, i + 1, "ORDINAL"
            claim(i, i + 1)

    # cardinals
    i = 0
    while i < n:
        if taken[i]:
            i += 1
            continue
        tok = doc.tokens[i]
        low = doc.lowers[i]
        if (tok[:1].isdigit() and _NUMERIC_RE.match(tok)) \
                or (low in _WORD_NUMBERS and low not in _SNIPS_SKIP
                    and not doc.is_title[i]):
            j = i + 1
            while j < n and not taken[j] and (
                    doc.lowers[j] in MAGNITUDES
                    or doc.lowers[j] in _WORD_NUMBERS):
                j += 1
            yield i, j, "CARDINAL"
            claim(i, j)
            i = j
        else:
            i += 1


_NUMERIC_RE = re.compile(r"^\d[\d.,]*$")


def is_infrequent(doc: Doc, start: int, end: int) -> bool:
    """annotations.py:1274-1277 (OOV rank handled in the tokenizer)."""
    return max(doc.rank[start:end]) > 15000

