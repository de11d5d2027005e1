"""Per-document annotation layers and span algebra.

``Layers`` is the long-form equivalent of the reference's
``doc.user_data["annotations"]`` dict: ``{source: {(start, end): ((label,
conf), ...)}}`` (SURVEY.md §1.1).  The confidence-renormalisation rule on
duplicate spans (annotations.py:159-176), the exclusivity anti-join
(annotations.py:180-190 + 1351-1365), overlap queries (annotations.py:
1333-1348), keep-longest span unions (annotations.py:1288-1309) and
contiguous-span merging (annotations.py:1312-1330) are reproduced exactly —
each silently shifts P/R if wrong (SURVEY.md §7.4).
"""

from __future__ import annotations

from ..tokenizer import Doc, in_compound


class Layers:
    """Annotation layers for one document (turn)."""

    __slots__ = ("by_source",)

    def __init__(self) -> None:
        # source -> {(start, end): tuple[(label, conf), ...]}
        self.by_source: dict[str, dict[tuple[int, int],
                                       tuple[tuple[str, float], ...]]] = {}

    def clear_source(self, source: str) -> None:
        self.by_source[source] = {}

    def copy(self) -> "Layers":
        """Copy whose span dicts can be mutated without touching these
        (the value tuples are immutable and stay shared)."""
        out = Layers()
        out.by_source = {s: dict(spans) for s, spans in self.by_source.items()}
        return out

    def add(self, start: int, end: int, label: str, source: str,
            conf: float = 1.0,
            excluded: tuple[list[tuple[int, int]], ...] = ()) -> None:
        """annotations.py:159-176 ``BaseAnnotator.add``; ``excluded`` is
        :meth:`intervals` of the sources the span may not overlap."""
        if not is_allowed_span(start, end, excluded):
            return
        spans = self.by_source.setdefault(source, {})
        if (start, end) not in spans:
            spans[(start, end)] = ((label, conf),)
            return
        current = spans[(start, end)]
        if label in {lab for lab, _ in current}:
            return
        total = sum(c for _, c in current) + conf
        if total > 1.0:
            current = tuple((lab, c / total) for lab, c in current)
            conf = conf / total
        spans[(start, end)] = (*current, (label, conf))

    def intervals(self, sources: tuple[str, ...]
                  ) -> tuple[list[tuple[int, int]], ...]:
        """Each source's spans in insertion order — built once per source
        run, since the excluded sources do not change while another
        source adds its spans."""
        return tuple(list(self.by_source.get(s, ())) for s in sources)


def is_allowed_span(start: int, end: int,
                    excluded: tuple[list[tuple[int, int]], ...]) -> bool:
    """Interval anti-join against excluded sources (annotations.py:180-190)."""
    for intervals in excluded:
        lo, hi = _binary_search(start, end, intervals)
        for s2, e2 in intervals[lo:hi]:
            if start < e2 and end > s2:
                return False
    return True


def _binary_search(start: int, end: int,
                   intervals: list[tuple[int, int]]) -> tuple[int, int]:
    """annotations.py:1351-1365 (works on insertion-ordered span dicts whose
    keys are produced in ascending start order, as in the reference)."""
    lo, hi = 0, len(intervals)
    while lo < hi - 1:
        mid = lo + (hi - lo) // 2
        s, e = intervals[mid]
        if e <= start:
            lo = mid
        elif s >= end:
            hi = mid
        else:
            break
    return lo, hi


def get_overlaps(start: int, end: int, layers: Layers,
                 sources=None) -> list[tuple[int, int, tuple]]:
    """annotations.py:1333-1348."""
    out = []
    srcs = sources if sources is not None else list(layers.by_source)
    for source in srcs:
        spans = layers.by_source.get(source)
        if not spans:
            continue
        intervals = list(spans)
        lo, hi = _binary_search(start, end, intervals)
        for s2, e2 in intervals[lo:hi]:
            if start < e2 and end > s2:
                out.append((s2, e2, spans[(s2, e2)]))
    return out


def get_spans(layers: Layers, sources,
              skip_overlaps: bool = True) -> set[tuple[int, int]]:
    """Union of spans across sources, keep-longest on overlap
    (annotations.py:1288-1309)."""
    spans: set[tuple[int, int]] = set()
    for source in sources:
        if source not in layers.by_source:
            raise RuntimeError(f"Must run {source} first")
        spans.update(layers.by_source[source])
    finished = not skip_overlaps
    while not finished:
        finished = True
        ordered = sorted(spans)
        for (s1, e1), (s2, e2) in zip(ordered[:-1], ordered[1:]):
            if s2 < e1:
                spans.remove((s2, e2) if (e1 - s1) > (e2 - s2) else (s1, e1))
                finished = False
                break
    return spans


def merge_contiguous_spans(spans: dict[tuple[int, int], str],
                           doc: Doc) -> dict[tuple[int, int], str]:
    """Merge adjacent same-value spans, also across a comma
    (annotations.py:1312-1330)."""
    finished = False
    while not finished:
        finished = True
        ordered = sorted(spans)
        for (s1, e1), (s2, e2) in zip(ordered[:-1], ordered[1:]):
            if e1 == s2 or (e1 == s2 - 1 and doc.tokens[e1] == ","):
                if spans[(s1, e1)] == spans[(s2, e2)]:
                    val = spans[(s1, e1)]
                    del spans[(s1, e1)], spans[(s2, e2)]
                    spans[(s1, e2)] = val
                    finished = False
                    break
    return spans


class SpanGenerator:
    """Longest token runs satisfying a token predicate, allowing exception
    tokens mid-span; min 3 characters (annotations.py:817-851)."""

    def __init__(self, constraint, label: str = "ENT",
                 exceptions=("'s", "’s", "-")):
        self.constraint = constraint
        self.label = label
        self.exceptions = set(exceptions)

    def __call__(self, doc: Doc):
        i, n = 0, len(doc)
        while i < n:
            if self.constraint(doc, i):
                j = i + 1
                while True:
                    if j < n and self.constraint(doc, j):
                        j += 1
                    elif (j < n - 1 and doc.tokens[j] in self.exceptions
                          and self.constraint(doc, j + 1)):
                        j += 2
                    else:
                        break
                if len(doc.span_text(i, j).rstrip(".")) > 2:
                    yield i, j, self.label
                i = j
            else:
                i += 1


def likely_proper_and_compound(doc: Doc, i: int) -> bool:
    return doc.likely_proper[i] and in_compound(doc, i)
