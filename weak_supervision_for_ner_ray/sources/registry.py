"""Source registry: names, priors, execution DAG, and the fused annotator.

The reference wires ~30 annotator objects in a fixed order with exclusivity
edges (``FullAnnotator.add_all``, annotations.py:261-373).  Here that wiring
is explicit data: ``SOURCE_NAMES`` fixes the observation-tensor axis,
``SOURCE_PRIORS`` carries the per-source (precision, recall) priors
(labelling.py:27-78, values kept for the sources this engine implements),
and :class:`LFBank` executes the whole turn-level bank in one fused pass —
the Ray stage wraps it in ``map_batches`` (SURVEY.md §2.2).
"""

from __future__ import annotations

from ..constants import LABELS, NUMBER_NERS
from ..functions import detectors as det
from ..functions.spans import Layers, SpanGenerator, likely_proper_and_compound
from ..state.trie import TokenTrie
from ..tokenizer import Doc, in_compound, make_doc
from .doclevel import ConversationDoc, doc_history, doc_majority, standardise
from .gazetteers import GazetteerMatcher, build_trie
from .model import (BtcNER, ConllNER, HeuristicNER, SecNER,
                    correct_entities)

GAZETTEER_NAMES = ["wiki", "wiki_small", "geo", "crunchbase", "product"]

MODEL_NAMES = ["core_web_md", "conll2003", "BTC", "SEC"]

SOURCE_NAMES = sorted(
    ["company_type_detector", "compound_detector", "core_web_md",
     "core_web_md+c", "conll2003", "conll2003+c", "BTC", "BTC+c",
     "SEC", "SEC+c", "date_detector", "doc_history", "doc_majority_cased",
     "doc_majority_uncased", "full_name_detector",
     "infrequent_compound_detector", "infrequent_nnp_detector",
     "infrequent_proper2_detector", "infrequent_proper_detector",
     "legal_detector", "misc_detector", "money_detector", "nnp_detector",
     "number_detector", "proper2_detector", "proper_detector", "snips",
     "time_detector"]
    + ["%s_%s" % (g, c) for g in GAZETTEER_NAMES for c in ("cased", "uncased")]
    + ["multitoken_%s_%s" % (g, c) for g in GAZETTEER_NAMES
       for c in ("cased", "uncased")]
)
SOURCE_INDICES = {s: i for i, s in enumerate(SOURCE_NAMES)}

# (precision, recall) priors per source and label — labelling.py:27-78.
_ENT5 = ["COMPANY", "ORG", "PERSON", "GPE", "LOC"]

SOURCE_PRIORS: dict[str, dict[str, tuple[float, float]]] = {
    'BTC': {l: (0.4, 0.4) if l in _ENT5 else (0.3, 0.3)
            for l in LABELS if l not in NUMBER_NERS},
    'BTC+c': {l: (0.5, 0.5) if l in _ENT5 + ["MONEY"] else (0.4, 0.4)
              for l in LABELS},
    'SEC': {l: (0.1, 0.1) if l in _ENT5 else (0.05, 0.05)
            for l in LABELS if l not in NUMBER_NERS},
    'SEC+c': {l: (0.1, 0.1) if l in _ENT5 + ["MONEY"] else (0.05, 0.05)
              for l in LABELS},
    'conll2003': {l: (0.7, 0.7) if l in _ENT5 else (0.4, 0.4)
                  for l in LABELS if l not in NUMBER_NERS},
    'conll2003+c': {l: (0.7, 0.7) if l in _ENT5 else (0.4, 0.4)
                    for l in LABELS},
    'company_type_detector': {'COMPANY': (0.9999, 0.4)},
    'compound_detector': {l: (0.7, 0.8) if l not in NUMBER_NERS
                          else (0.01, 0.01) for l in LABELS},
    'core_web_md': {l: (0.9, 0.9) for l in LABELS},
    'core_web_md+c': {l: (0.95, 0.95) for l in LABELS},
    'crunchbase_cased': {l: (0.7, 0.6) for l in ["PERSON", "ORG", "COMPANY"]},
    'crunchbase_uncased': {l: (0.6, 0.7) for l in ["PERSON", "ORG",
                                                   "COMPANY"]},
    'date_detector': {'DATE': (0.9, 0.9)},
    'doc_history': {l: (0.99, 0.4) for l in ["PERSON", "COMPANY"]},
    'doc_majority_cased': {l: (0.98, 0.4) for l in LABELS},
    'doc_majority_uncased': {l: (0.95, 0.5) for l in LABELS},
    'full_name_detector': {'PERSON': (0.9999, 0.4)},
    'geo_cased': {l: (0.8, 0.8) for l in ["GPE", "LOC"]},
    'geo_uncased': {l: (0.8, 0.8) for l in ["GPE", "LOC"]},
    'infrequent_compound_detector': {l: (0.7, 0.8) if l not in NUMBER_NERS
                                     else (0.01, 0.01) for l in LABELS},
    'infrequent_nnp_detector': {l: (0.7, 0.8) if l not in NUMBER_NERS
                                else (0.01, 0.01) for l in LABELS},
    'infrequent_proper2_detector': {l: (0.7, 0.8) if l not in NUMBER_NERS
                                    else (0.01, 0.01) for l in LABELS},
    'infrequent_proper_detector': {l: (0.7, 0.8) if l not in NUMBER_NERS
                                   else (0.01, 0.01) for l in LABELS},
    'legal_detector': {'LAW': (0.8, 0.8)},
    'misc_detector': {l: (0.7, 0.7) for l in ["NORP", "EVENT", "FAC", "GPE",
                                              "LANGUAGE"]},
    'money_detector': {'MONEY': (0.9, 0.9)},
    'multitoken_crunchbase_cased': {l: (0.8, 0.6) for l in
                                    ["PERSON", "ORG", "COMPANY"]},
    'multitoken_crunchbase_uncased': {l: (0.7, 0.7) for l in
                                      ["PERSON", "ORG", "COMPANY"]},
    'multitoken_geo_cased': {l: (0.8, 0.6) for l in ["GPE", "LOC"]},
    'multitoken_geo_uncased': {l: (0.7, 0.7) for l in ["GPE", "LOC"]},
    'multitoken_product_cased': {"PRODUCT": (0.8, 0.6)},
    'multitoken_product_uncased': {"PRODUCT": (0.7, 0.7)},
    'multitoken_wiki_cased': {l: (0.8, 0.6) for l in
                              ["PERSON", "GPE", "LOC", "ORG", "COMPANY",
                               "PRODUCT"]},
    'multitoken_wiki_small_cased': {l: (0.8, 0.6) for l in
                                    ["PERSON", "GPE", "LOC", "ORG", "COMPANY",
                                     "PRODUCT"]},
    'multitoken_wiki_small_uncased': {l: (0.7, 0.7) for l in
                                      ["PERSON", "GPE", "LOC", "ORG",
                                       "COMPANY", "PRODUCT"]},
    'multitoken_wiki_uncased': {l: (0.7, 0.7) for l in
                                ["PERSON", "GPE", "LOC", "ORG", "COMPANY",
                                 "PRODUCT"]},
    'nnp_detector': {l: (0.8, 0.8) if l not in NUMBER_NERS
                     else (0.01, 0.01) for l in LABELS},
    'number_detector': {l: (0.9, 0.9) for l in ["CARDINAL", "ORDINAL",
                                                "QUANTITY", "PERCENT"]},
    'product_cased': {"PRODUCT": (0.7, 0.6)},
    'product_uncased': {"PRODUCT": (0.6, 0.7)},
    'proper2_detector': {l: (0.6, 0.8) if l not in NUMBER_NERS
                         else (0.01, 0.01) for l in LABELS},
    'proper_detector': {l: (0.6, 0.8) if l not in NUMBER_NERS
                        else (0.01, 0.01) for l in LABELS},
    'snips': {l: (0.8, 0.8) for l in ["DATE", "TIME", "PERCENT", "CARDINAL",
                                      "ORDINAL", "MONEY"]},
    'time_detector': {'TIME': (0.9, 0.9)},
    'wiki_cased': {l: (0.6, 0.5) for l in ["PERSON", "GPE", "LOC", "ORG",
                                           "COMPANY", "PRODUCT"]},
    'wiki_small_cased': {l: (0.7, 0.6) for l in ["PERSON", "GPE", "LOC",
                                                 "ORG", "COMPANY",
                                                 "PRODUCT"]},
    'wiki_small_uncased': {l: (0.6, 0.7) for l in ["PERSON", "GPE", "LOC",
                                                   "ORG", "COMPANY",
                                                   "PRODUCT"]},
    'wiki_uncased': {l: (0.5, 0.6) for l in ["PERSON", "GPE", "LOC", "ORG",
                                             "COMPANY", "PRODUCT"]},
}

# rare specialisation/correction labels for the trained-model sources
# (labelling.py:76-78)
for _src in ["BTC", "BTC+c", "SEC", "SEC+c", "conll2003", "conll2003+c"]:
    SOURCE_PRIORS[_src].update({l: (0.8, 0.01) for l in NUMBER_NERS})

OUT_RECALL = 0.9     # labelling.py:80
OUT_PRECISION = 0.8  # labelling.py:81


def best_coverage_source() -> str:
    """Source with the widest label coverage (labelling.py:321)."""
    return sorted(SOURCE_NAMES,
                  key=lambda s: len(SOURCE_PRIORS.get(s, {})))[-1]


def make_span_generators():
    """The four shape-based span generators (annotations.py:282-301), in
    (proper, proper2, nnp, compound) order.  Module-level so the
    standalone ``detector_mentions`` op uses EXACTLY the generators the
    bank uses (no drift)."""
    proper = SpanGenerator(lambda d, i: d.likely_proper[i])
    proper2 = SpanGenerator(
        lambda d, i: d.likely_proper[i],
        exceptions={"'s", "’s", "-", "a", "an", "the", "at", "by", "for",
                    "in", "of", "on", "to", "up", "and"})
    nnp = SpanGenerator(lambda d, i: d.tag[i] == "NNP")
    compound = SpanGenerator(likely_proper_and_compound)
    return proper, proper2, nnp, compound


class LFBank:
    """The fused turn-level labeling-function bank.

    ``gazetteers``: {name: {label: [surface, ...]}} — the small broadcast
    side; tries are compiled once in ``__init__`` (once per actor when used
    inside an actor-pool stage).  ``first_names``: list of given names.
    """

    _EXC_DTM = ("date_detector", "time_detector", "money_detector")
    _EXC_DTML = _EXC_DTM + ("legal_detector",)
    _EXC_DTMN = _EXC_DTM + ("number_detector",)
    # the only sources finish_conversation writes
    CONVERSATION_SOURCES = frozenset({"doc_history", "doc_majority_cased",
                                      "doc_majority_uncased"})

    def __init__(self, gazetteers: dict[str, dict[str, list[str]]],
                 first_names: list[str],
                 form_frequencies: dict[str, dict[str, float]] | None = None):
        # optional truecasing table for short mis-cased turns
        # (spacy_wrapper.py:186-221; built by etl.build_form_frequencies)
        self.form_frequencies = form_frequencies
        self.tries = {name: build_trie(gaz)
                      for name, gaz in gazetteers.items()}
        self.matchers = {name: GazetteerMatcher(trie)
                         for name, trie in self.tries.items()}
        self.first_names = set(first_names)

        # model knowledge = union of all gazetteers (cased trie)
        knowledge = TokenTrie()
        for gaz in gazetteers.values():
            for key, value in build_trie(gaz).items():
                if knowledge.get(key) is None:
                    knowledge.add(key, value)
        self.model = HeuristicNER(knowledge, self.first_names)
        # the reference's four trained spaCy models (annotations.py:326-334)
        # — heuristic stand-ins with distinct knowledge/recall profiles
        self.models = {
            "core_web_md": self.model,
            "conll2003": ConllNER(self.model),
            "BTC": BtcNER(self.model),
            "SEC": SecNER(self.model),
        }

        (self.proper_gen, self.proper2_gen, self.nnp_gen,
         self.compound_gen) = make_span_generators()
        self.company_type = det.CompanyTypeDetector()
        self.full_name = det.FullNameDetector(self.first_names)

    # -- single turn ------------------------------------------------------
    def annotate_turn(self, text: str | None) -> tuple[Doc, Layers]:
        """Turn-level sources over one text.  A NULL text (None) is an
        empty turn: zero tokens, no mentions."""
        text = text or ""
        if self.form_frequencies is not None:
            from ..tokenizer import truecase_text
            text = truecase_text(text, self.form_frequencies)
        doc = make_doc(text)
        layers = Layers()
        self.run_turn_sources(doc, layers)
        return doc, layers

    def run_turn_sources(self, doc: Doc, layers: Layers) -> None:
        """Everything except doc-level sources, in add_all order
        (annotations.py:275-362)."""
        add = layers.add

        def run(fn, source, to_exclude=()):
            layers.clear_source(source)
            excluded = layers.intervals(to_exclude)
            for start, end, label in fn(doc, layers):
                add(start, end, label, source, excluded=excluded)

        def run_gen(gen, source, to_exclude=()):
            layers.clear_source(source)
            excluded = layers.intervals(to_exclude)
            for start, end, label in gen(doc):
                add(start, end, label, source, excluded=excluded)

        run(det.date_detector, "date_detector")
        run(det.time_detector, "time_detector")
        run(det.money_detector, "money_detector")

        run_gen(self.proper_gen, "proper_detector", self._EXC_DTM)
        run_gen(self.proper2_gen, "proper2_detector", self._EXC_DTM)
        run_gen(self.nnp_gen, "nnp_detector", self._EXC_DTM)
        run_gen(self.compound_gen, "compound_detector", self._EXC_DTM)

        # span-constraint variants: infrequent tokens (annotations.py:305-306)
        for parent in ("proper_detector", "proper2_detector", "nnp_detector",
                       "compound_detector"):
            source = "infrequent_" + parent
            layers.clear_source(source)
            for (start, end), vals in layers.by_source[parent].items():
                if det.is_infrequent(doc, start, end):
                    for label, conf in vals:
                        add(start, end, label, source, conf)

        run(det.legal_detector, "legal_detector", self._EXC_DTM)
        run(det.number_detector, "number_detector", self._EXC_DTML)
        run(self.company_type, "company_type_detector", self._EXC_DTML)
        run(self.full_name, "full_name_detector",
            self._EXC_DTML + ("company_type_detector",))
        run(det.snips_detector, "snips")

        # model sources: raw + corrected layer per model
        # (annotations.py:326-334, 503-515); the four profiles share one
        # base prediction
        base_ents = self.model.predict(doc)
        for mname in MODEL_NAMES:
            layers.clear_source(mname)
            layers.clear_source(mname + "+c")
            ents = self.models[mname].filter(doc, base_ents)
            for start, end, label in ents:
                add(start, end, label, mname)
            for start, end, label in correct_entities(doc, ents):
                add(start, end, label, mname + "+c")

        # gazetteers (annotations.py:336-359); product excludes only d/t/m
        for name in GAZETTEER_NAMES:
            matcher = self.matchers[name]
            excluded = layers.intervals(
                self._EXC_DTM if name == "product" else self._EXC_DTMN)
            for cased, case_sensitive in (("cased", True),
                                          ("uncased", False)):
                source = f"{name}_{cased}"
                layers.clear_source(source)
                for s, e, lab, conf in matcher.get_hits(doc, case_sensitive):
                    add(s, e, lab, source, conf, excluded=excluded)
                # multitoken variants (annotations.py:357-359)
                msource = "multitoken_" + source
                layers.clear_source(msource)
                for (s, e), vals in layers.by_source[source].items():
                    if e - s > 1:
                        for lab, conf in vals:
                            add(s, e, lab, msource, conf)

        run(det.misc_detector, "misc_detector", self._EXC_DTMN)
        standardise(doc, layers)

    # -- whole conversation ----------------------------------------------
    def annotate_conversation(self, turn_idxs: list[int],
                              texts: list[str]
                              ) -> tuple[list[Doc], list[Layers]]:
        """Turn-level bank + doc-level sources for one conversation whose
        turns are already sorted by turn_idx."""
        docs, layers_list = [], []
        for text in texts:
            doc, layers = self.annotate_turn(text)
            docs.append(doc)
            layers_list.append(layers)
        conv = ConversationDoc(turn_idxs, docs, layers_list)
        doc_history(conv)
        doc_majority(conv)
        return docs, layers_list

    def finish_conversation(self, turn_idxs: list[int], docs: list[Doc],
                            layers_list: list[Layers]) -> None:
        """Doc-level sources only (turn-level layers already computed):
        writes :attr:`CONVERSATION_SOURCES` and leaves every other source
        of ``layers_list`` as it was."""
        conv = ConversationDoc(turn_idxs, docs, layers_list)
        doc_history(conv)
        doc_majority(conv)
