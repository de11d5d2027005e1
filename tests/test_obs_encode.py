"""The obs table and the two overlap votes that feed it.

The pipeline encodes a block's obs columns in one vectorised call
(``encode.encode_obs_columns``); the sequential oracle (``oracle.py``)
encodes turn by turn with ``layers_to_obs`` and ``specialise_annotations``.
The oracle-parity tests therefore see a mistake in either encoder.  These
tests pin the obs table bytes, check the block encoder against the
per-turn reference (``layers_to_obs`` plus :class:`ReferenceObs`) on random
and hand-built layers, and check the per-span vote caches against the
plain ``get_overlaps`` loops they replace.  ``doc_majority`` is still
shared by both sides.
"""

import hashlib

import numpy as np
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data as rd

from weak_supervision_for_ner_ray.data import (DETECTOR_FIRST_NAMES,
                                               builtin_gazetteers)
from weak_supervision_for_ner_ray.pipelines.kg import write_obs

OBS_COLS = ["n_tokens", "mentions", "obs_fp", "o_t", "o_s", "o_state",
            "o_conf"]
# sha256 of the small_corpus obs table, taken before the annotate and
# encode stages were fused; any change to a label, a conf bit or a row
# moves it
OBS_DIGEST = ("323c99244f238918c1cc43944449bce1"
              "3f8b680fb72ef8e6eb644adc7aac7300")


def obs_digest(obs_dir: str) -> str:
    table = pq.read_table(obs_dir).sort_by([("conv_id", "ascending"),
                                            ("turn_idx", "ascending")])
    h = hashlib.sha256()
    for name in OBS_COLS:
        h.update(name.encode())
        # repr of a Python float is exact, so this hashes every bit
        h.update(repr(table.column(name).to_pylist()).encode())
    return h.hexdigest()


def test_obs_table_digest_pinned(ray_session, small_corpus,
                                 tmp_path_factory):
    turns, _, _ = small_corpus
    wd = str(tmp_path_factory.mktemp("obs_digest"))
    obs_dir = write_obs(rd.from_arrow(turns), wd)
    assert obs_digest(obs_dir) == OBS_DIGEST


# ---- the plain loops the per-span vote caches replace, kept verbatim as
# references (labelling.py:175-213 and annotations.py:1174-1198) ----------

def reference_specialise(layers):
    from weak_supervision_for_ner_ray.functions.spans import get_overlaps
    from weak_supervision_for_ner_ray.sources.registry import SOURCE_PRIORS
    from weak_supervision_for_ner_ray.stages.encode import _SPECIALISE_VOTERS

    voters = [s for s in _SPECIALISE_VOTERS if s in layers.by_source]
    to_set = []
    for source, spans in layers.by_source.items():
        for (start, end), vals in spans.items():
            for label, conf in vals:
                if label not in ("ENT", "MISC"):
                    continue
                label_counts = {}
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


def reference_entity_counts(conv):
    from weak_supervision_for_ner_ray.functions.spans import _binary_search
    from weak_supervision_for_ner_ray.sources.doclevel import (
        DOC_MAJORITY_SOURCES)

    entity_counts = {}
    for d, layers in zip(conv.docs, conv.layers):
        span_labels = {}
        src_tables = [(spans, list(spans))
                      for source in DOC_MAJORITY_SOURCES
                      if (spans := layers.by_source.get(source))]
        for spans, _ in src_tables:
            for (start, end), vals in spans.items():
                lab = span_labels.setdefault((start, end), {})
                for label, conf in vals:
                    lab[label] = lab.get(label, 0.0) + conf
                for spans2, intervals2 in src_tables:
                    lo, hi = _binary_search(start, end, intervals2)
                    for key2 in intervals2[lo:hi]:
                        s2, e2 = key2
                        if start < e2 and end > s2 \
                                and (start, end) != key2:
                            overlap = (min(end, e2) - max(start, s2)) \
                                / (end - start)
                            for l2, c2 in spans2[key2]:
                                lab[l2] = lab.get(l2, 0.0) + c2 * overlap
        for span, counts in span_labels.items():
            tot = sum(counts.values())
            norm = {lab: c / tot for lab, c in counts.items()}
            key = tuple(d.tokens[span[0]:span[1]])
            if key in entity_counts:
                for lab, w in norm.items():
                    entity_counts[key][lab] = \
                        entity_counts[key].get(lab, 0.0) + w
            else:
                entity_counts[key] = norm
    return entity_counts


@pytest.fixture(scope="module")
def conversations(small_corpus):
    """(turn_idxs, texts) of every small_corpus conversation, plus the
    golden paragraph as a one-turn conversation."""
    from test_golden_paragraph import NEWS_TEXT

    turns, _, _ = small_corpus
    turns = turns.sort_by([("conv_id", "ascending"),
                           ("turn_idx", "ascending")])
    convs = {}
    for c, t, x in zip(turns.column("conv_id").to_pylist(),
                       turns.column("turn_idx").to_pylist(),
                       turns.column("text").to_pylist()):
        idxs, texts = convs.setdefault(c, ([], []))
        idxs.append(t)
        texts.append(x)
    return list(convs.values()) + [([0], [NEWS_TEXT])]


@pytest.fixture(scope="module")
def bank():
    from weak_supervision_for_ner_ray.sources.registry import LFBank
    return LFBank(builtin_gazetteers(), DETECTOR_FIRST_NAMES)


def test_doc_majority_cache_matches_reference(bank, conversations,
                                              monkeypatch):
    from weak_supervision_for_ner_ray.sources import doclevel
    from weak_supervision_for_ner_ray.stages.encode import canonical_layers

    assert len(conversations) == 26
    n_entities = 0
    for idxs, texts in conversations:
        docs, turn_layers = zip(*(bank.annotate_turn(t) for t in texts))
        # the pipeline runs on canonical layers, the oracle on raw ones
        for canon in (False, True):
            layers = [canonical_layers(l) if canon else l.copy()
                      for l in turn_layers]
            conv = doclevel.ConversationDoc(idxs, list(docs), layers)
            doclevel.doc_history(conv)
            got = doclevel.entity_label_counts(conv)
            assert got == reference_entity_counts(conv)
            n_entities += len(got)
        cached = bank.annotate_conversation(idxs, texts)[1]
        with monkeypatch.context() as m:
            m.setattr(doclevel, "entity_label_counts",
                      reference_entity_counts)
            ref = bank.annotate_conversation(idxs, texts)[1]
        assert [l.by_source for l in cached] == [l.by_source for l in ref]
    assert n_entities > 500


def test_specialise_cache_matches_reference(bank, conversations):
    from weak_supervision_for_ner_ray.stages.encode import (
        canonical_layers, specialise_annotations)

    n_relabelled = 0
    for idxs, texts in conversations:
        for layers in bank.annotate_conversation(idxs, texts)[1]:
            for base in (layers, canonical_layers(layers)):
                got, ref = base.copy(), base.copy()
                specialise_annotations(got)
                reference_specialise(ref)
                assert got.by_source == ref.by_source
                n_relabelled += sum(
                    vals != base.by_source[s][span]
                    for s, spans in got.by_source.items()
                    for span, vals in spans.items())
    assert n_relabelled > 500


def test_specialise_cache_skips_own_source():
    """A voter that emits a generic span must not vote on it; the corpus
    has no such source, so build one."""
    from weak_supervision_for_ner_ray.functions.spans import Layers
    from weak_supervision_for_ner_ray.stages.encode import (
        specialise_annotations)

    layers = Layers()
    layers.add(0, 2, "ENT", "BTC", 0.8)
    layers.add(1, 2, "PERSON", "BTC", 0.6)
    layers.add(0, 2, "ORG", "core_web_md")
    layers.add(0, 3, "GPE", "core_web_md", 0.4)
    layers.add(0, 2, "ENT", "proper_detector")
    layers.add(1, 3, "MISC", "misc_detector")
    got, ref = layers.copy(), layers.copy()
    specialise_annotations(got)
    reference_specialise(ref)
    assert got.by_source == ref.by_source
    assert {lab for lab, _ in got.by_source["BTC"][(0, 2)]} == {"ORG", "GPE"}


def test_canonical_layers_match_the_column_round_trip(bank):
    """``canonical_layers`` is what a trip through the nested mentions
    column gives: unknown sources and empty spans dropped, sources and
    spans sorted, conf rounded to float32."""
    import pyarrow as pa

    from test_golden_paragraph import NEWS_TEXT
    from weak_supervision_for_ner_ray.stages.encode import (MentionRows,
                                                            MentionsBuilder)

    _, layers = bank.annotate_turn(NEWS_TEXT)
    # renormalised confs (0.3, 0.3, 0.4) that a float32 cannot hold
    for label in ("PERSON", "ORG", "GPE"):
        layers.add(40, 42, label, "doc_history", 2 / 3)
    layers.add(7, 9, "ORG", "not_a_source")
    layers.by_source["BTC"][(60, 61)] = ()
    layers.by_source = dict(reversed(list(layers.by_source.items())))
    builder = MentionsBuilder()
    canon = builder.add_layers(layers)
    trip = MentionRows(pa.table({"mentions": builder.finish()})).layers(0)
    assert canon.by_source == trip.by_source
    assert list(canon.by_source) == list(trip.by_source)
    assert all(list(canon.by_source[s]) == list(trip.by_source[s])
               for s in canon.by_source)
    assert canon.by_source["doc_history"][(40, 42)][2][1] != 0.4


# ---- the block encoder against the per-turn reference ---------------------

class ReferenceObs:
    """The per-turn flattening the block encoder replaces: each turn's
    ``TurnObs`` cells in sorted (token, source) order, states in insertion
    order, and the blake2b fingerprint of the turn's pattern."""

    def __init__(self):
        self.o_t, self.o_s, self.o_state, self.o_conf = [], [], [], []
        self.offsets = [0]
        self.fps = []

    def add(self, obs):
        lo = self.offsets[-1]
        for (t, s) in sorted(obs.fired):
            for state, conf in obs.fired[(t, s)].items():
                self.o_t.append(t)
                self.o_s.append(s)
                self.o_state.append(state)
                self.o_conf.append(conf)
        self.offsets.append(len(self.o_t))
        h = hashlib.blake2b(digest_size=8)
        h.update(int(obs.n_tokens).to_bytes(4, "little"))
        h.update(np.asarray(self.o_t[lo:], np.int32).tobytes())
        h.update(np.asarray(self.o_s[lo:], np.int32).tobytes())
        h.update(np.asarray(self.o_state[lo:], np.int32).tobytes())
        h.update(np.asarray(self.o_conf[lo:], np.float64).tobytes())
        self.fps.append(int.from_bytes(h.digest(), "little") >> 1)

    def column(self, name):
        flat = getattr(self, name)
        return [flat[a:b] for a, b in zip(self.offsets[:-1],
                                          self.offsets[1:])]


def assert_block_matches_reference(layers_list, n_tokens):
    """``encode_layers`` on the whole block equals ``layers_to_obs`` turn
    by turn, bit for bit; returns the block's columns."""
    from weak_supervision_for_ner_ray.stages.encode import (
        canonical_layers, encode_layers, layers_to_obs)

    got = encode_layers([l.copy() for l in layers_list], n_tokens)
    ref = ReferenceObs()
    for layers, nt in zip(layers_list, n_tokens):
        ref.add(layers_to_obs(canonical_layers(layers), nt))
    assert got["obs_fp"].to_pylist() == ref.fps
    for name in ("o_t", "o_s", "o_state", "o_conf"):
        assert got[name].to_pylist() == ref.column(name), name
    return got


def _layers(by_source):
    from weak_supervision_for_ner_ray.functions.spans import Layers

    layers = Layers()
    layers.by_source = by_source
    return layers


def _source_idx(name):
    from weak_supervision_for_ner_ray.sources.registry import SOURCE_INDICES
    return SOURCE_INDICES[name]


# voters and sources the specialise vote skips; generic and plain labels
_SOURCES = ["BTC", "conll2003", "core_web_md", "doc_history", "wiki_cased",
            "compound_detector", "nnp_detector", "proper_detector"]
_LABELS = ["ENT", "MISC", "PERSON", "ORG", "GPE", "PRODUCT", "DATE"]
_span = st.tuples(st.integers(0, 12), st.integers(1, 4)).map(
    lambda p: (p[0], p[0] + p[1]))
_values = st.lists(st.tuples(st.sampled_from(_LABELS),
                             st.floats(0.0625, 1.0, width=32)),
                   min_size=1, max_size=3, unique_by=lambda v: v[0]).map(
    tuple)
_turn = st.tuples(
    st.dictionaries(st.sampled_from(_SOURCES),
                    st.dictionaries(_span, _values, max_size=5),
                    max_size=6),
    st.integers(0, 10))


@settings(max_examples=150, deadline=None)
@given(st.lists(_turn, min_size=1, max_size=6))
def test_block_encoder_matches_per_turn_reference(turns):
    assert_block_matches_reference([_layers(b) for b, _ in turns],
                                   [nt for _, nt in turns])


def test_block_encoder_keeps_the_binary_search_miss():
    """The window ``_binary_search`` returns for (8, 9) over voter spans
    (0, 10), (2, 3), (5, 6) holds only (5, 6), so the overlapping (0, 10)
    casts no vote and the generic span goes unresolved."""
    from weak_supervision_for_ner_ray.functions.spans import _binary_search

    intervals = [(0, 10), (2, 3), (5, 6)]
    assert intervals[slice(*_binary_search(8, 9, intervals))] == [(5, 6)]
    voter = {span: (("ORG", 0.5),) for span in intervals}
    got = assert_block_matches_reference(
        [_layers({"core_web_md": voter,
                  "proper_detector": {(8, 9): (("ENT", 1.0),)}})], [12])
    assert got["o_s"].to_pylist() == [[_source_idx("core_web_md")] * 12]


def test_block_encoder_generic_value_replaces_the_whole_span():
    from weak_supervision_for_ner_ray.constants import LABEL_INDICES

    got = assert_block_matches_reference(
        [_layers({"BTC": {(0, 2): (("ENT", 0.5), ("PERSON", 0.5))},
                  "core_web_md": {(0, 2): (("ORG", 1.0),)}})], [4])
    btc = _source_idx("BTC")
    states = {st_ for s, st_ in zip(got["o_s"].to_pylist()[0],
                                    got["o_state"].to_pylist()[0])
              if s == btc}
    # B-ORG and L-ORG only: the PERSON value went with the span's tuple
    assert states == {LABEL_INDICES["B-ORG"], LABEL_INDICES["L-ORG"]}


def test_block_encoder_two_generic_values_on_one_span():
    assert_block_matches_reference(
        [_layers({"nnp_detector": {(0, 3): (("ENT", 0.4), ("MISC", 0.6))},
                  "core_web_md": {(0, 3): (("ORG", 0.7), ("PERSON", 0.3))},
                  "conll2003": {(1, 2): (("GPE", 1.0),)}})], [3])


def test_block_encoder_spans_at_and_across_the_turn_end():
    got = assert_block_matches_reference(
        [_layers({"core_web_md": {(1, 5): (("ORG", 1.0),),
                                  (3, 4): (("DATE", 1.0),),
                                  (6, 7): (("GPE", 1.0),)}})], [3])
    assert got["o_t"].to_pylist() == [[1, 2]]


def test_block_encoder_empty_turns():
    """Zero-token turns and turns without mentions, mixed with a turn that
    fires, in one block."""
    fires = {"core_web_md": {(0, 1): (("PERSON", 1.0),)},
             "proper_detector": {(0, 1): (("ENT", 1.0),)}}
    got = assert_block_matches_reference(
        [_layers({}), _layers(dict(fires)), _layers(dict(fires)),
         _layers({}), _layers(dict(fires))], [0, 0, 2, 3, 1])
    assert [len(x) for x in got["o_t"].to_pylist()] == [0, 0, 2, 0, 2]
