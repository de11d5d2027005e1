"""The obs table and the two overlap votes that feed it.

The sequential oracle (``oracle.py``) calls the same ``layers_to_obs``,
``specialise_annotations`` and ``doc_majority`` as the pipeline, so the
oracle-parity tests cannot see a mistake in them.  These tests pin the obs
table bytes instead, and check the per-span vote caches against the plain
``get_overlaps`` loops they replace.
"""

import hashlib

import pyarrow.parquet as pq
import pytest

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
