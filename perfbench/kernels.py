"""Single-threaded kernel timings on a fixed turn sample, and the host
probe.  Everything runs in the benchmark process, outside Ray."""

from __future__ import annotations

import statistics
import time

import numpy as np
import pyarrow as pa

REPEATS = 3


def _ms_per_turn(fn, n_turns: int) -> float:
    """Median over :data:`REPEATS` calls of ``fn`` in ms per turn."""
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls) * 1e3 / n_turns


def host_probe_s() -> float:
    """Median wall of sorting 4 * 10^6 seeded floats (numpy sorts on one
    thread), so runs on differently fast hosts are not compared as
    alike."""
    data = np.random.default_rng(0).random(4_000_000)
    walls = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.sort(data)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def kernel_block(sample: pa.Table, params) -> dict[str, float]:
    """ms/turn of the LF bank, the conversation-level sources, the obs
    encoder, the E-step, Viterbi decode and link+triples, each on the same
    sample (``sample`` is sorted by (conv_id, turn_idx)).  Memos are not
    used, so every turn pays its full kernel cost."""
    import pyarrow.compute as pc

    from weak_supervision_for_ner_ray.data import (DETECTOR_FIRST_NAMES,
                                                   builtin_gazetteers)
    from weak_supervision_for_ner_ray.sources.registry import LFBank
    from weak_supervision_for_ner_ray.stages.annotate import (
        annotate_conv_group, annotate_turn_batch)
    from weak_supervision_for_ner_ray.stages.encode import (ObsRows,
                                                            encode_obs_batch)
    from weak_supervision_for_ner_ray.stages.kg import (
        AliasIndex, extract_triples_for_turn)
    from weak_supervision_for_ner_ray.state import hmm
    from weak_supervision_for_ner_ray.tokenizer import make_doc

    gaz = builtin_gazetteers()
    bank = LFBank(gaz, DETECTOR_FIRST_NAMES)
    n = sample.num_rows
    texts = sample.column("text").to_pylist()
    out = {}

    out["sources.lfbank_ms_per_turn"] = _ms_per_turn(
        lambda: [bank.annotate_turn(t) for t in texts], n)

    turn_level = annotate_turn_batch(bank, sample)
    conv_ids = turn_level.column("conv_id")
    groups = [turn_level.filter(pc.equal(conv_ids, c))
              for c in pc.unique(conv_ids).to_pylist()]
    out["annotate.conv_ms_per_turn"] = _ms_per_turn(
        lambda: [annotate_conv_group(bank, g) for g in groups], n)

    annotated = pa.concat_tables(annotate_conv_group(bank, g)
                                 for g in groups)
    out["encode.ms_per_turn"] = _ms_per_turn(
        lambda: encode_obs_batch(annotated), n)

    rows = ObsRows(encode_obs_batch(annotated))
    off, nt = rows.offsets, rows.n_tokens
    cols = [np.ascontiguousarray(rows.cols[k], dt) for k, dt in
            (("o_t", np.int64), ("o_s", np.int64), ("o_state", np.int64),
             ("o_conf", np.float64))]

    def pairs(i):
        return [c[off[i]:off[i + 1]] for c in cols]

    def estep():
        stats = hmm.SuffStats()
        defer_o = np.zeros(hmm.N_STATES)
        buf = hmm.EmisStatsBuffer()
        for i in range(n):
            hmm.accumulate_flat(params, int(nt[i]), *pairs(i), stats,
                                defer_o=defer_o, emis_buf=buf)
        buf.apply(stats)

    out["hmm.estep_ms_per_turn"] = _ms_per_turn(estep, n)

    def viterbi():
        return [hmm.decode_turn_flat(params, int(nt[i]), *pairs(i))
                for i in range(n)]

    out["hmm.viterbi_ms_per_turn"] = _ms_per_turn(viterbi, n)

    spans = viterbi()
    index = AliasIndex(gaz)
    out["kg.link_triples_ms_per_turn"] = _ms_per_turn(
        lambda: [extract_triples_for_turn(make_doc(t), s, index)
                 for t, s in zip(texts, spans) if s], n)
    return out
