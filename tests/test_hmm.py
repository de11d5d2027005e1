import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from weak_supervision_for_ner_ray.constants import POSITIONED_LABELS
from weak_supervision_for_ner_ray.state import hmm
from weak_supervision_for_ner_ray.state.hmm import (HMMParams, SuffStats,
                                                    TurnObs, decode_turn,
                                                    forward, backward,
                                                    frame_log_likelihood,
                                                    init_params_from_counts,
                                                    m_step, viterbi)


def tiny_params(seed=1):
    """Params with realistic observation-mass priors: overwhelmingly 'O'
    observations per source, as a real corpus pass would produce."""
    K, S = hmm.N_STATES, hmm.N_SOURCES
    init = np.zeros(K)
    trans = np.zeros((K, K))
    obs = np.zeros((S, K))
    obs[:, 0] = 10000.0
    return init_params_from_counts(init, trans, obs, seed=seed)


def obs_with_span(n=6, source=None, start=1, end=3, label="PERSON",
                  conf=1.0):
    o = TurnObs(n)
    # default to a source whose priors cover all labels (core_web_md+c);
    # sources without a prior for the label have structurally-zero emission
    src = hmm.BEST_COVERAGE_INDEX if source is None else source
    o.add_span(src, start, end, label, conf)
    return o


def test_observation_bilu_spread():
    o = obs_with_span(end=4, source=0)
    from weak_supervision_for_ner_ray.constants import LABEL_INDICES
    assert o.fired[(1, 0)] == {LABEL_INDICES["B-PERSON"]: 1.0}
    assert o.fired[(2, 0)] == {LABEL_INDICES["I-PERSON"]: 1.0}
    assert o.fired[(3, 0)] == {LABEL_INDICES["L-PERSON"]: 1.0}
    o2 = obs_with_span(start=2, end=3, source=0)
    assert o2.fired[(2, 0)] == {LABEL_INDICES["U-PERSON"]: 1.0}


def test_zero_observation_constraint():
    """Tokens where no LF fires can only be state O (labelling.py:444-446)."""
    p = tiny_params()
    o = obs_with_span()
    ll = frame_log_likelihood(o, p)
    assert np.isfinite(ll[0, 0])
    assert np.all(np.isinf(ll[0, 1:]))  # token 0: nothing fired
    # token 1: B-PERSON observed -> that state is allowed
    from weak_supervision_for_ner_ray.constants import LABEL_INDICES
    assert np.isfinite(ll[1, LABEL_INDICES["B-PERSON"]])


def test_forward_backward_agree():
    p = tiny_params()
    o = obs_with_span()
    ll = frame_log_likelihood(o, p)
    logprob, fwd = forward(ll, p)
    bwd = backward(ll, p)
    # total probability from the backward side must match
    first = p.log_start + ll[0] + bwd[0]
    m = first.max()
    alt = m + np.log(np.exp(first - m).sum())
    assert abs(logprob - alt) < 1e-8


def test_viterbi_decodes_span():
    p = tiny_params()
    o = TurnObs(6)
    # agreeing sources, as the LF bank produces for a real mention (a clear
    # name also fires the proper/NNP shape detectors and the conll stand-in)
    for src in ("core_web_md", "core_web_md+c", "conll2003", "wiki_cased",
                "full_name_detector", "crunchbase_cased", "proper_detector",
                "proper2_detector", "nnp_detector"):
        o.add_span(hmm.SOURCE_INDICES[src], 1, 3, "PERSON", 1.0)
    spans = decode_turn(o, p)
    assert any(lab == "PERSON" and (s, e) == (1, 3) for s, e, lab, _ in spans)


def test_decode_bilu_validity():
    """Decoded sequences are structurally valid (labelling.py:484-495)."""
    p = tiny_params()
    rng = np.random.default_rng(3)
    for trial in range(10):
        o = TurnObs(12)
        for _ in range(3):
            s = int(rng.integers(0, 10))
            e = s + int(rng.integers(1, 3))
            o.add_span(int(rng.integers(0, hmm.N_SOURCES)), s, e,
                       "ORG", 1.0)
        ll = frame_log_likelihood(o, p)
        _, states = viterbi(ll, p)
        prev = "O"
        for st in states:
            lab = POSITIONED_LABELS[st]
            if prev[0] in "LUO":
                assert lab[0] not in "IL", (prev, lab)
            if prev[0] in "BI":
                assert lab[0] in "IL" and lab[2:] == prev[2:], (prev, lab)
            prev = lab
        assert prev[0] in "LUO"


def test_em_iteration_increases_likelihood():
    p = tiny_params()
    observations = []
    rng = np.random.default_rng(5)
    for _ in range(30):
        o = TurnObs(8)
        s = int(rng.integers(0, 6))
        o.add_span(hmm.BEST_COVERAGE_INDEX, s, s + 2, "GPE", 1.0)
        o.add_span(hmm.SOURCE_INDICES["wiki_cased"] if hasattr(hmm, "SOURCE_INDICES") else 0, s, s + 2, "GPE", 0.8)
        observations.append(o)
    lps = []
    for _ in range(3):
        stats = SuffStats()
        for o in observations:
            hmm.accumulate(o, p, stats)
        lps.append(stats.logprob)
        p = m_step(p, stats)
    assert lps[-1] >= lps[0] - 1e-6


def test_params_roundtrip(tmp_path):
    p = tiny_params()
    path = str(tmp_path / "p.npz")
    p.save(path)
    q = HMMParams.load(path)
    assert np.allclose(p.startprob, q.startprob)
    assert np.allclose(p.transmat, q.transmat)
    assert np.allclose(p.emission_probs, q.emission_probs)


def test_init_params_digest_pinned():
    """The vectorised emission prior is bit-identical to the per-entry
    reference loop it replaced: digests taken from the loop version."""
    K, S = hmm.N_STATES, hmm.N_SOURCES
    rng = np.random.default_rng(2024)
    init = rng.uniform(0, 100, K)
    trans = rng.uniform(0, 50, (K, K))
    obs = rng.uniform(0, 1000, (S, K))
    assert init_params_from_counts(
        init, trans, obs, seed=5).digest() == "b9e5db44c5a18c8f"
    assert init_params_from_counts(
        init, trans, obs, seed=5, keep=[0, 3, 7],
        informative=False).digest() == "f17fc2414a172026"
    assert init_params_from_counts(
        np.zeros(K), np.zeros((K, K)),
        np.zeros((S, K))).digest() == "128616253d8be4d6"


def test_suffstats_merge_equals_sequential():
    p = tiny_params()
    o1 = obs_with_span()
    o2 = obs_with_span(start=2, end=5, label="ORG")
    both = SuffStats()
    hmm.accumulate(o1, p, both)
    hmm.accumulate(o2, p, both)
    s1, s2 = SuffStats(), SuffStats()
    hmm.accumulate(o1, p, s1)
    hmm.accumulate(o2, p, s2)
    merged = s1.merge(s2)
    assert np.allclose(both.start, merged.start)
    assert np.allclose(both.trans, merged.trans)
    assert np.allclose(both.obs, merged.obs)
    assert abs(both.logprob - merged.logprob) < 1e-9


def test_keep_subset_never_masks_O():
    """With a keep subset the reference sums X over ALL sources, so state O
    stays observable even when every kept source fires
    (labelling.py:444-446)."""
    from weak_supervision_for_ner_ray.constants import LABEL_INDICES

    K, S = hmm.N_STATES, hmm.N_SOURCES
    obs_counts = np.zeros((S, K))
    obs_counts[:, 0] = 10000.0
    keep = [hmm.BEST_COVERAGE_INDEX]
    p = init_params_from_counts(np.zeros(K), np.zeros((K, K)), obs_counts,
                                seed=1, keep=keep)
    o = obs_with_span()          # the single kept source fires on tokens 1-2
    ll = frame_log_likelihood(o, p)
    assert np.isfinite(ll[1, 0])          # O NOT masked despite full firing
    assert np.isfinite(ll[1, LABEL_INDICES["B-PERSON"]])
    # full source set: firing all sources masks O (original semantics)
    p_full = tiny_params()
    o2 = TurnObs(3)
    for s in range(S):
        o2.add_span(s, 1, 2, "GPE", 1.0)
    llf = frame_log_likelihood(o2, p_full)
    assert np.isinf(llf[1, 0])


def test_nonkept_source_keeps_state_observable():
    """The reference's observed-state mask sums X over ALL sources
    (labelling.py:443-445): a state fired only by a NON-kept source stays
    live, even though it contributes nothing to the likelihood.  The dict
    and flat kernels must agree."""
    from weak_supervision_for_ner_ray.constants import LABEL_INDICES

    K, S = hmm.N_STATES, hmm.N_SOURCES
    obs_counts = np.zeros((S, K))
    obs_counts[:, 0] = 10000.0
    kept = hmm.BEST_COVERAGE_INDEX
    non_kept = int(hmm.SOURCE_INDICES["wiki_cased"])
    assert non_kept != kept
    p = init_params_from_counts(np.zeros(K), np.zeros((K, K)), obs_counts,
                                seed=7, keep=[kept])
    o = TurnObs(5)
    o.add_span(kept, 1, 2, "PERSON", 1.0)        # kept fires U-PERSON@1
    o.add_span(non_kept, 3, 4, "ORG", 1.0)       # NON-kept fires U-ORG@3
    u_org = LABEL_INDICES["U-ORG"]

    ll = frame_log_likelihood(o, p)
    assert np.isfinite(ll[3, u_org])     # non-kept-fired state stays live
    assert np.isfinite(ll[3, 0])
    assert np.all(np.isinf(ll[2, 1:]))   # nothing fired at 2 -> only O

    # flat kernel parity
    pt, ps, pst, pc = [], [], [], []
    for (t, s) in sorted(o.fired):
        for st, c in o.fired[(t, s)].items():
            pt.append(t), ps.append(s), pst.append(st), pc.append(c)
    pt, ps = np.array(pt, np.int64), np.array(ps, np.int64)
    pst, pc = np.array(pst, np.int64), np.array(pc, np.float64)
    ll_flat, _, _, _ = hmm.frame_ll_flat(5, pt, ps, pst, pc, p)
    assert np.allclose(ll, ll_flat, equal_nan=True)

    # flat E-step kernel parity on the sufficient statistics
    s_dict, s_flat = SuffStats(), SuffStats()
    hmm.accumulate(o, p, s_dict)
    defer, buf = np.zeros(K), hmm.EmisStatsBuffer()
    hmm.accumulate_flat(p, 5, pt, ps, pst, pc, s_flat, defer_o=defer,
                        emis_buf=buf)
    buf.apply(s_flat)
    s_flat.obs[p.keep, :, 0] += defer[None, :]
    assert abs(s_dict.logprob - s_flat.logprob) < 1e-9
    assert np.abs(s_dict.start - s_flat.start).max() < 1e-10
    assert np.abs(s_dict.obs - s_flat.obs).max() < 1e-10


def test_flat_kernels_match_dict_kernels():
    """accumulate_flat / decode_turn_flat over encoder-ordered flat arrays
    produce identical stats and spans to the TurnObs dict path, including
    multi-label observations and keep subsets."""
    rng = np.random.default_rng(17)
    for keep in (None, sorted({hmm.BEST_COVERAGE_INDEX,
                               int(hmm.SOURCE_INDICES["wiki_cased"])})):
        K, S = hmm.N_STATES, hmm.N_SOURCES
        obs_counts = np.zeros((S, K))
        obs_counts[:, 0] = 10000.0
        p = init_params_from_counts(np.zeros(K), np.zeros((K, K)),
                                    obs_counts, seed=2, keep=keep)
        s_dict, s_flat = SuffStats(), SuffStats()
        defer, buf = np.zeros(K), hmm.EmisStatsBuffer()
        for trial in range(30):
            o = TurnObs(int(rng.integers(2, 18)))
            for _ in range(int(rng.integers(1, 6))):
                t0 = int(rng.integers(0, o.n_tokens - 1))
                o.add_span(hmm.BEST_COVERAGE_INDEX, t0, t0 + 1, "GPE", 1.0)
                if rng.random() < 0.4:       # multi-label same (t, s)
                    o.add_span(hmm.BEST_COVERAGE_INDEX, t0, t0 + 1,
                               "ORG", 0.5)
            # flat arrays in encoder order: sorted (t, s), states within
            pt, ps, pst, pc = [], [], [], []
            for (t, s) in sorted(o.fired):
                for st, c in o.fired[(t, s)].items():
                    pt.append(t)
                    ps.append(s)
                    pst.append(st)
                    pc.append(c)
            pt = np.array(pt, np.int64)
            ps = np.array(ps, np.int64)
            pst = np.array(pst, np.int64)
            pc = np.array(pc, np.float64)
            w = float(rng.integers(1, 4))
            hmm.accumulate(o, p, s_dict, weight=w)
            hmm.accumulate_flat(p, o.n_tokens, pt, ps, pst, pc, s_flat,
                                weight=w, defer_o=defer, emis_buf=buf)
            spans_a = decode_turn(o, p)
            spans_b = hmm.decode_turn_flat(p, o.n_tokens, pt, ps, pst, pc)
            assert spans_a == spans_b
        buf.apply(s_flat)
        s_flat.obs[p.keep, :, 0] += defer[None, :]
        assert s_dict.n_seqs == s_flat.n_seqs
        assert abs(s_dict.logprob - s_flat.logprob) < 1e-8
        assert np.abs(s_dict.start - s_flat.start).max() < 1e-10
        assert np.abs(s_dict.trans - s_flat.trans).max() < 1e-9
        assert np.abs(s_dict.obs - s_flat.obs).max() < 1e-9


def test_o_run_compression_exact_parity():
    """The O-run-compressed flat kernels reproduce the uncompressed dict
    path exactly on turns dominated by unfired runs: long interior runs,
    fully-unfired turns, leading/trailing runs, weighted turns, and keep
    subsets (where unfired-ness is judged on ALL sources)."""
    rng = np.random.default_rng(99)
    for keep in (None, sorted({hmm.BEST_COVERAGE_INDEX,
                               int(hmm.SOURCE_INDICES["wiki_cased"])})):
        K, S = hmm.N_STATES, hmm.N_SOURCES
        obs_counts = np.zeros((S, K))
        obs_counts[:, 0] = 10000.0
        p = init_params_from_counts(np.zeros(K), np.zeros((K, K)),
                                    obs_counts, seed=7, keep=keep)
        s_dict, s_flat = SuffStats(), SuffStats()
        defer, buf = np.zeros(K), hmm.EmisStatsBuffer()
        cases = []
        # fully-unfired turn (compresses to a single token)
        cases.append((TurnObs(40), 2.0))
        # one fired token in the middle of a 60-token turn
        o = TurnObs(60)
        o.add_span(hmm.BEST_COVERAGE_INDEX, 30, 31, "GPE", 1.0)
        cases.append((o, 1.0))
        # fired tokens at both ends, long interior run
        o = TurnObs(50)
        o.add_span(hmm.BEST_COVERAGE_INDEX, 0, 2, "PERSON", 1.0)
        o.add_span(hmm.BEST_COVERAGE_INDEX, 48, 50, "ORG", 0.8)
        cases.append((o, 3.0))
        # random sparse firings
        for _ in range(10):
            o = TurnObs(int(rng.integers(8, 80)))
            for _ in range(int(rng.integers(0, 4))):
                t0 = int(rng.integers(0, o.n_tokens - 1))
                o.add_span(hmm.BEST_COVERAGE_INDEX, t0, t0 + 1, "GPE", 1.0)
            cases.append((o, float(rng.integers(1, 5))))
        for o, w in cases:
            pt, ps, pst, pc = [], [], [], []
            for (t, s) in sorted(o.fired):
                for st, c in o.fired[(t, s)].items():
                    pt.append(t); ps.append(s); pst.append(st); pc.append(c)
            pt = np.array(pt, np.int64)
            ps = np.array(ps, np.int64)
            pst = np.array(pst, np.int64)
            pc = np.array(pc, np.float64)
            hmm.accumulate(o, p, s_dict, weight=w)
            hmm.accumulate_flat(p, o.n_tokens, pt, ps, pst, pc, s_flat,
                                weight=w, defer_o=defer, emis_buf=buf)
            assert decode_turn(o, p) == hmm.decode_turn_flat(
                p, o.n_tokens, pt, ps, pst, pc)
        buf.apply(s_flat)
        s_flat.obs[p.keep, :, 0] += defer[None, :]
        assert s_dict.n_seqs == s_flat.n_seqs
        assert abs(s_dict.logprob - s_flat.logprob) < 1e-7
        assert np.abs(s_dict.start - s_flat.start).max() < 1e-10
        assert np.abs(s_dict.trans - s_flat.trans).max() < 1e-8
        assert np.abs(s_dict.obs - s_flat.obs).max() < 1e-8


# ---------------------------------------------------------------------------
# block kernels: pattern tables and tiles
# ---------------------------------------------------------------------------

_COLS = ("o_t", "o_s", "o_state", "o_conf")


@pytest.fixture(scope="module")
def corpus_obs(small_corpus):
    """small_corpus encoded as the pipeline's flat obs rows (conversation
    sources included), its texts, and params from one oracle EM
    iteration on it (trained, so ``transmat`` has the grammar's zeros)."""
    from weak_supervision_for_ner_ray.oracle import Oracle
    from weak_supervision_for_ner_ray.stages.encode import (ObsRows,
                                                            encode_layers)
    turns, _, _ = small_corpus
    oracle = Oracle()
    annotated = oracle.annotate(turns)
    keys = sorted(annotated)
    n_tok = [len(annotated[k][0]) for k in keys]
    texts = dict(zip(zip(turns["conv_id"].to_pylist(),
                         turns["turn_idx"].to_pylist()),
                     turns["text"].to_pylist()))
    table = pa.table({
        "conv_id": [k[0] for k in keys],
        "turn_idx": pa.array([k[1] for k in keys], pa.int32()),
        "text": [texts[k] for k in keys],
        "n_tokens": pa.array(n_tok, pa.int32()),
        **encode_layers([annotated[k][1] for k in keys], n_tok)})
    rows = ObsRows(table)
    params = oracle.train({k: rows.turnobs(i) for i, k in enumerate(keys)},
                          n_iter=1)
    return table, rows, params


def _with_keep(p, keep):
    return HMMParams(p.startprob, p.transmat, p.emission_probs,
                     p.startprob_prior, p.transmat_prior, p.emission_priors,
                     keep=keep)


def test_block_viterbi_matches_viterbi():
    """Tiled max-plus over each state's predecessors gives the paths of
    the dense :func:`viterbi`, bit for bit: a structurally sparse
    transmat, exact ties, all -inf columns, T=1 and a dense transmat."""
    rng = np.random.default_rng(11)
    K = hmm.N_STATES
    sparse = tiny_params()
    assert [len(g[0]) for g in sparse.viterbi_groups] == [38, 39]
    # uniform rows over each state's successors: every tie is exact
    grammar = (sparse.transmat > 0) / (sparse.transmat > 0).sum(
        axis=1, keepdims=True)
    tied = HMMParams(sparse.startprob, grammar, sparse.emission_probs)
    # no O -> O transition: O's first predecessor is not state 0
    no_self = grammar.copy()
    no_self[0, 0] = 0.0
    no_self /= no_self.sum(axis=1, keepdims=True)
    no_self = HMMParams(sparse.startprob, no_self, sparse.emission_probs)
    dense = HMMParams(np.full(K, 1 / K), np.full((K, K), 1 / K),
                      sparse.emission_probs)
    assert len(dense.viterbi_groups) == 1
    for p in (sparse, tied, no_self, dense):
        for T, B in ((1, 5), (2, 3), (9, 16), (30, 4)):
            ll = rng.integers(-4, 0, (T, B, K)).astype(np.float64)
            ll[rng.random((T, B, K)) < 0.6] = -np.inf
            ll[:, :, 0] = np.where(rng.random((T, B)) < 0.2, -np.inf,
                                   ll[:, :, 0])
            if T > 2:
                ll[1, 0] = -np.inf       # every column at t=2 is -inf
            got = hmm._viterbi_tile(ll, p)
            for b in range(B):
                assert np.array_equal(got[:, b], viterbi(ll[:, b], p)[1])


def test_pattern_table_ll_is_frame_ll_flat(corpus_obs):
    """Each turn's ll gathered from the chunk's pattern table equals
    :func:`frame_ll_flat` of that turn bit for bit, multi-label turns and
    a keep subset included."""
    _, rows, trained = corpus_obs
    cols = [rows.cols[c] for c in _COLS]
    off = rows.offsets
    multi = 0
    for p in (trained, _with_keep(trained, [hmm.BEST_COVERAGE_INDEX,
                                            hmm.SOURCE_INDICES["wiki_cased"],
                                            hmm.SOURCE_INDICES["nnp_detector"]
                                            ])):
        ch = hmm._Chunk(p, rows.n_tokens, off, *cols)
        for i in range(len(rows)):
            pairs = [np.asarray(c[off[i]:off[i + 1]], dt) for c, dt in
                     zip(cols, (np.int64,) * 3 + (np.float64,))]
            ll = hmm.frame_ll_flat(int(rows.n_tokens[i]), *pairs, p)[0]
            lo, hi = ch.off[i], ch.off[i + 1]
            got = ch.ll[ch.pat[lo:hi]]
            assert got.tobytes() == ll[ch.kept[lo:hi]].tobytes(), i
            key = pairs[0] * hmm.N_SOURCES + pairs[1]
            multi += bool(np.any(key[1:] == key[:-1]))
        assert ch.n_removed.sum() > 0
    assert multi > 0


def test_block_estep_matches_per_turn(corpus_obs):
    """:func:`accumulate_block` over the whole chunk, with dedup weights
    and O-run compression, against per-turn :func:`accumulate`: every
    statistic within 1e-12 relative, and the m-step params within
    1e-12."""
    _, rows, p = corpus_obs
    weights = np.random.default_rng(4).integers(1, 4, len(rows)) * 1.0
    ref = SuffStats()
    for i in range(len(rows)):
        hmm.accumulate(rows.turnobs(i), p, ref, weight=weights[i])
    got = SuffStats()
    defer, buf = np.zeros(hmm.N_STATES), hmm.EmisStatsBuffer()
    hmm.accumulate_block(p, rows.n_tokens, rows.offsets,
                         *[rows.cols[c] for c in _COLS], got, weights,
                         defer_o=defer, emis_buf=buf)
    buf.apply(got)
    got.obs[p.keep, :, 0] += defer[None, :]
    assert got.n_seqs == ref.n_seqs == int(weights.sum())
    for name, a in ref.to_arrays().items():
        b = got.to_arrays()[name]
        assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max(), name
    pa_, pb = m_step(p, ref), m_step(p, got)
    for a, b in ((pa_.startprob, pb.startprob), (pa_.transmat, pb.transmat),
                 (pa_.emission_probs, pb.emission_probs)):
        assert np.abs(a - b).max() <= 1e-12


def test_decode_triple_batch_spans_match_per_turn(corpus_obs):
    """The fused decode stage's ``ner`` rows, conf included, equal the
    per-turn :func:`decode_turn` spans on every small_corpus turn."""
    from weak_supervision_for_ner_ray.data import builtin_gazetteers
    from weak_supervision_for_ner_ray.stages.kg import (AliasIndex,
                                                        decode_triple_batch)
    table, rows, p = corpus_obs
    out = decode_triple_batch(p, AliasIndex(builtin_gazetteers()), table,
                              decode_memo={}, triple_memo={})
    out = out.filter(pc.equal(out["kind"], "n"))
    got = list(zip(out["conv_id"].to_pylist(), out["turn_idx"].to_pylist(),
                   out["start"].to_pylist(), out["end"].to_pylist(),
                   out["label"].to_pylist(), out["conf"].to_pylist()))
    exp = []
    for i, (ci, ti) in enumerate(zip(table["conv_id"].to_pylist(),
                                     table["turn_idx"].to_pylist())):
        for s, e, lab, c in decode_turn(rows.turnobs(i), p):
            exp.append((ci, ti, s, e, lab, float(np.float32(c))))
    assert got == exp and len(exp) > 100


def test_decode_stage_one_decode_block_call_per_block(corpus_obs,
                                                      monkeypatch):
    """The fused decode stage decodes a whole obs block with ONE
    ``hmm.decode_block`` call, and its output equals the same rows fed in
    256-row batches through one worker's memos."""
    from collections import OrderedDict

    from weak_supervision_for_ner_ray.data import builtin_gazetteers
    from weak_supervision_for_ner_ray.stages import util
    from weak_supervision_for_ner_ray.stages.kg import make_decode_triple_fn
    table, _, p = corpus_obs
    assert table.num_rows > 256
    calls = []
    real = hmm.decode_block

    def counted(*a, **kw):
        calls.append(None)
        return real(*a, **kw)

    monkeypatch.setattr(hmm, "decode_block", counted)
    # each run starts with empty per-worker memos
    monkeypatch.setattr(util, "_WORKER_CACHE", OrderedDict())
    gaz = builtin_gazetteers()
    whole = make_decode_triple_fn((p, gaz))(table)
    assert len(calls) == 1
    util._WORKER_CACHE.clear()
    batched_fn = make_decode_triple_fn((p, gaz))
    batched = pa.concat_tables([batched_fn(table.slice(lo, 256))
                                for lo in range(0, table.num_rows, 256)])
    assert len(calls) == 1 + -(-table.num_rows // 256)
    assert whole.equals(batched)
    assert pc.sum(pc.equal(whole["kind"], "n")).as_py() > 100


def test_worker_cache_keeps_one_generation_per_kg_kind(corpus_obs,
                                                       small_corpus,
                                                       monkeypatch):
    """A worker keeps one build's KG state: after three builds' broadcasts
    in turn, the cache holds one ``annotate`` entry (LF bank + text memo)
    and one ``decode`` entry (params, alias index, decode and triple
    memos), and every generation computes the same output."""
    from collections import Counter, OrderedDict

    from weak_supervision_for_ner_ray.data import (DETECTOR_FIRST_NAMES,
                                                   builtin_gazetteers)
    from weak_supervision_for_ner_ray.stages import util
    from weak_supervision_for_ner_ray.stages.annotate import (
        make_full_conv_annotate_fn)
    from weak_supervision_for_ner_ray.stages.kg import make_decode_triple_fn
    table, _, p = corpus_obs
    turns, _, _ = small_corpus
    raw = turns.append_column(
        "_win", pa.array([0] * turns.num_rows, pa.int32())).sort_by(
            [("conv_id", "ascending")])
    monkeypatch.setattr(util, "_WORKER_CACHE", OrderedDict())
    gaz = builtin_gazetteers()
    # three builds' broadcasts: distinct objects, alive throughout
    inputs = [((gaz, DETECTOR_FIRST_NAMES), (p, gaz)) for _ in range(3)]
    outs = [(make_full_conv_annotate_fn(bank_inputs)(raw),
             make_decode_triple_fn(decode_inputs)(table))
            for bank_inputs, decode_inputs in inputs]
    assert Counter(kind for _, kind in util._WORKER_CACHE) == {
        "annotate": 1, "decode": 1}
    assert all(obs.equals(outs[0][0]) and dec.equals(outs[0][1])
               for obs, dec in outs)
    assert outs[0][0].num_rows == turns.num_rows
