import numpy as np

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
